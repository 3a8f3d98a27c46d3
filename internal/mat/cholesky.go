package mat

import (
	"errors"
	"math"
)

// ErrNotPD reports that a matrix passed to Cholesky was not (numerically)
// positive definite.
var ErrNotPD = errors.New("mat: matrix not positive definite")

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ.
//
// LASSO-ADMM factors (AᵀA + ρI) once per (bootstrap, λ-group) and reuses the
// factor across all ADMM iterations; the paper identifies this triangular
// solve as one of the three hot kernels (§IV-A1).
type Cholesky struct {
	n  int
	l  []float64 // row-major lower triangle (full storage)
	lt []float64 // Lᵀ, row-major: the backward sweep walks its rows unit-stride
}

// newCholesky wraps a factored n×n buffer: it zeroes the strict upper
// triangle of l and materialises Lᵀ once, so every backward substitution
// reads rows instead of stride-n columns.
func newCholesky(n int, l []float64) *Cholesky {
	lt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		// Row i of Lᵀ is column i of L from the diagonal down; row i of L
		// past the diagonal still holds the input's upper triangle.
		ltRow := lt[i*n : (i+1)*n]
		for k := i; k < n; k++ {
			ltRow[k] = l[k*n+i]
		}
		clear(l[i*n+i+1 : (i+1)*n])
	}
	return &Cholesky{n: n, l: l, lt: lt}
}

// NewCholesky factors the symmetric positive-definite matrix a.
// a is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	l := make([]float64, n*n)
	copy(l, a.Data)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			v := l[j*n+k]
			d -= float64(v * v)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPD
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			li := l[i*n : i*n+j]
			lj := l[j*n : j*n+j]
			for k := range lj {
				s -= float64(li[k] * lj[k])
			}
			l[i*n+j] = s * inv
		}
	}
	return newCholesky(n, l), nil
}

// Solve solves A·x = b (that is, L·Lᵀ·x = b) and returns x.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(ErrShape)
	}
	y := make([]float64, c.n)
	copy(y, b)
	c.forwardCol(y, 1, 0)
	c.backwardCol(y, 1, 0)
	return y
}

// SolveInPlace is Solve reusing b as the output buffer.
func (c *Cholesky) SolveInPlace(b []float64) {
	if len(b) != c.n {
		panic(ErrShape)
	}
	c.forwardCol(b, 1, 0)
	c.backwardCol(b, 1, 0)
}

// forwardCol solves L·y = b in place on the strided column b[e], b[stride+e],
// … — a plain vector is stride 1, e 0; a panel's remainder column uses the
// panel's stride.
func (c *Cholesky) forwardCol(b []float64, stride, e int) {
	n := c.n
	for i := 0; i < n; i++ {
		s := b[i*stride+e]
		off := e
		for _, v := range c.l[i*n : i*n+i] {
			s -= float64(v * b[off])
			off += stride
		}
		b[i*stride+e] = s / c.l[i*n+i]
	}
}

// backwardCol solves Lᵀ·x = y in place on the strided column e.
func (c *Cholesky) backwardCol(b []float64, stride, e int) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		s := b[i*stride+e]
		off := (i+1)*stride + e
		for _, v := range c.lt[i*n+i+1 : (i+1)*n] {
			s -= float64(v * b[off])
			off += stride
		}
		b[i*stride+e] = s / c.l[i*n+i]
	}
}

// AddRidge returns a + rho*I as a new matrix (a must be square).
func AddRidge(a *Dense, rho float64) *Dense {
	if a.Rows != a.Cols {
		panic(ErrShape)
	}
	out := a.Clone()
	for i := 0; i < a.Rows; i++ {
		out.Data[i*a.Cols+i] += rho
	}
	return out
}
