package mat

import "errors"

// ErrNotPD reports that a matrix passed to Cholesky was not (numerically)
// positive definite.
var ErrNotPD = errors.New("mat: matrix not positive definite")

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ. It
// solves the normal equations of the estimation step's OLS fits; the ADMM
// x-updates multiply by an explicit Inverse built from the same factor.
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

// NewCholesky factors the symmetric positive-definite matrix a, unblocked.
// a is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	l := append([]float64(nil), a.Data...)
	if factorUnblocked(l, a.Rows, best) >= 0 {
		return nil, ErrNotPD
	}
	return newCholesky(a.Rows, l), nil
}

// Solve solves A·x = b (that is, L·Lᵀ·x = b) and returns x.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(ErrShape)
	}
	y := append([]float64(nil), b...)
	substitute(c.l, c.lt, c.n, y)
	return y
}

// SolveSPDInPlace solves a·x = b for the n×n symmetric positive-definite
// matrix in a (row-major) without allocating: it factors a in place — L on
// and below the diagonal, Lᵀ above it — and overwrites b with x, by
// NewCholesky's arithmetic, so x has Solve's bits. When a is not positive
// definite it returns ErrNotPD, b is untouched and a is clobbered.
func SolveSPDInPlace(a []float64, n int, b []float64) error {
	if len(a) != n*n || len(b) != n {
		return ErrShape
	}
	if factorUnblocked(a, n, best) >= 0 {
		return ErrNotPD
	}
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			a[i*n+k] = a[k*n+i]
		}
	}
	substitute(a, a, n, b)
	return nil
}

// substitute overwrites y with (L·Lᵀ)⁻¹·y: a forward sweep over the rows
// of L (read on and below the diagonal of l), then a backward sweep over
// the rows of Lᵀ (read above the diagonal of lt).
func substitute(l, lt []float64, n int, y []float64) {
	for i := 0; i < n; i++ {
		s := y[i]
		for k, v := range l[i*n : i*n+i] {
			s -= float64(v * y[k])
		}
		y[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k, v := range lt[i*n+i+1 : (i+1)*n] {
			s -= float64(v * y[i+1+k])
		}
		y[i] = s / l[i*n+i]
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
