// Package mat provides the dense linear algebra kernels used by the UoI
// solvers: row-major matrices, blocked and parallel matrix products,
// Cholesky factorization and triangular solves.
//
// The package plays the role Eigen3 and Intel-MKL play in the paper's C++
// implementation. Kernels are deliberately simple but cache-blocked and
// goroutine-parallel, since GEMM/GEMV dominate the computation phase of
// LASSO-ADMM (paper §IV-A1).
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
//
// The zero value is an empty 0×0 matrix. Data is stored in a single slice
// of length Rows*Cols; element (i, j) lives at Data[i*Cols+j].
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("mat: dimension mismatch")

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data (not copied) as an r×c matrix.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol overwrites column j with src.
func (m *Dense) SetCol(j int, src []float64) {
	if len(src) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
}

// SubRows returns a copy of rows [lo, hi).
func (m *Dense) SubRows(lo, hi int) *Dense {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: row range [%d,%d) out of %d rows", lo, hi, m.Rows))
	}
	out := NewDense(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// SelectRows returns a copy of the given rows, in order (repeats allowed,
// as produced by bootstrap resampling).
func (m *Dense) SelectRows(idx []int) *Dense {
	out := NewDense(len(idx), m.Cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectCols returns a copy of the given columns, in order.
func (m *Dense) SelectCols(idx []int) *Dense {
	out := NewDense(m.Rows, len(idx))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// Equal reports whether m and n have identical shape and elements within tol.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("%v;", m.Row(i))
		}
		s += "]"
	}
	return s
}

// Scale multiplies every element by a.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}
