package mat

import (
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewDenseDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Data[1*3+2]; got != 7.5 {
		t.Fatalf("row-major layout violated: Data[5] = %v", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must return a view, not a copy")
	}
}

func TestColAndSetCol(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	col := m.Col(1, nil)
	want := []float64{2, 4, 6}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Col(1)[%d] = %v, want %v", i, col[i], want[i])
		}
	}
	m.SetCol(0, []float64{9, 8, 7})
	if m.At(0, 0) != 9 || m.At(2, 0) != 7 {
		t.Fatalf("SetCol failed: %v", m.Data)
	}
}

func TestSubRows(t *testing.T) {
	m := NewDenseData(4, 2, []float64{0, 1, 2, 3, 4, 5, 6, 7})
	s := m.SubRows(1, 3)
	if s.Rows != 2 || s.At(0, 0) != 2 || s.At(1, 1) != 5 {
		t.Fatalf("SubRows(1,3) = %v", s.Data)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) == 99 {
		t.Fatal("SubRows must copy")
	}
}

func TestSelectRowsWithRepeats(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 1, 2, 2, 3, 3})
	s := m.SelectRows([]int{2, 0, 2})
	want := []float64{3, 3, 1, 1, 3, 3}
	for i := range want {
		if s.Data[i] != want[i] {
			t.Fatalf("SelectRows data = %v, want %v", s.Data, want)
		}
	}
}

func TestSelectCols(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := m.SelectCols([]int{2, 0})
	want := []float64{3, 1, 6, 4}
	for i := range want {
		if s.Data[i] != want[i] {
			t.Fatalf("SelectCols data = %v, want %v", s.Data, want)
		}
	}
}

// T returns the transpose as a new matrix, the oracle the kernel tests
// compare the transpose-free products against.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	if !m.T().T().Equal(m, 0) {
		t.Fatal("(Mᵀ)ᵀ != M")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{1 + 1e-12, 2})
	if !a.Equal(b, 1e-9) {
		t.Fatal("Equal with tolerance should accept tiny differences")
	}
	if a.Equal(b, 0) {
		t.Fatal("Equal with zero tolerance should reject differences")
	}
	c := NewDense(2, 1)
	if a.Equal(c, 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func TestScaleFillAddScaled(t *testing.T) {
	m := NewDenseData(2, 2, []float64{2, 2, 2, 2})
	m.Scale(3)
	for _, v := range m.Data {
		if v != 6 {
			t.Fatalf("expected all 6s, got %v", m.Data)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must deep-copy")
	}
}
