package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n³) product the kernels are checked against.
func naiveMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestMulMatchesNaive checks the XᵀY product MulAtB against the reference
// product of the transpose, for one and several response columns.
func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {65, 70, 63}, {130, 40, 128}} {
		a := randomDense(rng, dims[0], dims[1])
		b := randomDense(rng, dims[0], dims[2])
		got := MulAtB(a, b)
		want := naiveMul(a.T(), b)
		if !got.Equal(want, 1e-10) {
			t.Fatalf("MulAtB mismatch for dims %v", dims)
		}
	}
}

func TestMulABtMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 4, 3}, {9, 5, 7}, {64, 33, 64}, {130, 128, 40}} {
		a := randomDense(rng, dims[0], dims[1])
		b := randomDense(rng, dims[2], dims[1])
		got := MulABtWorkers(a, b, 0)
		want := naiveMul(a, b.T())
		if !got.Equal(want, 1e-10) {
			t.Fatalf("MulABt mismatch for dims %v", dims)
		}
	}
}

// TestMulABtBatchInvariant asserts the property the inference server's
// request coalescing depends on: stacking request rows into one product
// yields bit-identical rows to issuing each row alone, at any worker count.
func TestMulABtBatchInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := randomDense(rng, 48, 96)
	batch := randomDense(rng, 37, 96)
	full := MulABtWorkers(batch, b, 4)
	for i := 0; i < batch.Rows; i++ {
		one := MulABtWorkers(NewDenseData(1, batch.Cols, batch.Row(i)), b, 1)
		for j := 0; j < b.Rows; j++ {
			if full.At(i, j) != one.At(0, j) {
				t.Fatalf("row %d col %d: batch %v != solo %v", i, j, full.At(i, j), one.At(0, j))
			}
		}
	}
}

func TestMulABtShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MulABtWorkers(NewDense(2, 3), NewDense(2, 4), 0)
}

// TestMulShapePanic: MulABtTo refuses an output buffer of the wrong shape.
func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MulABtTo(NewDense(2, 3), NewDense(2, 4), NewDense(2, 4), 0)
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 20, 20)
	eye := NewDense(20, 20)
	for i := 0; i < 20; i++ {
		eye.Set(i, i, 1)
	}
	if !MulABtWorkers(a, eye, 0).Equal(a, 0) || !MulABtWorkers(eye, a.T(), 0).Equal(a, 0) {
		t.Fatal("multiplication by identity must be identity")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 33, 21)
	x := make([]float64, 21)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := MulVec(a, x)
	xm := NewDenseData(21, 1, x)
	want := naiveMul(a, xm)
	for i := range y {
		if math.Abs(y[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want.At(i, 0))
		}
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 40, 17)
	x := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := GramVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Aᵀx[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulTVecParallelPath(t *testing.T) {
	// A shape past the kernels' parallel gate, which the Aᵀx kernel once
	// split into per-worker partial sums; it is a single pass now.
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 300, 120)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := GramVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("Aᵀx[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAtAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range [][2]int{{5, 3}, {50, 20}, {200, 90}} {
		a := randomDense(rng, dims[0], dims[1])
		got := AtA(a)
		want := naiveMul(a.T(), a)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("AtA mismatch for dims %v", dims)
		}
		// Symmetry must be exact (mirrored, not recomputed).
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < got.Cols; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("AtA not exactly symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestDotAndNorms(t *testing.T) {
	x := []float64{3, -4, 0}
	y := []float64{1, 2, 5}
	if Dot(x, y) != -5 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm1(x) != 7 {
		t.Fatalf("Norm1 = %v", Norm1(x))
	}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %v", NormInf(x))
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) must be 0")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := Norm2(x)
	want := 1e300 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflow: got %v want %v", got, want)
	}
}

func TestAddSubAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	d := Sub(y, x)
	for i := range x {
		if d[i] != y[i]-x[i] {
			t.Fatal("Sub wrong")
		}
	}
	Axpy(y, 2, x)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("Axpy wrong: %v", y)
	}
	ScaleVec(x, -1)
	if x[1] != -2 {
		t.Fatalf("ScaleVec wrong: %v", x)
	}
}

// Property: (A·Bᵀ)·Cᵀ == A·(C·B)ᵀ for random small matrices, both sides
// products of MulABtWorkers.
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, q := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomDense(r, m, k)
		b := randomDense(r, n, k)
		c := randomDense(r, q, n)
		left := MulABtWorkers(MulABtWorkers(a, b, 0), c, 0)
		right := MulABtWorkers(a, MulABtWorkers(c, b.T(), 0), 0)
		return left.Equal(right, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is bilinear: (a·x)ᵀy == a·(xᵀy).
func TestDotLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a := r.NormFloat64()
		x := make([]float64, n)
		y := make([]float64, n)
		ax := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
			ax[i] = a * x[i]
		}
		return math.Abs(Dot(ax, y)-a*Dot(x, y)) < 1e-8*(1+math.Abs(a*Dot(x, y)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
