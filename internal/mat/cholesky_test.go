package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds AᵀA + I which is strictly positive definite.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n+3, n)
	return AddRidge(AtA(a), 1.0)
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 20, 64} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := NewDenseData(n, n, ch.l)
		recon := naiveMul(l, l.T())
		if !recon.Equal(a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L·Lᵀ != A", n)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 30
	a := randomSPD(rng, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := MulVec(a, xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("Solve[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	// b must be untouched by Solve.
	b2 := MulVec(a, xTrue)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("Solve must not modify b")
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPD {
		t.Fatalf("expected ErrNotPD, got %v", err)
	}
	if _, err := NewCholesky(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestAddRidge(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	r := AddRidge(a, 0.5)
	if r.At(0, 0) != 1.5 || r.At(1, 1) != 4.5 || r.At(0, 1) != 2 {
		t.Fatalf("AddRidge wrong: %v", r.Data)
	}
	if a.At(0, 0) != 1 {
		t.Fatal("AddRidge must not modify input")
	}
}

// Property: for random SPD systems, solving then multiplying recovers b.
func TestCholeskySolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(24)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.Solve(b)
		res := Sub(MulVec(a, x), b)
		return Norm2(res) <= 1e-7*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 50, 200, 300} {
		a := randomSPD(rng, n)
		blocked, err := NewCholeskyBlockedWorkers(a, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		plain, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.l {
			if math.Abs(blocked.l[i]-plain.l[i]) > 1e-8*(1+math.Abs(plain.l[i])) {
				t.Fatalf("n=%d: factor mismatch at %d: %v vs %v", n, i, blocked.l[i], plain.l[i])
			}
		}
		// Solve round trip.
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := MulVec(a, xTrue)
		x := blocked.Solve(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("n=%d: blocked solve off at %d", n, i)
			}
		}
	}
}

func TestCholeskyBlockedRejectsNonPD(t *testing.T) {
	n := 250
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	a.Set(n-1, n-1, -1) // indefinite in the last panel
	if _, err := NewCholeskyBlockedWorkers(a, 0); err != ErrNotPD {
		t.Fatalf("expected ErrNotPD, got %v", err)
	}
	if _, err := NewCholeskyBlockedWorkers(NewDense(3, 4), 0); err != ErrShape {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

// TestSolveSPDInPlaceIdentical: the in-place solve returns Solve's bits,
// leaves b alone on a matrix that is not positive definite, and rejects
// mismatched shapes.
func TestSolveSPDInPlaceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 7, 40} {
		a := randomSPD(rng, n)
		b := randomPanel(rng, 1, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want := ch.Solve(b)
		buf, got := append([]float64(nil), a.Data...), append([]float64(nil), b...)
		if err := SolveSPDInPlace(buf, n, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("n=%d: entry %d is %v, Solve has %v", n, i, got[i], want[i])
		}
	}
	b := []float64{1, 2}
	if err := SolveSPDInPlace([]float64{1, 2, 2, 1}, 2, b); err != ErrNotPD || b[0] != 1 || b[1] != 2 {
		t.Fatalf("indefinite: err = %v, b = %v; want ErrNotPD and b untouched", err, b)
	}
	if err := SolveSPDInPlace(make([]float64, 3), 2, b); err != ErrShape {
		t.Fatalf("short matrix: err = %v, want ErrShape", err)
	}
}
