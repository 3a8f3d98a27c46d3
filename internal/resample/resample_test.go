package resample

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds too correlated: %d collisions", same)
	}
}

func TestDeriveIndependentAndStateless(t *testing.T) {
	root := NewRNG(7)
	s1a := root.Derive(1)
	s1b := root.Derive(1)
	s2 := root.Derive(2)
	v1a, v1b, v2 := s1a.Uint64(), s1b.Uint64(), s2.Uint64()
	if v1a != v1b {
		t.Fatal("Derive must be stateless/reproducible")
	}
	if v1a == v2 {
		t.Fatal("different streams must differ")
	}
	// Deriving must not advance the root.
	r2 := NewRNG(7)
	if root.Uint64() != r2.Uint64() {
		t.Fatal("Derive advanced the parent state")
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("Intn(5) badly skewed: counts[%d] = %d", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.06 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(4)
	for _, n := range []int{1, 2, 10, 100} {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBootstrapProperties(t *testing.T) {
	r := NewRNG(5)
	n := 200
	idx := Bootstrap(r, n)
	if len(idx) != n {
		t.Fatalf("len = %d", len(idx))
	}
	distinct := map[int]bool{}
	for _, v := range idx {
		if v < 0 || v >= n {
			t.Fatalf("index out of range: %d", v)
		}
		distinct[v] = true
	}
	// Expected distinct fraction ≈ 1 - 1/e ≈ 0.632.
	frac := float64(len(distinct)) / float64(n)
	if frac < 0.5 || frac > 0.75 {
		t.Fatalf("distinct fraction %v implausible for with-replacement sampling", frac)
	}
	// Multiplicities is the same draw as (ascending distinct rows, counts).
	rows, counts := Multiplicities(idx, n)
	if len(rows) != len(distinct) || len(counts) != len(rows) {
		t.Fatalf("Multiplicities: %d rows, %d counts, want %d", len(rows), len(counts), len(distinct))
	}
	total := 0.0
	for i, v := range rows {
		if i > 0 && v <= rows[i-1] {
			t.Fatalf("Multiplicities rows not ascending at %d", i)
		}
		want := 0
		for _, d := range idx {
			if d == v {
				want++
			}
		}
		if counts[i] != float64(want) {
			t.Fatalf("row %d drawn %d times, count %v", v, want, counts[i])
		}
		total += counts[i]
	}
	if total != float64(n) {
		t.Fatalf("counts sum to %v, want %d", total, n)
	}
}

func TestTrainEvalSplit(t *testing.T) {
	r := NewRNG(6)
	train, eval := TrainEvalSplit(r, 100, 0.8)
	if len(train) != 80 || len(eval) != 20 {
		t.Fatalf("split sizes %d/%d", len(train), len(eval))
	}
	seen := make([]bool, 100)
	for _, v := range append(append([]int{}, train...), eval...) {
		if seen[v] {
			t.Fatalf("index %d duplicated across split", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from split", i)
		}
	}
}

func TestTrainEvalSplitExtremeFracsClamped(t *testing.T) {
	r := NewRNG(7)
	train, eval := TrainEvalSplit(r, 3, 0.99)
	if len(train) == 0 || len(eval) == 0 {
		t.Fatal("both sides must be nonempty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("frac=1 must panic")
		}
	}()
	TrainEvalSplit(r, 10, 1.0)
}

func TestMovingBlockBootstrapContiguity(t *testing.T) {
	r := NewRNG(8)
	n, bl := 120, 10
	idx := MovingBlockBootstrap(r, n, bl)
	if len(idx) != n {
		t.Fatalf("len = %d", len(idx))
	}
	// Within each full block the indices must be consecutive.
	for b := 0; b+bl <= n; b += bl {
		for j := 1; j < bl; j++ {
			if idx[b+j] != idx[b]+j {
				t.Fatalf("block at %d not contiguous: %v", b, idx[b:b+bl])
			}
		}
		if idx[b] < 0 || idx[b]+bl > n {
			t.Fatalf("block start %d out of range", idx[b])
		}
	}
}

func TestBlockLongerThanSeriesClamps(t *testing.T) {
	r := NewRNG(10)
	idx := MovingBlockBootstrap(r, 5, 50)
	if len(idx) != 5 {
		t.Fatalf("len = %d", len(idx))
	}
	for j, v := range idx {
		if v != j {
			t.Fatalf("clamped block must be the whole series, got %v", idx)
		}
	}
}

func TestBlockTrainEvalSplit(t *testing.T) {
	r := NewRNG(11)
	n, bl := 100, 10
	train, eval := BlockTrainEvalSplit(r, n, bl, 0.8)
	if len(train)+len(eval) != n {
		t.Fatalf("sizes %d + %d != %d", len(train), len(eval), n)
	}
	if len(train) != 80 {
		t.Fatalf("train size %d, want 80", len(train))
	}
	// Whole blocks must stay together: block membership of consecutive
	// training indices changes only at block boundaries.
	blockOf := func(i int) int { return i / bl }
	inTrain := map[int]bool{}
	for _, i := range train {
		inTrain[blockOf(i)] = true
	}
	for _, i := range eval {
		if inTrain[blockOf(i)] {
			t.Fatalf("block %d split across train and eval", blockOf(i))
		}
	}
}

// Property: bootstrap samples from derived streams are reproducible.
func TestBootstrapReproducibilityProperty(t *testing.T) {
	f := func(seed uint64, stream uint64) bool {
		root1 := NewRNG(seed)
		root2 := NewRNG(seed)
		a := Bootstrap(root1.Derive(stream), 37)
		b := Bootstrap(root2.Derive(stream), 37)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBootstrapPanics(t *testing.T) {
	r := NewRNG(13)
	for name, f := range map[string]func(){
		"moving-n":       func() { MovingBlockBootstrap(r, 0, 3) },
		"moving-block":   func() { MovingBlockBootstrap(r, 10, 0) },
		"split-block":    func() { BlockTrainEvalSplit(r, 10, 0, 0.8) },
		"split-frac":     func() { BlockTrainEvalSplit(r, 10, 2, 1.5) },
		"split-oneblock": func() { BlockTrainEvalSplit(r, 4, 4, 0.5) },
		"bootstrap-n":    func() { Bootstrap(r, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}
