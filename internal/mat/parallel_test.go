package mat

import (
	"math"
	"sync"
	"testing"

	"uoivar/internal/trace"
)

func randDense(rows, cols int, seed uint64) *Dense {
	d := NewDense(rows, cols)
	s := seed
	for i := range d.Data {
		// xorshift64*: deterministic without pulling in resample (import cycle).
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		d.Data[i] = float64(int64(s*0x2545F4914F6CDD1D)>>40) / (1 << 23)
	}
	return d
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestMulWorkersMatchesSerial checks that every worker budget computes the
// same product bit for bit — the parallel split is a pure partition of the
// output rows. The shape is above the flop gate, so the split happens.
func TestMulWorkersMatchesSerial(t *testing.T) {
	a := randDense(37, 530, 1)
	b := randDense(61, 530, 2)
	if m, n, k := 37, 61, 530; m*n*k < gemmParallelFlops {
		t.Fatalf("test shape below the flop gate (%d < %d)", m*n*k, gemmParallelFlops)
	}
	want := MulABtWorkers(a, b, 1)
	for _, w := range []int{0, 2, 3, 8} {
		if i, ok := bitsEqual(MulABtWorkers(a, b, w).Data, want.Data); !ok {
			t.Fatalf("workers=%d: entry %d differs in bits", w, i)
		}
	}
}

// TestGemmFlopGateTallSkinny is the regression for the inner-dimension bug:
// a gate on output rows alone never parallelizes a tall-skinny product
// (tiny m·n, huge k). The gate scores m·n·k flops, so this shape must
// engage the worker pool.
func TestGemmFlopGateTallSkinny(t *testing.T) {
	// m·n = 4·64 output cells, but m·n·k = 4·64·8192 = 2^21 flops ≥ gate.
	a := randDense(4, 8192, 3)
	b := randDense(64, 8192, 4)
	if m, n, k := 4, 64, 8192; m*n*k < gemmParallelFlops {
		t.Fatalf("test shape below the flop gate (%d < %d)", m*n*k, gemmParallelFlops)
	}
	ResetPeakWorkers()
	got := MulABtWorkers(a, b, 4)
	if peak := PeakWorkers(); peak < 2 {
		t.Fatalf("tall-skinny product ran with peak %d workers, want >= 2 (flop gate ignored k?)", peak)
	}
	want := MulABtWorkers(a, b, 1)
	if i, ok := bitsEqual(want.Data, got.Data); !ok {
		t.Fatalf("parallel tall-skinny product: entry %d differs in bits", i)
	}
}

// TestGemmFlopGateSmallStaysSerial: a product with few total flops must not
// spawn workers no matter the budget — goroutine overhead would dominate.
func TestGemmFlopGateSmallStaysSerial(t *testing.T) {
	a := randDense(64, 8, 5)
	b := randDense(8, 8, 6)
	if m, n, k := 64, 8, 8; m*n*k >= gemmParallelFlops {
		t.Fatalf("test shape unexpectedly above the flop gate")
	}
	ResetPeakWorkers()
	MulABtWorkers(a, b, 8)
	if peak := PeakWorkers(); peak > 1 {
		t.Fatalf("small product spawned %d workers, want serial", peak)
	}
}

// TestWorkerBudgetUnderConcurrentStreams is the oversubscription regression:
// R concurrent execution streams (rank goroutines) each given an explicit
// per-call budget w must never run more than R·w kernel workers at once.
// Under the old package-global Workers setting each stream spawned a full
// GOMAXPROCS set, giving R·GOMAXPROCS.
func TestWorkerBudgetUnderConcurrentStreams(t *testing.T) {
	const ranks, budget = 4, 2
	a := randDense(8, 8192, 7)
	b := randDense(64, 8192, 8)
	x := randDense(2048, 96, 9)
	ResetPeakWorkers()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				MulABtWorkers(a, b, budget)
				AtAWorkers(x, budget)
				AtVecWorkers(x, make([]float64, 2048), budget)
			}
		}()
	}
	wg.Wait()
	if peak := PeakWorkers(); peak > ranks*budget {
		t.Fatalf("peak kernel workers %d exceeds budget %d ranks x %d = %d",
			peak, ranks, budget, ranks*budget)
	}
}

// bitsEqual reports the first index at which a and b differ in their bits.
func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestAtAWorkersMatchesSerial pins the kernel-determinism contract for the
// Gram: workers own bands of output rows, so every budget accumulates each
// entry in input-row order and the bits equal the one-worker result — at
// widths that are not a multiple of the band, narrower than one band, with
// more workers than bands or rows, and with zeros in the input.
func TestAtAWorkersMatchesSerial(t *testing.T) {
	for _, shape := range [][2]int{{300, 64}, {257, 61}, {3000, 5}, {40, 21}, {2, 100}} {
		x := randDense(shape[0], shape[1], 10)
		for i := 0; i < len(x.Data); i += 7 {
			x.Data[i] = 0
		}
		want := AtAWorkers(x, 1)
		// The one-worker result is the plain row-order sum.
		p := x.Cols
		ref := make([]float64, p*p)
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			for j := 0; j < p; j++ {
				for k := 0; k < p; k++ {
					ref[j*p+k] += row[j] * row[k]
				}
			}
		}
		if d := maxAbsDiff(want.Data, ref); d > 1e-9 {
			t.Fatalf("%v: Gram off by %g", shape, d)
		}
		for _, w := range []int{0, 2, 3, 5, 8, 64} {
			if i, ok := bitsEqual(AtAWorkers(x, w).Data, want.Data); !ok {
				t.Fatalf("%v workers=%d: entry %d differs in bits from the one-worker Gram", shape, w, i)
			}
		}
	}
}

func TestVecWorkersMatchSerial(t *testing.T) {
	x := randDense(700, 48, 11)
	v := make([]float64, 48)
	u := make([]float64, 700)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	for i := range u {
		u[i] = float64(i%5) - 2
	}
	for _, w := range []int{0, 2, 3, 4, 64} {
		if i, ok := bitsEqual(MulVecWorkers(x, v, w), MulVecWorkers(x, v, 1)); !ok {
			t.Fatalf("MulVec workers=%d: entry %d differs in bits", w, i)
		}
		// Aᵀu is a single pass in row order whatever the budget.
		if i, ok := bitsEqual(AtVecWorkers(x, u, w), AtVecWorkers(x, u, 1)); !ok {
			t.Fatalf("AtVec workers=%d: entry %d differs in bits", w, i)
		}
	}
	want := make([]float64, 48)
	for i := 0; i < 700; i++ {
		for j := range want {
			want[j] += u[i] * x.At(i, j)
		}
	}
	if d := maxAbsDiff(AtVecWorkers(x, u, 3), want); d > 1e-9 {
		t.Fatalf("AtVec off by %g", d)
	}
}

// TestKernelTracer checks the process-wide tracer hook records the kernel
// spans and the worker gauge, and that removal stops recording.
func TestKernelTracer(t *testing.T) {
	tr := trace.New()
	SetTracer(tr)
	defer SetTracer(nil)

	a := randDense(4, 8192, 12)
	b := randDense(64, 8192, 13)
	MulABtWorkers(a, b, 2)
	x := randDense(256, 32, 14)
	AtAWorkers(x, 2)
	MulVecWorkers(x, make([]float64, 32), 1)
	// The blocked path (and its span) only engages above 2x the panel size.
	big := randDense(300, 256, 15)
	spd := AddRidge(AtA(big), 1)
	if _, err := NewCholeskyBlockedWorkers(spd, 0); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"mat/gemm_abt", "mat/ata", "mat/gemv", "mat/chol"} {
		if got := tr.PhaseSeconds(name); got <= 0 {
			found := false
			for _, p := range tr.Phases() {
				if p.Name == name && p.Count > 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("kernel span %q not recorded", name)
			}
		}
	}
	if got := tr.Max("mat/workers"); got < 2 {
		t.Fatalf("mat/workers gauge = %d, want >= 2", got)
	}

	SetTracer(nil)
	before := len(tr.Phases())
	MulABtWorkers(a, b, 2)
	if after := len(tr.Phases()); after != before {
		t.Fatal("kernel recorded spans after SetTracer(nil)")
	}
}

// BenchmarkGemmTallSkinny documents the flop gate's win: the serial
// variant is what a tall-skinny product gets from a gate that ignores k.
func BenchmarkGemmTallSkinny(b *testing.B) {
	a := randDense(8, 8192, 20)
	c := randDense(64, 8192, 21)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulABtWorkers(a, c, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulABtWorkers(a, c, 0)
		}
	})
}
