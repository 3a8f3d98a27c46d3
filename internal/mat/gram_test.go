package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gramAxpy is the kernel GramWorkers replaced, kept as the oracle: one axpy
// of the row's tail per nonzero entry, rows in order. On finite input it
// sums every c[j][k] in the same order as the tiled kernel, so the two must
// agree in bits.
func gramAxpy(a *Dense) *Dense {
	p := a.Cols
	c := NewDense(p, p)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			if v == 0 {
				continue
			}
			axpy(c.Data[j*p+j:(j+1)*p], v, row[j:])
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			c.Data[j*p+i] = c.Data[i*p+j]
		}
	}
	return c
}

// drawRows is a repeated, unsorted row list of length n over [0, rows).
func drawRows(rows, n int, seed uint64) []int {
	idx := make([]int, n)
	s := seed | 1
	for i := range idx {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		idx[i] = int((s * 0x2545F4914F6CDD1D >> 33) % uint64(rows))
	}
	return idx
}

// multiplicities turns a draw into ascending distinct rows and their counts.
func multiplicities(rows int, idx []int) ([]int, []float64) {
	count := make([]float64, rows)
	for _, i := range idx {
		count[i]++
	}
	var distinct []int
	var w []float64
	for i, c := range count {
		if c > 0 {
			distinct, w = append(distinct, i), append(w, c)
		}
	}
	return distinct, w
}

var gramWidths = []int{1, 2, 3, 5, 7, 8, 9, 61, 161, 256}

// TestGramUnitWeightsIdentical: the tiled kernel equals the axpy kernel in
// bits on every width, and a repeated, unsorted row list with unit weights
// equals AtAWorkers of the gathered rows.
func TestGramUnitWeightsIdentical(t *testing.T) {
	for _, p := range gramWidths {
		x := randDense(150, p, uint64(p))
		for i := 0; i < len(x.Data); i += 7 {
			x.Data[i] = 0
		}
		if i, ok := bitsEqual(AtAWorkers(x, 2).Data, gramAxpy(x).Data); !ok {
			t.Fatalf("p=%d: entry %d differs in bits from the axpy kernel", p, i)
		}
		idx := drawRows(x.Rows, 200, 3)
		got := GramWorkers(x, Sample{Rows: idx}, 2)
		if i, ok := bitsEqual(got.Data, AtAWorkers(x.SelectRows(idx), 2).Data); !ok {
			t.Fatalf("p=%d: entry %d differs in bits from the gathered Gram", p, i)
		}
	}
}

// TestGramWeightsMatchGatheredIdentical: multiplicity weights over the
// distinct rows agree with the Gram of the gathered draw to rounding, at
// every budget in the same bits, and GramVec likewise with the gathered Xᵀy.
func TestGramWeightsMatchGatheredIdentical(t *testing.T) {
	for _, p := range gramWidths {
		x := randDense(300, p, uint64(100+p))
		y := randDense(300, 1, 5).Data
		idx := drawRows(x.Rows, 300, 9)
		rows, w := multiplicities(x.Rows, idx)
		s := Sample{Rows: rows, Weights: w}
		want := AtAWorkers(x.SelectRows(idx), 1)
		got := GramWorkers(x, s, 1)
		scale := NormInf(want.Data)
		if d := maxAbsDiff(got.Data, want.Data); d > 1e-12*scale {
			t.Fatalf("p=%d: weighted Gram off by %g (scale %g)", p, d, scale)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("p=%d: not symmetric at (%d,%d)", p, i, j)
				}
			}
		}
		for _, budget := range []int{2, 3, 8} {
			if i, ok := bitsEqual(GramWorkers(x, s, budget).Data, got.Data); !ok {
				t.Fatalf("p=%d workers=%d: entry %d differs in bits from one worker", p, budget, i)
			}
		}
		yb := make([]float64, len(idx))
		for i, r := range idx {
			yb[i] = y[r]
		}
		wantV := GramVec(x.SelectRows(idx), yb, Sample{})
		if d := maxAbsDiff(GramVec(x, y, s), wantV); d > 1e-12*NormInf(wantV) {
			t.Fatalf("p=%d: weighted Xᵀy off by %g", p, d)
		}
	}
}

// TestGramRowCountsIdentical crosses the chunk edge: 0, 1, chunk−1, chunk
// and chunk+1 summed rows, weighted and not.
func TestGramRowCountsIdentical(t *testing.T) {
	x := randDense(gramChunk+1, 13, 21)
	w := make([]float64, x.Rows)
	for i := range w {
		w[i] = float64(1 + i%3)
	}
	for _, n := range []int{0, 1, gramChunk - 1, gramChunk, gramChunk + 1} {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		sub := x.SubRows(0, n)
		if i, ok := bitsEqual(GramWorkers(x, Sample{Rows: rows}, 2).Data, gramAxpy(sub).Data); !ok {
			t.Fatalf("n=%d: entry %d differs in bits from the axpy kernel", n, i)
		}
		// Σ wᵢ·xᵢxᵢᵀ is the Gram of the rows scaled by √wᵢ, to rounding.
		scaled := sub.Clone()
		for i := 0; i < n; i++ {
			ScaleVec(scaled.Row(i), math.Sqrt(w[i]))
		}
		got := GramWorkers(x, Sample{Rows: rows, Weights: w[:n]}, 3)
		if d := maxAbsDiff(got.Data, gramAxpy(scaled).Data); d > 1e-12*(1+NormInf(got.Data)) {
			t.Fatalf("n=%d: weighted Gram off by %g", n, d)
		}
	}
}

// TestGramColumnSubsetIdentical: an ascending column subset is bitwise the
// sub-block of the full Gram, weights or not, and GramVec the sub-vector.
func TestGramColumnSubsetIdentical(t *testing.T) {
	x := randDense(200, 37, 31)
	y := randDense(200, 1, 6).Data
	rows, w := multiplicities(x.Rows, drawRows(x.Rows, 200, 4))
	cols := []int{0, 3, 4, 9, 10, 11, 12, 20, 21, 30, 36}
	for _, s := range []Sample{{}, {Rows: rows, Weights: w}} {
		full := GramWorkers(x, s, 2)
		fullV := GramVec(x, y, s)
		s.Cols = cols
		sub := GramWorkers(x, s, 3)
		subV := GramVec(x, y, s)
		for a, ja := range cols {
			if math.Float64bits(subV[a]) != math.Float64bits(fullV[ja]) {
				t.Fatalf("Xᵀy entry %d differs in bits from the full vector's", a)
			}
			for b, jb := range cols {
				if math.Float64bits(sub.At(a, b)) != math.Float64bits(full.At(ja, jb)) {
					t.Fatalf("entry (%d,%d) differs in bits from the full Gram's (%d,%d)", a, b, ja, jb)
				}
			}
		}
	}
}

// TestGramNonFiniteIdentical: a non-finite input row must poison the Gram.
// The axpy kernel skipped zero entries, which hid 0·Inf.
func TestGramNonFiniteIdentical(t *testing.T) {
	x := randDense(20, 6, 41)
	x.Set(7, 2, 0)
	x.Set(7, 4, math.Inf(1))
	g := AtAWorkers(x, 2)
	if v := g.At(2, 4); !math.IsNaN(v) {
		t.Fatalf("0·Inf entry = %v, want NaN", v)
	}
	if v := g.At(4, 4); !math.IsInf(v, 1) {
		t.Fatalf("Inf² entry = %v, want +Inf", v)
	}
}

// sameBitsOrNaN is bitsEqual with every NaN equal to every other: which
// operand's payload a NaN result carries is not part of the contract.
func sameBitsOrNaN(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestGramKernelsIdentical: the AVX2 kernel and the portable one return the
// same Float64bits across the chunk edge (n = 63, 64, 65), widths below, at
// and past one 8-column tile, for all rows, a repeated row list, weights with
// zeros, ascending and non-ascending column subsets, at budgets 1/2/3; and a
// NaN or an Inf input row yields the same non-finite entries. Both kernels
// run in this binary: the test passes the choice to gram, so no package
// state is switched under other tests.
func TestGramKernelsIdentical(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 Gram kernel in this build or on this CPU: only the portable kernel runs")
	}
	for _, n := range []int{1, 63, 64, 65, 767, 8192} {
		for _, p := range []int{1, 3, 7, 8, 9, 41, 161, 256} {
			// Above 2²⁴ madds a shape runs three samples at one budget, and
			// not at all under -short (the race run).
			big := n*p*p > 1<<24
			if big && testing.Short() {
				continue
			}
			x := randDense(n, p, uint64(1000*n+p))
			rows := drawRows(n, n+n/2, uint64(p))
			distinct, counts := multiplicities(n, rows)
			for i := 0; i < len(counts); i += 4 {
				counts[i] = 0
			}
			w := make([]float64, len(rows))
			for i := range w {
				w[i] = float64(i % 3)
			}
			var asc, desc []int
			for j := 0; j < p; j++ {
				if j%3 != 1 {
					asc = append(asc, j)
				}
				desc = append(desc, p-1-j)
			}
			samples := []Sample{
				{},
				{Rows: distinct, Weights: counts},
				{Rows: rows, Weights: w, Cols: desc},
				{Rows: rows},
				{Cols: asc},
			}
			budgets := []int{1, 2, 3}
			if big {
				samples, budgets = samples[:3], []int{2}
			}
			for si, s := range samples {
				for _, b := range budgets {
					if i, ok := bitsEqual(gram(x, s, b, true).Data, gram(x, s, b, false).Data); !ok {
						t.Fatalf("n=%d p=%d sample %d workers=%d: entry %d differs in bits between the AVX2 and portable kernels", n, p, si, b, i)
					}
				}
			}
			if big {
				continue
			}
			bad := x.Clone()
			bad.Set(n/2, p/2, math.NaN())
			bad.Set(n-1, 0, math.Inf(-1))
			for si, s := range samples[:3] {
				if i, ok := sameBitsOrNaN(gram(bad, s, 2, true).Data, gram(bad, s, 2, false).Data); !ok {
					t.Fatalf("n=%d p=%d non-finite sample %d: entry %d differs between the AVX2 and portable kernels", n, p, si, i)
				}
			}
		}
	}
}

// TestMulAtBIdenticalToGramVec: every column of MulAtB(X, Y) is GramVec of
// X with that column of Y, Float64bits for Float64bits, under both tile
// kernels — for q mod 4 = 0…3 design columns, p mod 8 = 0…7 response
// columns (so every mix of whole tiles and edges), n = 0, 1, 7 and 600
// rows, and a VAR lag design with a trailing intercept column.
func TestMulAtBIdenticalToGramVec(t *testing.T) {
	kernels := []bool{false}
	if hasAVX2 {
		kernels = append(kernels, true)
	}
	check := func(name string, x, y *Dense) {
		t.Helper()
		col := make([]float64, y.Rows)
		for _, avx2 := range kernels {
			got := mulAtB(x, y, avx2)
			if got.Rows != x.Cols || got.Cols != y.Cols {
				t.Fatalf("%s avx2=%v: result is %d×%d, want %d×%d", name, avx2, got.Rows, got.Cols, x.Cols, y.Cols)
			}
			gotCol := make([]float64, x.Cols)
			for e := 0; e < y.Cols; e++ {
				want := GramVec(x, y.Col(e, col), Sample{})
				got.Col(e, gotCol)
				if i, ok := bitsEqual(gotCol, want); !ok {
					t.Fatalf("%s avx2=%v column %d: entry %d is %v, GramVec has %v", name, avx2, e, i, gotCol[i], want[i])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 7, 600} {
		for q := 1; q <= 12; q++ {
			for p := 1; p <= 17; p++ {
				check(fmt.Sprintf("n=%d q=%d p=%d", n, q, p), randomDense(rng, n, q), randomDense(rng, n, p))
			}
		}
	}
	// An order-2 lag design of a 6-series process with an intercept: row i
	// targets time t = i+2, X row = [x_{t−1}, x_{t−2}, 1], Y row = x_t.
	const series, order, steps = 6, 2, 300
	z := randomDense(rng, steps, series)
	for t := 1; t < steps; t++ {
		for j := 0; j < series; j++ {
			z.Data[t*series+j] += 0.5 * z.Data[(t-1)*series+(j+1)%series]
		}
	}
	m := steps - order
	x, y := NewDense(m, order*series+1), NewDense(m, series)
	for i := 0; i < m; i++ {
		copy(y.Row(i), z.Row(i+order))
		for l := 1; l <= order; l++ {
			copy(x.Row(i)[(l-1)*series:l*series], z.Row(i+order-l))
		}
		x.Set(i, order*series, 1)
	}
	check("VAR design", x, y)
}

// BenchmarkGram times the Gram kernel at the shapes the repository benchmark
// runs: lasso_tall's full and bootstrap-weighted 8192×256, dist_mix's local
// 4096×161, and the two VAR designs the kernel must not slow (600×61,
// 768×41). GFLOP/s counts rows·p² like the bench's mat.ata_gflops.
func BenchmarkGram(b *testing.B) {
	for _, bc := range []struct {
		n, p     int
		weighted bool
	}{{8192, 256, false}, {8192, 256, true}, {4096, 161, false}, {4096, 161, true}, {600, 61, false}, {768, 41, false}} {
		x := randDense(bc.n, bc.p, 7)
		var s Sample
		name := fmt.Sprintf("%dx%d", bc.n, bc.p)
		if bc.weighted {
			s.Rows, s.Weights = multiplicities(bc.n, drawRows(bc.n, bc.n, 11))
			name += "-bootstrap"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GramWorkers(x, s, 2)
			}
			flops := float64(bc.n) * float64(bc.p) * float64(bc.p)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
