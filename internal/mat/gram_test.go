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

// tileWidths split a vector sweep's bands into every mix of 8×16, 8×8 and
// padded tiles: one or two columns short of, at and one past 16, 24 and 32
// columns, and two odd widths past 40.
var tileWidths = []int{15, 16, 17, 23, 24, 25, 31, 33, 47, 49}

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
// every budget in the same bits, and Stats' Xᵀy likewise with the gathered
// Xᵀy.
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
		wantV := GramVec(x.SelectRows(idx), yb)
		_, xty := Stats(x, NewDenseData(len(y), 1, y), s, 2)
		if d := maxAbsDiff(xty.Data, wantV); d > 1e-12*NormInf(wantV) {
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
// sub-block of the full Gram, weights or not, and Stats' Xᵀy the
// sub-vector.
func TestGramColumnSubsetIdentical(t *testing.T) {
	x := randDense(200, 37, 31)
	y := randDense(200, 1, 6)
	rows, w := multiplicities(x.Rows, drawRows(x.Rows, 200, 4))
	cols := []int{0, 3, 4, 9, 10, 11, 12, 20, 21, 30, 36}
	for _, s := range []Sample{{}, {Rows: rows, Weights: w}} {
		full, fullV := Stats(x, y, s, 2)
		s.Cols = cols
		sub, subV := Stats(x, y, s, 3)
		for a, ja := range cols {
			if math.Float64bits(subV.Data[a]) != math.Float64bits(fullV.Data[ja]) {
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
// The axpy kernel skipped zero entries, which hid 0·Inf. At width 13 a
// vector sweep pads X to 16 columns, and the Inf sits in the last real
// column, next to the padding: its Inf·0 = NaN scratch lanes must reach no
// real entry, so every entry off the Inf's row and column stays finite, at
// budgets 1 and 2, weighted or not, in the portable kernel's bits.
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
	const p, bad = 13, 12
	x = randDense(70, p, 43)
	x.Set(66, 3, 0)
	x.Set(66, bad, math.Inf(1))
	for _, s := range []Sample{{}, {Weights: drawWeights(x.Rows)}} {
		for _, budget := range []int{1, 2} {
			g := GramWorkers(x, s, budget)
			if v := g.At(3, bad); !math.IsNaN(v) {
				t.Fatalf("workers=%d: 0·Inf entry = %v, want NaN", budget, v)
			}
			for j := 0; j < bad; j++ {
				for k := 0; k < bad; k++ {
					if v := g.At(j, k); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("workers=%d: entry (%d,%d) = %v away from the Inf column", budget, j, k, v)
					}
				}
			}
			if i, ok := sameBitsOrNaN(g.Data, gram(x, s, budget, portable).Data); !ok {
				t.Fatalf("workers=%d: entry %d differs from the portable kernel's", budget, i)
			}
		}
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

// TestGramKernelsIdentical: every vector kernel family (AVX2, AVX-512) and
// the portable one return the same Float64bits across the chunk edge (n =
// 63, 64, 65), widths below, at and past one 8-column tile and band and
// every split of a band into 8×16, 8×8 and padded tiles (tileWidths), for
// all rows, a repeated row list, weights with zeros, ascending and
// non-ascending column subsets, at budgets 1/2/3; and a NaN or an Inf input
// row yields the same non-finite entries. Every family runs in this binary:
// the test passes the choice to gram, so no package state is switched under
// other tests.
func TestGramKernelsIdentical(t *testing.T) {
	kernels := hostKernels(t)[1:]
	if len(kernels) == 0 {
		t.Skip("no vector Gram kernel in this build or on this CPU: only the portable kernel runs")
	}
	for _, n := range []int{1, 63, 64, 65, 767, 8192} {
		for _, p := range append([]int{1, 3, 7, 8, 9, 41, 161, 256}, tileWidths...) {
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
					want := gram(x, s, b, portable).Data
					for _, k := range kernels {
						if i, ok := bitsEqual(gram(x, s, b, k).Data, want); !ok {
							t.Fatalf("n=%d p=%d sample %d workers=%d: entry %d differs in bits between the %s and portable kernels", n, p, si, b, i, k)
						}
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
				want := gram(bad, s, 2, portable).Data
				for _, k := range kernels {
					if i, ok := sameBitsOrNaN(gram(bad, s, 2, k).Data, want); !ok {
						t.Fatalf("n=%d p=%d non-finite sample %d: entry %d differs between the %s and portable kernels", n, p, si, i, k)
					}
				}
			}
		}
	}
}

// TestGramTile8x16Identical: one 8×16 AVX-512 tile is, Float64bits for
// Float64bits, the two 8×8 tiles of its column halves — over unequal
// leading dimensions, row counts 1 to past a chunk, and operands with NaN
// and ±Inf entries — and writes nothing outside its block.
func TestGramTile8x16Identical(t *testing.T) {
	if best < avx512 {
		t.Skip("no avx512 kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(16))
	const ldc, ldw, ldx = 19, 11, 21
	for _, m := range []int{1, 2, 7, 64, 130} {
		w, x := randomPanel(rng, m, ldw), randomPanel(rng, m, ldx)
		c := randomPanel(rng, 8, ldc)
		for _, bad := range []bool{false, true} {
			if bad {
				w[(m-1)*ldw+5], x[(m/2)*ldx+3], x[(m-1)*ldx+12] = math.NaN(), math.Inf(1), math.Inf(-1)
			}
			got, want := append([]float64(nil), c...), append([]float64(nil), c...)
			gramTile8x16(&got[0], ldc, &w[0], ldw, &x[0], ldx, m)
			tile8(want, ldc, w, ldw, x, ldx, m, avx512)
			tile8(want[8:], ldc, w, ldw, x[8:], ldx, m, avx512)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("m=%d non-finite=%v: entry (%d,%d) is %v, the 8×8 tiles give %v", m, bad, i/ldc, i%ldc, got[i], want[i])
			}
		}
	}
}

// TestMulAtBIdenticalToGramVec: every column of MulAtB(X, Y) is GramVec of
// X with that column of Y, Float64bits for Float64bits, under every kernel
// family of this host — for q mod 4 = 0…3 design columns (q ≥ 8 takes 8-row
// tiles), p mod 8 = 0…7 response
// columns (so every mix of whole tiles and edges), n = 0, 1, 7 and 600
// rows, and a VAR lag design with a trailing intercept column.
func TestMulAtBIdenticalToGramVec(t *testing.T) {
	kernels := hostKernels(t)
	check := func(name string, x, y *Dense) {
		t.Helper()
		col := make([]float64, y.Rows)
		for _, k := range kernels {
			got := mulAtB(x, y, k)
			if got.Rows != x.Cols || got.Cols != y.Cols {
				t.Fatalf("%s %s: result is %d×%d, want %d×%d", name, k, got.Rows, got.Cols, x.Cols, y.Cols)
			}
			gotCol := make([]float64, x.Cols)
			for e := 0; e < y.Cols; e++ {
				want := GramVec(x, y.Col(e, col))
				got.Col(e, gotCol)
				if i, ok := bitsEqual(gotCol, want); !ok {
					t.Fatalf("%s %s column %d: entry %d is %v, GramVec has %v", name, k, e, i, gotCol[i], want[i])
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

// TestMulAtBSampleIdentical: Stats' XᵀY over a sample — repeated, unsorted
// rows, per-row weights, a column subset, or none of them — is, under every
// kernel family of this host and at budgets 1 and 3, Float64bits for
// Float64bits MulAtB of the gathered rows (with the weights folded into B
// as w·b) and, column by column, the per-column Xᵀy oracle over the same
// sample. Empty samples give zeros of the sample's shape.
func TestMulAtBSampleIdentical(t *testing.T) {
	kernels := hostKernels(t)
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 7, 130, 600} {
		for _, shape := range [][2]int{{1, 1}, {3, 2}, {9, 8}, {12, 17}, {61, 60}} {
			q, p := shape[0], shape[1]
			a, b := randomDense(rng, n, q), randomDense(rng, n, p)
			rows := drawRows(n, n+n/3, uint64(n*q+p))
			distinct, w := multiplicities(n, rows)
			cols := []int{q - 1}
			for j := 0; j < q-1; j += 2 {
				cols = append(cols, j)
			}
			for _, sc := range []struct {
				name string
				s    Sample
			}{
				{"all", Sample{}},
				{"repeats", Sample{Rows: rows}},
				{"weights", Sample{Rows: distinct, Weights: w}},
				{"all-weighted", Sample{Weights: drawWeights(n)}},
				{"cols", Sample{Cols: cols}},
				{"repeats-cols", Sample{Rows: rows, Cols: cols}},
				{"weights-cols", Sample{Rows: distinct, Weights: w, Cols: cols}},
				{"no-rows", Sample{Rows: []int{}}},
				{"no-cols", Sample{Rows: rows, Cols: []int{}}},
			} {
				name := fmt.Sprintf("n=%d q=%d p=%d %s", n, q, p, sc.name)
				ga, gb := gatherSample(a, b, sc.s)
				col := make([]float64, n)
				for _, k := range kernels {
					for _, budget := range []int{1, 3} {
						_, got := stats(a, b, sc.s, budget, k)
						if got.Rows != ga.Cols || got.Cols != p {
							t.Fatalf("%s %s: result is %d×%d, want %d×%d", name, k, got.Rows, got.Cols, ga.Cols, p)
						}
						if i, ok := bitsEqual(got.Data, mulAtB(ga, gb, k).Data); !ok {
							t.Fatalf("%s %s workers=%d: entry %d differs from MulAtB of the gathered rows", name, k, budget, i)
						}
						gotCol := make([]float64, got.Rows)
						for e := 0; e < p; e++ {
							want := gramVecSample(a, b.Col(e, col), sc.s)
							if i, ok := bitsEqual(got.Col(e, gotCol), want); !ok {
								t.Fatalf("%s %s column %d: entry %d is %v, the oracle has %v", name, k, e, i, gotCol[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestStatsPaddedAllocs: a weighted vector sweep at a padded width (q = 41,
// laid out as 48, t = 1) allocates 6 times per call, one fewer than the
// unpadded sweep with its q×q NewDense did: its padded upper triangle is
// compacted in place, so a second q×q buffer would show here as a seventh.
func TestStatsPaddedAllocs(t *testing.T) {
	x, y := randDense(300, 41, 17), randDense(300, 1, 18)
	s := Sample{Weights: drawWeights(x.Rows)}
	if allocs := testing.AllocsPerRun(20, func() { Stats(x, y, s, 1) }); allocs > 6 {
		t.Fatalf("Stats allocates %v times per call, want at most 6", allocs)
	}
}

// drawWeights is a weight per row of n, small integers and fractions.
func drawWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%5) + 0.25*float64(i%3)
	}
	return w
}

// gatherSample copies the rows and columns of a that s names, and the rows
// of b scaled by their weights.
func gatherSample(a, b *Dense, s Sample) (ga, gb *Dense) {
	n, q := s.shape(a)
	ga, gb = NewDense(n, q), NewDense(n, b.Cols)
	for r := 0; r < n; r++ {
		i := r
		if s.Rows != nil {
			i = s.Rows[r]
		}
		for jj := 0; jj < q; jj++ {
			j := jj
			if s.Cols != nil {
				j = s.Cols[jj]
			}
			ga.Set(r, jj, a.At(i, j))
		}
		for k, v := range b.Row(i) {
			if s.Weights != nil {
				v = float64(s.Weights[r] * v)
			}
			gb.Set(r, k, v)
		}
	}
	return ga, gb
}

// BenchmarkGram times the Gram kernel at the shapes the repository benchmark
// runs: lasso_tall's full and bootstrap-weighted 8192×256, dist_mix's local
// 4096×161, and the two VAR designs the kernel must not slow (600×61,
// 768×41); Stats with the response columns riding in the sweep at
// lasso_tall's bootstrap (t = 1) and var_network's design (t = 60); and
// lasso_tall's estimation cell (-train-cols52): its 6 554 unit-weight
// training rows in permuted order over an ascending 52-column support, a
// width a vector sweep pads to 56. GFLOP/s counts rows·p² (p the summed
// columns) like the bench's mat.ata_gflops, so a response case's rate
// against its plain twin is the response bands' cost.
func BenchmarkGram(b *testing.B) {
	for _, bc := range []struct {
		n, p, t  int
		weighted bool
		cols     int // an ascending subset of this many columns, 0: all
	}{{8192, 256, 0, false, 0}, {8192, 256, 0, true, 0}, {8192, 256, 1, true, 0}, {8192, 256, 1, false, 52},
		{4096, 161, 0, false, 0}, {4096, 161, 0, true, 0},
		{600, 61, 0, false, 0}, {600, 61, 60, false, 0}, {768, 41, 0, false, 0}} {
		x := randDense(bc.n, bc.p, 7)
		var y *Dense
		var s Sample
		name := fmt.Sprintf("%dx%d", bc.n, bc.p)
		if bc.weighted {
			s.Rows, s.Weights = multiplicities(bc.n, drawRows(bc.n, bc.n, 11))
			name += "-bootstrap"
		}
		rows, p := bc.n, bc.p
		if bc.cols > 0 {
			rows = int(0.8*float64(bc.n) + 0.5)
			s.Rows = rand.New(rand.NewSource(12)).Perm(bc.n)[:rows]
			for j := 0; j < bc.cols; j++ {
				s.Cols = append(s.Cols, j*bc.p/bc.cols)
			}
			p = bc.cols
			name += fmt.Sprintf("-train-cols%d", bc.cols)
		}
		if bc.t > 0 {
			y = randDense(bc.n, bc.t, 8)
			name += fmt.Sprintf("-y%d", bc.t)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Stats(x, y, s, 2)
			}
			flops := float64(rows) * float64(p) * float64(p)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
