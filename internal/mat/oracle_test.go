package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scalar kernels the tiled ones replaced, kept as oracles: the tiled
// Stats, cholPanel and factorBlocked must return their bits.

// gramVecSample is the per-column Xᵀy over a sample that Stats' XᵀY
// replaced: one pass over the rows in s.Rows order, each output summed from
// zero with the rounded product (w·y)·x.
func gramVecSample(a *Dense, y []float64, s Sample) []float64 {
	n, p := s.shape(a)
	out := make([]float64, p)
	for r := 0; r < n; r++ {
		i := r
		if s.Rows != nil {
			i = s.Rows[r]
		}
		v := y[i]
		if s.Weights != nil {
			v *= s.Weights[r]
		}
		row := a.Row(i)
		for j := range out {
			cj := j
			if s.Cols != nil {
				cj = s.Cols[j]
			}
			out[j] += float64(v * row[cj])
		}
	}
	return out
}

// gramSample is the weighted Gram over a sample entry by entry: c[j][k]
// (j ≤ k) is Σᵣ (w·x_rj)·x_rk from zero in s.Rows order, mirrored.
func gramSample(a *Dense, s Sample) []float64 {
	n, p := s.shape(a)
	c := make([]float64, p*p)
	cols := s.Cols
	if cols == nil {
		cols = make([]int, p)
		for j := range cols {
			cols[j] = j
		}
	}
	for r := 0; r < n; r++ {
		i := r
		if s.Rows != nil {
			i = s.Rows[r]
		}
		row := a.Row(i)
		for j, cj := range cols {
			v := row[cj]
			if s.Weights != nil {
				v = s.Weights[r] * v
			}
			for k, ck := range cols[j:] {
				c[j*p+j+k] += float64(v * row[ck])
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			c[k*p+j] = c[j*p+k]
		}
	}
	return c
}

// factorUnblockedScalar is the scalar unblocked Cholesky: it returns the
// failing column or −1.
func factorUnblockedScalar(l []float64, n int) int {
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			v := l[j*n+k]
			d -= float64(v * v)
		}
		if d <= 0 || math.IsNaN(d) {
			return j
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
	return -1
}

// factorBlockedScalar is the scalar right-looking blocked Cholesky, serial
// (its bits never depended on the workers): it returns the failing column
// or −1.
func factorBlockedScalar(l []float64, n int) int {
	if n <= cholBlock*2 {
		return factorUnblockedScalar(l, n)
	}
	for k := 0; k < n; k += cholBlock {
		kb := min(cholBlock, n-k)
		for j := k; j < k+kb; j++ {
			d := l[j*n+j]
			for t := k; t < j; t++ {
				v := l[j*n+t]
				d -= float64(v * v)
			}
			if d <= 0 || d != d {
				return j
			}
			d = math.Sqrt(d)
			l[j*n+j] = d
			inv := 1 / d
			for i := j + 1; i < k+kb; i++ {
				s := l[i*n+j]
				for t := k; t < j; t++ {
					s -= float64(l[i*n+t] * l[j*n+t])
				}
				l[i*n+j] = s * inv
			}
		}
		if k+kb == n {
			break
		}
		lo := k + kb
		for i := lo; i < n; i++ {
			row := l[i*n:]
			for j := k; j < k+kb; j++ {
				s := row[j]
				diagRow := l[j*n:]
				for t := k; t < j; t++ {
					s -= float64(row[t] * diagRow[t])
				}
				row[j] = s / diagRow[j]
			}
		}
		for i := lo; i < n; i++ {
			li := l[i*n+k : i*n+k+kb]
			for j := lo; j <= i; j++ {
				lj := l[j*n+k : j*n+k+kb]
				s := 0.0
				for t := range li {
					s += float64(li[t] * lj[t])
				}
				l[i*n+j] -= s
			}
		}
	}
	return -1
}

// lowerBits compares the lower triangles (diagonal included) of two n×n
// row-major matrices in Float64bits.
func lowerBits(a, b []float64, n int) (i, j int, ok bool) {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a[i*n+j]) != math.Float64bits(b[i*n+j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

var factorWidths = []int{1, 7, 8, 9, 61, 96, 97, 192, 193, 256, 300}

// TestFactorKernelsIdentical: factorUnblocked (cholPanel over a whole
// matrix) is the scalar
// unblocked factor, and factorBlocked the scalar blocked one, Float64bits
// for Float64bits on every kernel family of this host at budgets 1/2/3 —
// on positive-definite input, and on input that fails (a negative pivot,
// a NaN or an +Inf entry, a +Inf pivot), where both stop at the same
// column.
func TestFactorKernelsIdentical(t *testing.T) {
	kernels := hostKernels(t)
	rng := rand.New(rand.NewSource(46))
	for _, n := range factorWidths {
		a := randomSPD(rng, n).Data
		type edit struct {
			name string
			set  func(l []float64)
		}
		cases := []edit{{"spd", func([]float64) {}}}
		for _, c := range []int{0, n / 2, n - 1} {
			cases = append(cases,
				edit{fmt.Sprintf("pivot-%d", c), func(l []float64) { l[c*n+c] = -1 }},
				edit{fmt.Sprintf("nan-%d", c), func(l []float64) { l[(n-1)*n+c], l[c*n+n-1] = math.NaN(), math.NaN() }},
				edit{fmt.Sprintf("inf-%d", c), func(l []float64) { l[(n-1)*n+c], l[c*n+n-1] = math.Inf(1), math.Inf(1) }},
				edit{fmt.Sprintf("inf-pivot-%d", c), func(l []float64) { l[c*n+c] = math.Inf(1) }})
		}
		for _, tc := range cases {
			in := append([]float64(nil), a...)
			tc.set(in)
			wantU := append([]float64(nil), in...)
			badU := factorUnblockedScalar(wantU, n)
			wantB := append([]float64(nil), in...)
			badB := factorBlockedScalar(wantB, n)
			for _, k := range kernels {
				got := append([]float64(nil), in...)
				if bad := factorUnblocked(got, n, k); bad != badU {
					t.Fatalf("n=%d %s %s: unblocked fails at column %d, the scalar factor at %d", n, tc.name, k, bad, badU)
				} else if i, j, ok := lowerBits(got, wantU, n); bad < 0 && !ok {
					t.Fatalf("n=%d %s %s: unblocked entry (%d,%d) is %v, the scalar factor has %v", n, tc.name, k, i, j, got[i*n+j], wantU[i*n+j])
				}
				for _, budget := range []int{1, 2, 3} {
					got := append([]float64(nil), in...)
					if bad := factorBlocked(got, n, budget, k, make([]float64, factorScratch(n, budget))); bad != badB {
						t.Fatalf("n=%d %s %s workers=%d: blocked fails at column %d, the scalar factor at %d", n, tc.name, k, budget, bad, badB)
					} else if i, j, ok := lowerBits(got, wantB, n); bad < 0 && !ok {
						t.Fatalf("n=%d %s %s workers=%d: blocked entry (%d,%d) is %v, the scalar factor has %v", n, tc.name, k, budget, i, j, got[i*n+j], wantB[i*n+j])
					}
				}
			}
		}
	}
}

// TestSolveSPDInPlaceAllocatesNothing: the estimation cells' per-support
// solve takes its panels from a pool.
func TestSolveSPDInPlaceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{7, 61} {
		a, b := randomSPD(rng, n).Data, randomPanel(rng, 1, n)
		l, x := make([]float64, n*n), make([]float64, n)
		if allocs := testing.AllocsPerRun(20, func() {
			copy(l, a)
			copy(x, b)
			if err := SolveSPDInPlace(l, n, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("n=%d: SolveSPDInPlace allocates %v times per call", n, allocs)
		}
	}
}

// TestStatsKernelsIdentical: Stats' XᵀX is the entry-by-entry Gram and its
// XᵀY the per-column oracle, Float64bits for Float64bits, on every kernel
// family of this host at budgets 1 and 3 (2 for the row list and the
// ascending subset) — for n below, at and past the panel chunk, design
// widths across the tile and band edges, response widths in and past one
// tile band, over all rows, a repeated unsorted row list, weights with
// zeros over an unordered column subset, and an ascending subset. A NaN or
// Inf input yields the portable kernel's non-finite entries on every
// family.
func TestStatsKernelsIdentical(t *testing.T) {
	kernels := hostKernels(t)
	widths := []int{1, 3, 8, 9, 60}
	for _, n := range []int{1, 63, 65, 130} {
		for pi, p := range factorWidths {
			x := randDense(n, p, uint64(100*n+p))
			y := randDense(n, 60, uint64(7*n+p))
			rows := drawRows(n, n+n/2, uint64(p))
			w := make([]float64, len(rows))
			for i := range w {
				w[i] = float64(i % 3)
			}
			distinct, counts := multiplicities(n, rows)
			var asc, perm []int
			for j := 0; j < p; j++ {
				if j%3 != 1 {
					asc = append(asc, j)
				}
				perm = append(perm, (j*7+3)%p)
			}
			samples := []Sample{
				{},
				{Rows: rows},
				{Rows: distinct, Weights: counts},
				{Rows: rows, Weights: w, Cols: perm},
				{Cols: asc},
			}
			for si, s := range samples {
				wantG := gramSample(x, s)
				// Every p meets two response widths, every width many p.
				for _, tw := range []int{widths[pi%len(widths)], widths[(pi+2)%len(widths)]} {
					yt := NewDense(n, tw)
					for i := 0; i < n; i++ {
						copy(yt.Row(i), y.Row(i)[:tw])
					}
					wantY := make([][]float64, tw)
					col := make([]float64, n)
					for e := range wantY {
						wantY[e] = gramVecSample(x, yt.Col(e, col), s)
					}
					budgets := []int{1, 3}
					if si == 1 || si == 4 {
						budgets = []int{2}
					}
					for _, k := range kernels {
						for _, budget := range budgets {
							g, xty := stats(x, yt, s, budget, k)
							if i, ok := bitsEqual(g.Data, wantG); !ok {
								t.Fatalf("n=%d p=%d t=%d sample %d %s workers=%d: Gram entry %d differs from the oracle", n, p, tw, si, k, budget, i)
							}
							got := make([]float64, xty.Rows)
							for e := 0; e < tw; e++ {
								if i, ok := bitsEqual(xty.Col(e, got), wantY[e]); !ok {
									t.Fatalf("n=%d p=%d t=%d sample %d %s workers=%d: XᵀY (%d,%d) is %v, the oracle has %v", n, p, tw, si, k, budget, i, e, got[i], wantY[e][i])
								}
							}
						}
					}
				}
			}
			bad, badY := x.Clone(), y.Clone()
			bad.Set(n/2, p/2, math.NaN())
			bad.Set(n-1, 0, math.Inf(-1))
			badY.Set(0, 0, math.Inf(1))
			for si, s := range samples[:4] {
				wantG, wantY := stats(bad, badY, s, 2, portable)
				for _, k := range kernels[1:] {
					g, xty := stats(bad, badY, s, 2, k)
					if i, ok := sameBitsOrNaN(g.Data, wantG.Data); !ok {
						t.Fatalf("n=%d p=%d non-finite sample %d %s: Gram entry %d differs from the portable kernel's", n, p, si, k, i)
					}
					if i, ok := sameBitsOrNaN(xty.Data, wantY.Data); !ok {
						t.Fatalf("n=%d p=%d non-finite sample %d %s: XᵀY entry %d differs from the portable kernel's", n, p, si, k, i)
					}
				}
			}
		}
	}
}

// BenchmarkInverse times M = (G + ρI)⁻¹ at var_network's p 61, lasso_tall's
// 256 and a wide 1 024 on two workers: the factor, L⁻¹ and their Gram.
// GFLOP/s counts p³.
func BenchmarkInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range []int{61, 256, 1024} {
		g := AtAWorkers(randomDense(rng, 2*p, p), 2)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewInverse(g, 1, 2); err != nil {
					b.Fatal(err)
				}
			}
			flops := float64(p) * float64(p) * float64(p)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
