package uoi

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// The cell bodies as they were while every cell gathered its rows
// (x.SelectRows or varsim.NewDesignFromRows, then a Gram of the copy), kept
// as the oracles for the cells that work from sufficient statistics over the
// original rows.

// gatheredLassoSelCell is selection bootstrap k over the whole λ path.
func gatheredLassoSelCell(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, c *LassoConfig, kw int) (sup []bool, fits, iters int, err error) {
	n, p := x.Rows, x.Cols
	idx := resample.Bootstrap(root.Derive(uint64(k)+1), n)
	xb := x.SelectRows(idx)
	yb := selectVec(y, idx)
	f, err := admm.NewFactorizationElasticWorkers(mat.AtAWorkers(xb, kw), c.ADMM.Rho, c.L2, kw)
	if err != nil {
		return nil, 0, 0, err
	}
	aty := mat.AtVecWorkers(xb, yb, kw)
	sup = make([]bool, len(lambdas)*p)
	var warmZ, warmU []float64
	for j, lam := range lambdas {
		opts := c.ADMM
		opts.WarmZ, opts.WarmU = warmZ, warmU
		r := f.SolveRHS(aty, lam, &opts)
		warmZ, warmU = r.Beta, r.U
		fits++
		iters += r.Iters
		for i, v := range r.Beta {
			if v > c.SupportTol || v < -c.SupportTol {
				sup[j*p+i] = true
			}
		}
	}
	return sup, fits, iters, nil
}

// gatheredLassoEstCell is estimation bootstrap k: a Gram per support on the
// gathered training rows, a dense prediction on the gathered evaluation rows.
func gatheredLassoEstCell(x *mat.Dense, y []float64, root *resample.RNG, k int, distinct [][]int, c *LassoConfig, kw int) (beta []float64, fits int) {
	trainIdx, evalIdx := resample.TrainEvalSplit(root.Derive(1_000_000+uint64(k)), x.Rows, c.TrainFrac)
	xt, yt := x.SelectRows(trainIdx), selectVec(y, trainIdx)
	xe, ye := x.SelectRows(evalIdx), selectVec(y, evalIdx)
	var best winner
	for _, s := range distinct {
		b := admm.OLSOnSupportWorkers(xt, yt, s, kw)
		fits++
		best.offer(metrics.PredictionLoss(xe, ye, b), b)
	}
	return best.estimate(x.Cols), fits
}

// TestLassoCellsMatchGatheredOracle runs every cell of the table's UoI_LASSO
// problems both ways. The weighted Gram differs from the gathered one only
// in rounding, which must not move a support, a fit count or an ADMM
// iteration; the estimation Gram sums the same rows in the same order, so
// the winners agree to 1e-10 (in practice in every bit — only the held-out
// loss is summed differently).
func TestLassoCellsMatchGatheredOracle(t *testing.T) {
	for _, lc := range lassoTableCases() {
		for _, kw := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/kw=%d", lc.name, kw), func(t *testing.T) {
				c := lc.cfg.defaults()
				c.KernelWorkers = kw
				pb, _, err := newLassoProblem(lc.x, lc.y, &c, 1)
				if err != nil {
					t.Fatal(err)
				}
				x, y := lc.x, lc.y
				if c.Standardize {
					scaler := preprocess.FitXY(x, y)
					x, y = scaler.Transform(x), scaler.TransformY(y)
				}
				root := resample.NewRNG(c.Seed)
				q, p := len(pb.lambdas), x.Cols
				counts := make([]float64, q*p)
				var wantFits, wantIters int
				for k := 0; k < c.B1; k++ {
					got, err := pb.selCell(k, 0, q, nil, nil, trace.Span{})
					if err != nil {
						t.Fatal(err)
					}
					want, fits, iters, err := gatheredLassoSelCell(x, y, root, k, pb.lambdas, &c, kw)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("selection cell %d: supports differ from the gathered cell's", k)
					}
					wantFits, wantIters = wantFits+fits, wantIters+iters
					addSupportCounts(counts, got)
				}
				if pb.diag.LassoFits != wantFits || pb.diag.ADMMIters != wantIters {
					t.Errorf("selection work %d fits / %d iterations, gathered %d / %d",
						pb.diag.LassoFits, pb.diag.ADMMIters, wantFits, wantIters)
				}
				distinct := dedupeSupports(supportsFromCounts(counts, q, p, float64(c.B1)))
				if len(distinct) == 0 {
					t.Fatal("fixture: no candidate supports")
				}
				for k := 0; k < c.B2; k++ {
					got, err := pb.estCell(k, distinct, trace.Span{})
					if err != nil {
						t.Fatal(err)
					}
					want, fits := gatheredLassoEstCell(x, y, root, k, distinct, &c, kw)
					for i := range want {
						if d := math.Abs(got[i] - want[i]); !(d <= 1e-10) {
							t.Errorf("estimation cell %d: winner[%d] = %v, gathered %v", k, i, got[i], want[i])
							break
						}
					}
					if fits != len(distinct) {
						t.Errorf("estimation cell %d: gathered cell made %d fits, want %d", k, fits, len(distinct))
					}
				}
				if pb.diag.OLSFits != c.B2*len(distinct) {
					t.Errorf("estimation work %d fits, want %d", pb.diag.OLSFits, c.B2*len(distinct))
				}
			})
		}
	}
}

// gatheredVarSelCell is UoI_VAR selection bootstrap k over the λ block
// [jLo, jHi) as it ran while every cell assembled its bootstrap design: the
// drawn target rows gathered into a design of their own, its Gram and XᵀY,
// and the λ-outer batched sweep with the per-equation warm-start chains
// (reversed and seeded by c.WarmBeta, or handed over by warm and emit).
func gatheredVarSelCell(series *mat.Dense, root *resample.RNG, k, m, blockLen int, lambdas []float64, jLo, jHi int, warm warmFn, emit emitFn, c *VARConfig, kw int) (sup []bool, fits, iters int, err error) {
	p := series.Cols
	des := varsim.NewDesignFromRows(series, c.Order, !c.NoIntercept, varSelTargets(root, k, m, blockLen, c))
	rowsB := des.X.Cols
	f, err := admm.NewFactorizationElasticWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, c.L2, kw)
	if err != nil {
		return nil, 0, 0, err
	}
	betaLen := rowsB * p
	sup = make([]bool, (jHi-jLo)*betaLen)
	order := make([]int, jHi-jLo)
	for i := range order {
		order[i] = jLo + i
	}
	warmZ, warmU := make([][]float64, p), make([][]float64, p)
	if len(c.WarmBeta) == betaLen {
		for eq := range warmZ {
			warmZ[eq] = c.WarmBeta[eq*rowsB : (eq+1)*rowsB]
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	if warm != nil {
		for eq := range warmZ {
			warmZ[eq], warmU[eq] = warm(eq)
		}
	}
	xty := mat.MulAtB(des.X, des.Y)
	for _, j := range order {
		for eq, r := range f.SolveRHSBatch(xty, lambdas[j], warmZ, warmU, &c.ADMM, kw) {
			warmZ[eq], warmU[eq] = r.Beta, r.U
			fits++
			iters += r.Iters
			markSupport(sup[(j-jLo)*betaLen+eq*rowsB:], r.Beta, c.SupportTol)
		}
	}
	if emit != nil {
		for eq := range warmZ {
			emit(eq, warmZ[eq], warmU[eq])
		}
	}
	return sup, fits, iters, nil
}

// TestVarSelCellGatheredIdentical runs UoI_VAR selection cells both ways —
// the statistics of the full design over the drawn rows, and the gathered
// bootstrap design — at kernel budgets 1, 2 and 3: the support indicators,
// fits and ADMM iterations must agree exactly, since the Gram and XᵀY over a
// row list are bitwise those of the gathered rows. Unseeded cells also run
// as three λ blocks chained through warm/emit, as grid columns do, and must
// hand over the same chain state bit for bit.
func TestVarSelCellGatheredIdentical(t *testing.T) {
	_, s1 := makeVARData(21, 8, 1, 400)
	_, s2 := makeVARData(22, 5, 2, 500)
	seed := make([]float64, 9*8)
	for i := range seed {
		seed[i] = 0.05 * float64(i%7-3)
	}
	for _, tc := range []struct {
		name   string
		series *mat.Dense
		cfg    VARConfig
	}{
		{"var1", s1, VARConfig{Order: 1, B1: 3, Q: 7, LambdaRatio: 1e-2, Seed: 5}},
		{"var2", s2, VARConfig{Order: 2, B1: 3, Q: 6, Seed: 6}},
		{"anchored", s1, VARConfig{Order: 1, B1: 3, Q: 6, Seed: 7, Anchored: true, Anchor: 37, BlockLen: 16}},
		{"warm", s1, VARConfig{Order: 1, B1: 3, Q: 7, Seed: 5, WarmBeta: seed}},
		{"l2", s1, VARConfig{Order: 1, B1: 3, Q: 5, Seed: 8, L2: 0.5}},
	} {
		c := tc.cfg.defaults()
		m, blockLen, err := varWindow(tc.series.Rows, &c)
		if err != nil {
			t.Fatal(err)
		}
		root := resample.NewRNG(c.Seed)
		for _, kw := range []int{1, 2, 3} {
			pb := varProblem(t, tc.series, &c, kw)
			q := len(pb.lambdas)
			for k := 0; k < c.B1; k++ {
				name := fmt.Sprintf("%s kw=%d cell %d", tc.name, kw, k)
				before := pb.diag
				got, err := pb.selCell(k, 0, q, nil, nil, trace.Span{})
				if err != nil {
					t.Fatal(err)
				}
				want, fits, iters, err := gatheredVarSelCell(tc.series, root, k, m, blockLen, pb.lambdas, 0, q, nil, nil, &c, kw)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: support indicators differ from the gathered cell's", name)
				}
				if d := pb.diag; d.LassoFits-before.LassoFits != fits || d.ADMMIters-before.ADMMIters != iters {
					t.Fatalf("%s: %d fits / %d iterations, gathered %d / %d", name, d.LassoFits-before.LassoFits, d.ADMMIters-before.ADMMIters, fits, iters)
				}
				if c.WarmBeta != nil {
					continue
				}
				// The path as three grid columns, each block entered from
				// the previous block's emitted chains.
				var gotState, wantState [][2][]float64
				for b, cut := range [][2]int{{0, 2}, {2, q - 2}, {q - 2, q}} {
					hooks := func(state *[][2][]float64) (warmFn, emitFn) {
						prev := *state
						next := make([][2][]float64, tc.series.Cols)
						*state = next
						var warm warmFn
						if prev != nil {
							warm = func(eq int) ([]float64, []float64) { return prev[eq][0], prev[eq][1] }
						}
						return warm, func(eq int, z, u []float64) { next[eq] = [2][]float64{z, u} }
					}
					warm, emit := hooks(&gotState)
					gotBlock, err := pb.selCell(k, cut[0], cut[1], warm, emit, trace.Span{})
					if err != nil {
						t.Fatal(err)
					}
					warm, emit = hooks(&wantState)
					wantBlock, _, _, err := gatheredVarSelCell(tc.series, root, k, m, blockLen, pb.lambdas, cut[0], cut[1], warm, emit, &c, kw)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotBlock, wantBlock) {
						t.Fatalf("%s block %d: support indicators differ from the gathered cell's", name, b)
					}
					if !reflect.DeepEqual(gotBlock, got[cut[0]*pb.p:cut[1]*pb.p]) {
						t.Fatalf("%s block %d: support indicators differ from the whole path's", name, b)
					}
					for eq := range gotState {
						assertBitsEqual(t, fmt.Sprintf("%s block %d equation %d z", name, b, eq), gotState[eq][0], wantState[eq][0])
						assertBitsEqual(t, fmt.Sprintf("%s block %d equation %d u", name, b, eq), gotState[eq][1], wantState[eq][1])
					}
				}
			}
		}
	}
}

// selectVec gathers y[idx].
func selectVec(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}
