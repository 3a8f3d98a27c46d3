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
)

// The UoI_LASSO cell bodies as they were while every cell gathered its rows
// (x.SelectRows, then a Gram of the copy), kept as the oracles for the cells
// that work from sufficient statistics over the original rows.

// gatheredLassoSelCell is selection bootstrap k over the whole λ path.
func gatheredLassoSelCell(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, c *LassoConfig, kw int) (sup []bool, fits, iters int, err error) {
	n, p := x.Rows, x.Cols
	idx := resample.Bootstrap(root.Derive(uint64(k)+1), n)
	xb := x.SelectRows(idx)
	yb := selectVec(y, idx)
	var f *admm.Factorization
	if c.L2 > 0 {
		f, err = admm.NewFactorizationElasticWorkers(mat.AtAWorkers(xb, kw), c.ADMM.Rho, c.L2, kw)
		if err == nil {
			f.SetRHS(mat.AtVecWorkers(xb, yb, kw))
		}
	} else {
		f, err = admm.NewFactorizationWorkers(xb, yb, c.ADMM.Rho, kw)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	sup = make([]bool, len(lambdas)*p)
	var warmZ, warmU []float64
	for j, lam := range lambdas {
		opts := c.ADMM
		opts.WarmZ, opts.WarmU = warmZ, warmU
		r := f.Solve(lam, &opts)
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
