package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// This file holds the per-bootstrap *cell* computations of UoI_LASSO and
// UoI_VAR: the bodies of one selection bootstrap (fit the λ path, report
// per-(λ, coefficient) support indicators) and one estimation bootstrap
// (fit OLS on every candidate support, report the held-out winner). Each
// cell is a pure function of (data, root seed, cell index) — independent of
// worker counts, rank counts, and every other cell — which is what makes
// UoI embarrassingly parallel and, in checkpointed execution, independently
// resumable: a checkpoint is just the union of completed cells.
//
// The serial algorithms (uoi.go, var.go) and the checkpointed engine
// (checkpointed.go) share these bodies, so a resumed cell reproduces the
// original bit for bit.

// lassoSelCell runs selection bootstrap k of UoI_LASSO: resample, factorize
// once, sweep the λ path with warm starts, and return the support
// indicators flattened as sup[j·p+i] for λ index j and feature i.
func lassoSelCell(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, c *LassoConfig, kw int, tr *trace.Tracer) (sup []bool, fits, iters int, err error) {
	sup, _, _, fits, iters, err = lassoSelCellRange(x, y, root, k, lambdas, 0, len(lambdas), nil, c, kw, tr)
	return sup, fits, iters, err
}

// lassoSelCellRange is the λ-block body shared by the serial cell (full
// range, cold start) and the 2-D grid engine (contiguous λ block [jLo, jHi)
// per grid column, warm-started from the neighboring column). warm, when
// non-nil, is invoked after the factorization succeeds and supplies the
// (z, u) pair the serial sweep would have carried into λ index jLo — the
// grid's cross-column pipeline handoff. Because serial and grid runs share
// this one code path, a grid fit continues the exact serial warm-start
// chain and its supports are bit-identical to serial by construction.
// lastZ/lastU return the chain state after λ index jHi−1, for forwarding to
// the next column. sup is the block-local flattening sup[(j−jLo)·p+i].
func lassoSelCellRange(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, jLo, jHi int, warm func() (z, u []float64), c *LassoConfig, kw int, tr *trace.Tracer) (sup []bool, lastZ, lastU []float64, fits, iters int, err error) {
	n, p := x.Rows, x.Cols
	rng := root.Derive(uint64(k) + 1)
	idx := resample.Bootstrap(rng, n)
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
		return nil, nil, nil, 0, 0, fmt.Errorf("uoi: selection bootstrap %d: %w", k, err)
	}
	tr.Add("admm/factorizations", 1)
	sup = make([]bool, (jHi-jLo)*p)
	// Warm-start each λ from its neighbor's (z, u) pair — carrying only z
	// would restart the dual at zero every step and forfeit most of the
	// saved iterations (Boyd §4.3's standard path warm start).
	var warmZ, warmU []float64
	if warm != nil {
		warmZ, warmU = warm()
	}
	for j := jLo; j < jHi; j++ {
		opts := c.ADMM
		opts.WarmZ, opts.WarmU = warmZ, warmU
		r := f.Solve(lambdas[j], &opts)
		warmZ, warmU = r.Beta, r.U
		fits++
		iters += r.Iters
		row := sup[(j-jLo)*p : (j-jLo+1)*p]
		for i, v := range r.Beta {
			if v > c.SupportTol || v < -c.SupportTol {
				row[i] = true
			}
		}
	}
	return sup, warmZ, warmU, fits, iters, nil
}

// lassoEstCell runs estimation bootstrap k of UoI_LASSO: resample a
// train/evaluation split, fit OLS on every distinct candidate support, and
// return the estimate minimizing held-out loss (all zeros when the
// candidate family is empty).
func lassoEstCell(x *mat.Dense, y []float64, root *resample.RNG, k int, distinct [][]int, c *LassoConfig, kw int) (beta []float64, fits int) {
	n, p := x.Rows, x.Cols
	rng := root.Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.TrainEvalSplit(rng, n, c.TrainFrac)
	xt := x.SelectRows(trainIdx)
	yt := selectVec(y, trainIdx)
	xe := x.SelectRows(evalIdx)
	ye := selectVec(y, evalIdx)

	bestLoss := math.Inf(1)
	var bestBeta []float64
	for _, s := range distinct {
		b := admm.OLSOnSupportWorkers(xt, yt, s, kw)
		fits++
		loss := metrics.PredictionLoss(xe, ye, b)
		// Skip non-finite losses: a NaN in the first slot would make every
		// later `loss < bestLoss` false and win silently.
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			continue
		}
		if bestBeta == nil || loss < bestLoss {
			bestLoss = loss
			bestBeta = b
		}
	}
	// All candidates non-finite (or none): fall back to the null model.
	if bestBeta == nil {
		bestBeta = make([]float64, p)
	}
	return bestBeta, fits
}

// addSupportCounts folds one selection cell's support indicators
// (flattened as sup[j·p+i]) into the per-(λ, feature) tally. Integer
// addition is exactly order-independent, so the intersection is identical
// at any worker or rank count and regardless of resume order.
func addSupportCounts(counts [][]int, sup []bool, p int) {
	for j := range counts {
		row := sup[j*p : (j+1)*p]
		for i, v := range row {
			if v {
				counts[j][i]++
			}
		}
	}
}

// varSelTargets derives selection bootstrap k's design-row targets (window
// row indices in [d, d+m)): window-relative moving blocks by default, or
// grid blocks at absolute stream coordinates when c.Anchored. Shared by the
// cell body and the cell-cache key so the two can never disagree.
func varSelTargets(root *resample.RNG, k, m, blockLen int, c *VARConfig) []int {
	rng := root.Derive(uint64(k) + 1)
	var idx []int
	if c.Anchored {
		// Design row t sits at absolute stream row Anchor + Order + t.
		idx = resample.AnchoredBlockBootstrap(rng, c.Anchor+int64(c.Order), m, blockLen)
	} else {
		idx = resample.MovingBlockBootstrap(rng, m, blockLen)
	}
	targets := make([]int, len(idx))
	for i, v := range idx {
		targets[i] = c.Order + v
	}
	return targets
}

// varSelCell runs selection bootstrap k of UoI_VAR: block-bootstrap target
// rows, assemble the design, factorize once (shared across equations and
// the λ path), and return the support indicators flattened as
// sup[j·betaLen + eq·rowsB + i]. spPhase receives the kron_assembly child
// span, mirroring the serial algorithm's trace shape.
func varSelCell(series *mat.Dense, root *resample.RNG, k, m, blockLen int, lambdas []float64, c *VARConfig, kw int, tr *trace.Tracer, spPhase trace.Span) (sup []bool, fits, iters int, kron time.Duration, err error) {
	return varSelCellRange(series, root, k, m, blockLen, lambdas, 0, len(lambdas), nil, nil, c, kw, tr, spPhase)
}

// varSelCellRange is the λ-block body shared by the serial VAR cell (full
// range) and the 2-D grid engine (contiguous λ block [jLo, jHi) per grid
// column). The p equations share the design and its factorization, so the
// sweep is λ-outer: each λ is one batched solve over all equations
// (admm.SolveRHSBatch, column groups over kw goroutines), warm-started per
// equation from the previous λ. The warm-start chain stays per equation, so
// the grid handoff is per-equation too: warm(eq), when non-nil, supplies the
// (z, u) pair the serial sweep would carry into λ index jLo of equation eq,
// and emit(eq), when non-nil, receives the chain state after jHi−1 for
// forwarding to the next column. warm/emit callers must not set c.WarmBeta
// (the seeded sweep reverses the λ order, which would reverse the pipeline
// direction); the grid engine rejects that combination up front. sup is the
// block-local flattening sup[(j−jLo)·betaLen + eq·rowsB + i].
func varSelCellRange(series *mat.Dense, root *resample.RNG, k, m, blockLen int, lambdas []float64, jLo, jHi int, warm func(eq int) (z, u []float64), emit func(eq int, z, u []float64), c *VARConfig, kw int, tr *trace.Tracer, spPhase trace.Span) (sup []bool, fits, iters int, kron time.Duration, err error) {
	d := c.Order
	p := series.Cols
	targets := varSelTargets(root, k, m, blockLen, c)
	t0 := time.Now()
	spK := spPhase.Child("kron_assembly")
	des := varsim.NewDesignFromRows(series, d, !c.NoIntercept, targets)
	spK.End()
	kron = time.Since(t0)
	rowsB := des.X.Cols

	// One factorization shared across all p equations and the λ path — the
	// block-diagonal Gram of (I ⊗ X_T) is I ⊗ (X_TᵀX_T).
	var f *admm.Factorization
	if c.L2 > 0 {
		f, err = admm.NewFactorizationElasticWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, c.L2, kw)
	} else {
		f, err = admm.NewFactorizationGramWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, kw)
	}
	if err != nil {
		return nil, 0, 0, kron, fmt.Errorf("uoi: VAR selection bootstrap %d: %w", k, err)
	}
	tr.Add("admm/factorizations", 1)
	betaLen := rowsB * p
	sup = make([]bool, (jHi-jLo)*betaLen)
	// Sweep order: the λ grid is descending (λ_max first), where the cold
	// solution starts near zero — the natural chain for zero starts. When a
	// previous model seeds the sweep (c.WarmBeta, streaming refits), the
	// seed approximates the *small*-λ solutions, so the sweep runs
	// smallest-λ-first instead and chains (z, u) upward from there.
	order := make([]int, jHi-jLo)
	for i := range order {
		order[i] = jLo + i
	}
	// Carry both halves of the warm start along the path; z alone restarts
	// the dual from zero at every λ (see lassoSelCell).
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
	xty := designXtY(des, kw)
	for _, j := range order {
		for eq, r := range f.SolveRHSBatch(xty, lambdas[j], warmZ, warmU, &c.ADMM, kw) {
			warmZ[eq], warmU[eq] = r.Beta, r.U
			fits++
			iters += r.Iters
			row := sup[(j-jLo)*betaLen+eq*rowsB : (j-jLo)*betaLen+(eq+1)*rowsB]
			for i, v := range r.Beta {
				if v > c.SupportTol || v < -c.SupportTol {
					row[i] = true
				}
			}
		}
	}
	if emit != nil {
		for eq := range warmZ {
			emit(eq, warmZ[eq], warmU[eq])
		}
	}
	return sup, fits, iters, kron, nil
}

// varEstCell runs estimation bootstrap k of UoI_VAR: block train/eval
// split, per-equation OLS on every distinct vec support, and the held-out
// winner (all zeros when the candidate family is empty). Every support is a
// column subset of the one training design, so the cell computes that
// design's sufficient statistics XᵀX and XᵀY once and each (support,
// equation) fit solves the sub-blocks G[S,S]·β = XᵀY[S,eq].
func varEstCell(series *mat.Dense, root *resample.RNG, k, m, blockLen, betaLen int, distinct [][]int, c *VARConfig, kw int, spPhase trace.Span) (beta []float64, fits int, kron time.Duration) {
	d := c.Order
	rng := root.Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.BlockTrainEvalSplit(rng, m, blockLen, c.TrainFrac)
	toTargets := func(idx []int) []int {
		out := make([]int, len(idx))
		for i, v := range idx {
			out[i] = d + v
		}
		return out
	}
	t0 := time.Now()
	spK := spPhase.Child("kron_assembly")
	trainDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, toTargets(trainIdx))
	evalDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, toTargets(evalIdx))
	spK.End()
	kron = time.Since(t0)

	gram := mat.AtAWorkers(trainDes.X, kw)
	xty := designXtY(trainDes, kw)
	bestLoss := math.Inf(1)
	var bestBeta []float64
	for _, s := range distinct {
		b := olsOnVecSupport(gram, xty, s)
		fits++
		loss := vecLoss(evalDes, b)
		// Non-finite losses never win (see lassoEstCell).
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			continue
		}
		if bestBeta == nil || loss < bestLoss {
			bestLoss = loss
			bestBeta = b
		}
	}
	// All candidates non-finite (or none): fall back to the null model.
	if bestBeta == nil {
		bestBeta = make([]float64, betaLen)
	}
	return bestBeta, fits, kron
}
