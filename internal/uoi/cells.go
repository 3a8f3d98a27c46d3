package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
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
// Every placement of the engine (engine.go) runs these bodies, so a cell
// reproduces the same bits wherever it runs: on a pool worker, resumed from
// a checkpoint, or as one λ block on one rank of a grid.

// warmFn supplies the (z, u) pair a selection cell's warm-start chain
// carries into its first λ, and emitFn receives the chain's state after its
// last: together they hand the λ path of one bootstrap from one grid column
// to the next. A UoI_LASSO cell has one chain (chain 0), a UoI_VAR cell one
// per equation. A cell calls every warm before its first solve and every
// emit after its last, chains in ascending order.
type (
	warmFn func(chain int) (z, u []float64)
	emitFn func(chain int, z, u []float64)
)

// winner keeps an estimation cell's best candidate under the one rule every
// driver shares: a candidate wins only with a finite loss strictly below
// the best so far, and when none does the null model wins. A NaN loss — in
// the first slot or any other — makes every later `loss < best` false, so a
// rule without the finiteness test lets it stick.
type winner struct {
	loss float64
	beta []float64
}

// offer considers a candidate estimate and its held-out loss.
func (w *winner) offer(loss float64, beta []float64) {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return
	}
	if w.beta == nil || loss < w.loss {
		w.loss, w.beta = loss, beta
	}
}

// estimate returns the winning coefficients, or the null model (p zeros)
// when no candidate had a finite loss or there was none.
func (w *winner) estimate(p int) []float64 {
	if w.beta == nil {
		return make([]float64, p)
	}
	return w.beta
}

// bootstrapSample draws an iid bootstrap of n rows as the sample its Gram and
// Xᵀy are summed over: the distinct drawn rows, ascending, weighted by their
// multiplicities — the draw is never gathered into a copy.
func bootstrapSample(rng *resample.RNG, n int) mat.Sample {
	rows, counts := resample.Multiplicities(resample.Bootstrap(rng, n), n)
	return mat.Sample{Rows: rows, Weights: counts}
}

// lassoSelCellRange runs selection bootstrap k of UoI_LASSO over the λ
// block [jLo, jHi): resample, factorize once, sweep the block with lassoPath
// and return its block-local support indicators. The whole path is the block
// [0, len(lambdas)) with nil hooks; on a grid the hooks continue the exact
// serial warm-start chain across columns, so a grid fit's supports are
// bit-identical to serial by construction.
func lassoSelCellRange(x *mat.Dense, y []float64, root *resample.RNG, k int, lambdas []float64, jLo, jHi int, warm warmFn, emit emitFn, c *LassoConfig, kw int, tr *trace.Tracer) (sup []bool, fits, iters int, err error) {
	rng := root.Derive(uint64(k) + 1)
	boot := bootstrapSample(rng, x.Rows)
	f, err := admm.NewFactorizationElasticWorkers(mat.GramWorkers(x, boot, kw), c.ADMM.Rho, c.L2, kw)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("uoi: selection bootstrap %d: %w", k, err)
	}
	f.SetRHS(mat.GramVec(x, y, boot))
	tr.Add("admm/factorizations", 1)
	sup, fits, iters = lassoPath(f.Solve, x.Cols, lambdas, jLo, jHi, warm, emit, c.ADMM, c.SupportTol)
	return sup, fits, iters, nil
}

// lassoPath sweeps one selection bootstrap's λ block [jLo, jHi) with solve
// and returns the support indicators of its p coefficients in the
// block-local flattening sup[(j−jLo)·p+i]. Each λ is warm-started from its
// neighbour's (z, u) pair — carrying only z would restart the dual at zero
// every step and forfeit most of the saved iterations (Boyd §4.3's standard
// path warm start). On a grid, warm supplies the pair the serial sweep would
// have carried into λ index jLo and emit receives the pair after jHi−1.
func lassoPath(solve func(lambda float64, opts *admm.Options) *admm.Result, p int, lambdas []float64, jLo, jHi int, warm warmFn, emit emitFn, opts admm.Options, tol float64) (sup []bool, fits, iters int) {
	sup = make([]bool, (jHi-jLo)*p)
	var warmZ, warmU []float64
	if warm != nil {
		warmZ, warmU = warm(0)
	}
	for j := jLo; j < jHi; j++ {
		o := opts
		o.WarmZ, o.WarmU = warmZ, warmU
		r := solve(lambdas[j], &o)
		warmZ, warmU = r.Beta, r.U
		fits++
		iters += r.Iters
		markSupport(sup[(j-jLo)*p:(j-jLo+1)*p], r.Beta, tol)
	}
	if emit != nil {
		emit(0, warmZ, warmU)
	}
	return sup, fits, iters
}

// markSupport sets row[i] for every coefficient with |beta[i]| > tol.
func markSupport(row []bool, beta []float64, tol float64) {
	for i, v := range beta {
		if v > tol || v < -tol {
			row[i] = true
		}
	}
}

// lassoEstCell runs estimation bootstrap k of UoI_LASSO: resample a
// train/evaluation split, fit OLS on every distinct candidate support, and
// return the estimate minimizing held-out loss (all zeros when the
// candidate family is empty). Every support is a column subset of the one
// training sample, so the cell computes XᵀX and Xᵀy once over the training
// rows and the union of the supports' columns, and each fit solves the
// sub-block G[S,S]·β = Xᵀy[S] — the same bits as a Gram built per support.
func lassoEstCell(x *mat.Dense, y []float64, root *resample.RNG, k int, distinct [][]int, c *LassoConfig, kw int) (beta []float64, fits int) {
	n, p := x.Rows, x.Cols
	rng := root.Derive(1_000_000 + uint64(k))
	trainIdx, evalIdx := resample.TrainEvalSplit(rng, n, c.TrainFrac)
	// The union of the candidate supports' columns, ascending (empty, not
	// nil, when there is no candidate: nil would mean every column), and
	// at[j], column j's position in it.
	at := make([]int, p)
	for _, s := range distinct {
		for _, j := range s {
			at[j] = 1
		}
	}
	train := mat.Sample{Rows: trainIdx, Cols: []int{}}
	for j, used := range at {
		if used != 0 {
			at[j] = len(train.Cols)
			train.Cols = append(train.Cols, j)
		}
	}
	gram := mat.GramWorkers(x, train, kw)
	xty := mat.GramVec(x, y, train)

	var best winner
	for _, s := range distinct {
		b := make([]float64, p)
		if len(s) > 0 {
			pos := make([]int, len(s))
			rhs := make([]float64, len(s))
			for i, j := range s {
				pos[i], rhs[i] = at[j], xty[at[j]]
			}
			for i, v := range olsSubBlock(gram, pos, rhs) {
				b[s[i]] = v
			}
		}
		fits++
		best.offer(heldOutLoss(x, y, evalIdx, s, b), b)
	}
	return best.estimate(p), fits
}

// heldOutLoss is ½‖y − Xβ‖² over the given evaluation rows of x, read in
// place, for a β that is zero off the support: a prediction costs |support|
// multiply-adds, not a full row.
func heldOutLoss(x *mat.Dense, y []float64, rows, support []int, beta []float64) float64 {
	sum := 0.0
	for _, i := range rows {
		xr := x.Row(i)
		r := -y[i]
		for _, j := range support {
			r += float64(xr[j] * beta[j])
		}
		sum += float64(r * r)
	}
	return 0.5 * sum
}

// addSupportCounts folds one selection cell's support indicators into the
// per-(λ, coefficient) tally, which shares the cell's flattening. The
// counts are small integers held in float64 (the type the reductions that
// combine them across ranks take), so the addition is exact and
// order-independent: the intersection is identical at any worker or rank
// count and regardless of resume order.
func addSupportCounts(counts []float64, sup []bool) {
	for i, v := range sup {
		if v {
			counts[i]++
		}
	}
}

// supportsFromCounts thresholds the tally of q λ values × p coefficients
// into the per-λ supports: the (possibly softened) intersection of eq. 3.
func supportsFromCounts(counts []float64, q, p int, threshold float64) [][]int {
	supports := make([][]int, q)
	for j := range supports {
		row := counts[j*p : (j+1)*p]
		// Size each support exactly: a vec(B) support runs to hundreds of
		// indices, which append would regrow many times over.
		n := 0
		for _, ct := range row {
			if ct >= threshold {
				n++
			}
		}
		if n == 0 {
			continue
		}
		supports[j] = make([]int, 0, n)
		for i, ct := range row {
			if ct >= threshold {
				supports[j] = append(supports[j], i)
			}
		}
	}
	return supports
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
	return designTargets(c.Order, idx)
}

// designTargets maps design-row indices of an order-d model to the series
// rows they predict.
func designTargets(d int, idx []int) []int {
	targets := make([]int, len(idx))
	for i, v := range idx {
		targets[i] = d + v
	}
	return targets
}

// varSelCellRange runs selection bootstrap k of UoI_VAR over the λ block
// [jLo, jHi) — the whole path, or one grid column's share: block-bootstrap
// target rows, assemble the design (spPhase receives the kron_assembly child
// span), factorize once. The p equations share the design and its
// factorization, so the sweep is λ-outer: each λ is one batched solve over
// all equations (admm.SolveRHSBatch, column groups over kw goroutines),
// warm-started per equation from the previous λ. The warm-start chain is
// per equation, so the handoff is too: warm(eq) supplies the (z, u) pair
// the serial sweep would carry into λ index jLo of equation eq, emit(eq)
// receives the chain state after jHi−1. Callers that pass hooks must not
// set c.WarmBeta (the seeded sweep reverses the λ order, which would
// reverse the pipeline direction); the grid rejects that combination with
// ErrPlacement. sup is the block-local flattening
// sup[(j−jLo)·betaLen + eq·rowsB + i].
func varSelCellRange(series *mat.Dense, root *resample.RNG, k, m, blockLen int, lambdas []float64, jLo, jHi int, warm warmFn, emit emitFn, c *VARConfig, kw int, tr *trace.Tracer, spPhase trace.Span) (sup []bool, fits, iters int, kron time.Duration, err error) {
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
	f, err := admm.NewFactorizationElasticWorkers(mat.AtAWorkers(des.X, kw), c.ADMM.Rho, c.L2, kw)
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
	xty := designXtY(des)
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
	t0 := time.Now()
	spK := spPhase.Child("kron_assembly")
	trainDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, designTargets(d, trainIdx))
	evalDes := varsim.NewDesignFromRows(series, d, !c.NoIntercept, designTargets(d, evalIdx))
	spK.End()
	kron = time.Since(t0)

	gram := mat.AtAWorkers(trainDes.X, kw)
	xty := designXtY(trainDes)
	var best winner
	for _, s := range distinct {
		b := olsOnVecSupport(gram, xty, s)
		fits++
		best.offer(vecLoss(evalDes, b), b)
	}
	return best.estimate(betaLen), fits, kron
}
