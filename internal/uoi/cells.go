package uoi

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
)

// This file holds the per-bootstrap *cell* computations of UoI, once for
// every problem: a design X (n×q) and a target panel Y (n×t) with one column
// per equation — UoI_LASSO's response, or the p channels of UoI_VAR's lagged
// design, whose vectorised problem (I ⊗ X) is block separable. Equation e's
// coefficients are β[e·q : (e+1)·q]. A selection cell fits the λ path of
// every equation from one sample's XᵀX and XᵀY (one mat.Stats sweep) and
// reports per-(λ, coefficient) support indicators; an estimation cell fits
// OLS on every candidate support from a training sample's statistics and
// reports the held-out winner. A mat.Sample names a cell's rows, never a gathered copy.
// Each cell is a pure function of (data, root seed, cell index) —
// independent of worker counts, rank counts, and every other cell — which is
// what makes UoI embarrassingly parallel and, in checkpointed execution,
// independently resumable. Every placement of the engine (engine.go) runs
// these bodies, so a cell reproduces the same bits wherever it runs; over
// data distributed by rows they run on statistics summed across the ranks
// (uoi.go), and the consensus baselines and all-pairs inference share the λ
// sweep.

// warmFn supplies the (z, u) pair a selection cell's warm-start chain
// carries into its first λ, and emitFn receives the chain's state after its
// last: together they hand the λ path of one bootstrap from one grid column
// to the next. A cell has one chain per equation. It calls every warm before
// its first solve and every emit after its last, chains in ascending order.
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

// path is what a selection cell needs besides its statistics: the λ grid and
// how each solve on it runs.
type path struct {
	lambdas []float64
	opts    admm.Options // opts.Rho ≤ 0 scales ρ to each Gram's mean diagonal
	l2      float64      // the elastic-net ℓ2 weight of every selection solve
	tol     float64      // the |β| > tol support threshold
	// seed, when set, starts equation e's chain from seed[e·q : (e+1)·q], a
	// previous model's coefficients (VARConfig.WarmBeta).
	seed []float64
	kw   int           // the kernel budget of the cell's kernels and batched solve
	tr   *trace.Tracer // receives admm/factorizations
}

// cell is the body of a selection bootstrap over the λ block [jLo, jHi), on
// its sample's statistics gram = XᵀX and xty = XᵀY: factorize once, then
// sweep every equation's chain as one batch (admm.SolveRHSBatchTo, whose
// column e is bit for bit SolveRHS of equation e). The whole path is the
// block [0, len(lambdas)) with nil hooks; on a grid the hooks continue the
// exact serial warm-start chains across columns, so a grid fit's supports
// are bit-identical to serial by construction.
func (pa *path) cell(gram, xty *mat.Dense, jLo, jHi int, warm warmFn, emit emitFn) ([]bool, Diagnostics, error) {
	f, err := admm.NewFactorizationElasticWorkers(gram, pa.opts.Rho, pa.l2, pa.kw)
	if err != nil {
		return nil, Diagnostics{}, err
	}
	pa.tr.Add("admm/factorizations", 1)
	solve := func(out []admm.Result, lambda float64, warmZ, warmU [][]float64) {
		f.SolveRHSBatchTo(out, xty, lambda, warmZ, warmU, &pa.opts, pa.kw)
	}
	sup, d := sweep(solve, xty.Cols, xty.Rows, pa.lambdas, jLo, jHi, warm, emit, pa.seed, pa.tol)
	return sup, d, nil
}

// batchFn solves one λ for every warm-start chain of a selection cell into
// out: result e continues chain e from (warmZ[e], warmU[e]), a nil pair
// starting cold, and may reuse the pair out[e] holds.
type batchFn func(out []admm.Result, lambda float64, warmZ, warmU [][]float64)

// sweep runs one selection bootstrap's λ block [jLo, jHi) over its `chains`
// warm-start chains of chainLen coefficients and returns the support
// indicators in the block-local flattening sup[(j−jLo)·chains·chainLen +
// chain·chainLen + i], with the solves' work. Each λ is warm-started from its
// neighbour's (z, u) pair — z alone would restart the dual at zero every
// step (Boyd §4.3). On a grid, warm supplies the pairs the serial sweep
// would carry into λ index jLo and emit receives the pairs after jHi−1. The
// λ grid descends from λ_max, where the cold solution is near zero; a seed
// approximates the small-λ solutions, so a seeded sweep runs smallest-λ
// first, and the grid, which hands chains rightwards, rejects one.
func sweep(solve batchFn, chains, chainLen int, lambdas []float64, jLo, jHi int, warm warmFn, emit emitFn, seed []float64, tol float64) (sup []bool, d Diagnostics) {
	width := chains * chainLen
	sup = make([]bool, (jHi-jLo)*width)
	order := make([]int, jHi-jLo)
	for i := range order {
		order[i] = jLo + i
	}
	warmZ, warmU := make([][]float64, chains), make([][]float64, chains)
	if seed != nil {
		for e := range warmZ {
			warmZ[e] = seed[e*chainLen : (e+1)*chainLen]
		}
		slices.Reverse(order)
	}
	if warm != nil {
		for e := range warmZ {
			warmZ[e], warmU[e] = warm(e)
		}
	}
	// Two result sets alternate along the path: a step overwrites the pairs
	// of the step before last, which no warm start holds any more. They are
	// the sweep's own, so the pairs handed to emit are never reused.
	outs := [2][]admm.Result{make([]admm.Result, chains), make([]admm.Result, chains)}
	for step, j := range order {
		res := outs[step%2]
		solve(res, lambdas[j], warmZ, warmU)
		for e := range res {
			r := &res[e]
			warmZ[e], warmU[e] = r.Beta, r.U
			d.LassoFits++
			d.solved(r)
			markSupport(sup[(j-jLo)*width+e*chainLen:], r.Beta, tol)
		}
	}
	if emit != nil {
		for e := range warmZ {
			emit(e, warmZ[e], warmU[e])
		}
	}
	return sup, d
}

// markSupport sets row[i] for every coefficient with |beta[i]| > tol.
func markSupport(row []bool, beta []float64, tol float64) {
	for i, v := range beta {
		if v > tol || v < -tol {
			row[i] = true
		}
	}
}

// supportColumns returns the union of the candidate supports' design
// columns (coefficient g is column g mod q), ascending — empty, not nil, when
// there is no candidate: a nil Sample.Cols would mean every column — and
// at[j], column j's position in it.
func supportColumns(distinct [][]int, q int) (cols, at []int) {
	at = make([]int, q)
	for _, s := range distinct {
		for _, g := range s {
			at[g%q] = 1
		}
	}
	cols = []int{}
	for j, used := range at {
		if used != 0 {
			at[j] = len(cols)
			cols = append(cols, j)
		}
	}
	return cols, at
}

// fitCandidates is the body of an estimation bootstrap on its training
// statistics over the support columns (gram, xty and at as supportColumns
// gives them): it fits every candidate support (ascending, as dedupeSupports
// leaves them) by OLS equation by equation — equation e with support columns
// S solves the sub-block gram[S,S]·β = xty[S,e], the same bits as a Gram
// built for S alone — scores the fit by heldOut over the evaluation rows of
// (x, y), and hands both to offer, candidates in order.
//
// Every candidate is an independent OLS, so the fits and their losses run
// on up to `workers` goroutines (mat.ParallelFor, counted by PeakWorkers),
// each claiming the next unfitted candidate — later candidates have larger
// supports, so a contiguous split would be unbalanced — and storing its
// coefficients and loss at the candidate's index. offer then runs on the
// caller, in candidate order, after all of them: it sees the sequence a
// single worker produces, bit for bit. At one worker, or with fewer than
// two candidates, mat.ParallelFor runs the loop on the caller. Each worker
// draws its scratch — positions, right-hand side and the factor
// (admm.OLSOnBlock) — from a pool, so the call allocates the coefficient
// vectors it hands out and the two slices holding them until the offers.
func fitCandidates(x, y, gram, xty *mat.Dense, at, eval []int, distinct [][]int, workers int, offer func(j int, loss float64, beta []float64)) {
	q, eqs := x.Cols, y.Cols
	betas := make([][]float64, len(distinct))
	losses := make([]float64, len(distinct))
	var next atomic.Int64
	w := min(workers, len(distinct))
	mat.ParallelFor(w, w, func(int, int) {
		sc := olsScratchPool.Get().(*olsScratch)
		for j := int(next.Add(1)) - 1; j < len(distinct); j = int(next.Add(1)) - 1 {
			betas[j] = sc.fit(gram, xty, at, distinct[j], q, eqs)
			losses[j] = heldOut(x, y, eval, betas[j])
		}
		olsScratchPool.Put(sc)
	})
	for j, beta := range betas {
		offer(j, losses[j], beta)
	}
}

// olsScratch is one estimation worker's scratch: a support's Gram
// positions, its right-hand side and the factor of its sub-block.
type olsScratch struct {
	pos       []int
	rhs, chol []float64
}

// olsScratchPool keeps olsScratch values between estimation cells, so a
// worker's buffers have grown to the largest support it met.
var olsScratchPool = sync.Pool{New: func() any { return new(olsScratch) }}

// fit solves support s (coefficient g is column g mod q of equation g/q) by
// OLS, one sub-block of gram per equation, into a fresh β of q·eqs
// coefficients.
func (sc *olsScratch) fit(gram, xty *mat.Dense, at, s []int, q, eqs int) []float64 {
	beta := make([]float64, q*eqs)
	for lo, hi := 0, 0; lo < len(s); lo = hi {
		e := s[lo] / q
		for hi = lo; hi < len(s) && s[hi]/q == e; hi++ {
		}
		sc.pos, sc.rhs = sc.pos[:0], sc.rhs[:0]
		for _, g := range s[lo:hi] {
			sc.pos = append(sc.pos, at[g%q])
			sc.rhs = append(sc.rhs, xty.At(at[g%q], e))
		}
		sc.chol = admm.OLSOnBlock(gram, sc.pos, sc.rhs, sc.chol)
		for i, v := range sc.rhs {
			beta[s[lo+i]] = v
		}
	}
	return beta
}

// heldOut is ½‖Y − Xβ‖² over the given rows of (x, y), read in place,
// summed equation by equation into one running sum. A prediction reads only
// its equation's nonzero coefficients: candidates are sparse, so it costs
// |support| multiply-adds, not a full design row.
func heldOut(x, y *mat.Dense, rows []int, beta []float64) float64 {
	q := x.Cols
	sum := 0.0
	var nz []int
	for e := 0; e < y.Cols; e++ {
		b := beta[e*q : (e+1)*q]
		nz = nz[:0]
		for j, v := range b {
			if v != 0 {
				nz = append(nz, j)
			}
		}
		for _, i := range rows {
			xr := x.Row(i)
			r := y.At(i, e)
			for _, j := range nz {
				r -= float64(xr[j] * b[j])
			}
			sum += float64(r * r)
		}
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

// varSelRows derives UoI_VAR selection bootstrap k's design rows in draw
// order, repeats kept: window-relative moving blocks by default, or grid
// blocks at absolute stream coordinates when c.Anchored.
func varSelRows(root *resample.RNG, k, m, blockLen int, c *VARConfig) []int {
	rng := root.Derive(uint64(k) + 1)
	if c.Anchored {
		// Design row t sits at absolute stream row Anchor + Order + t.
		return resample.AnchoredBlockBootstrap(rng, c.Anchor+int64(c.Order), m, blockLen)
	}
	return resample.MovingBlockBootstrap(rng, m, blockLen)
}

// varSelTargets is varSelRows as the series rows the design rows predict:
// what the Kronecker baseline's assembly reads.
func varSelTargets(root *resample.RNG, k, m, blockLen int, c *VARConfig) []int {
	return designTargets(c.Order, varSelRows(root, k, m, blockLen, c))
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
