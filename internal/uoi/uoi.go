// Package uoi implements the Union of Intersections framework: the
// UoI_LASSO algorithm (paper Algorithm 1) and the UoI_VAR algorithm (paper
// Algorithm 2).
//
// UoI separates model selection from model estimation:
//
//   - Selection: over B1 bootstrap resamples, fit the LASSO path across a λ
//     grid; for each λ take the *intersection* of supports across
//     bootstraps (eq. 3), producing a family of candidate supports with few
//     false positives.
//   - Estimation: over B2 train/evaluation resamples, fit the unbiased OLS
//     on every candidate support, keep the support that minimizes held-out
//     loss per resample, and average ("union", eq. 4) the winning estimates
//     — low variance, and nonzero wherever any winner was nonzero.
//
// The algorithm exists once, as run(problem, placement) in engine.go: a
// problem (UoI_LASSO or UoI_VAR, over replicated data or over data
// distributed by rows) owns validation, the λ grid and the cells; a
// placement says where cells run and how their results meet — the bootstrap
// worker pool, the checkpoint journal (Checkpoint set), the P_B × P_λ
// process grid or, for the paper's baselines over data distributed by rows,
// the P_B × P_λ grid of consensus-ADMM groups. There is one
// entry point per problem — Lasso, VAR and AllPairs — and one Placement
// value on its config picks where it runs; a combination no placement runs
// is an ErrPlacement. A replicated-data fit's bits do not depend on the
// placement (DESIGN.md §17), and neither do a partitioned UoI_VAR fit's at
// its default Assembly, which broadcasts the series and runs the grid. A
// partitioned UoI_LASSO fit at its default Assembly runs the grid too, its
// ranks summing each bootstrap's Gram over the rows they hold: the serial
// fit of their blocks' concatenation, up to that sum's rounding. UoI_VAR is
// UoI_LASSO with one equation per channel: both pose a design and a target
// panel, so there is one selection cell, one λ sweep and one estimation
// cell (cells.go). Whole-network all-pairs inference (AllPairs) has its own
// loop over the same cells.
package uoi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
)

// LassoConfig configures UoI_LASSO.
type LassoConfig struct {
	// B1 is the number of selection bootstraps (default 20).
	B1 int
	// B2 is the number of estimation bootstraps (default 10).
	B2 int
	// Lambdas is the explicit regularization grid; when nil a Q-point
	// geometric grid below λ_max(X, y) is used.
	Lambdas []float64
	// Q is the λ-grid size when Lambdas is nil (default 8, the single-node
	// setting of §IV-A1).
	Q int
	// LambdaRatio is λ_min/λ_max for the generated grid (default 1e-3).
	LambdaRatio float64
	// Seed drives all resampling; a given (Seed, data) pair is fully
	// deterministic, including across rank counts.
	Seed uint64
	// TrainFrac is the estimation train/evaluation split (default 0.8).
	TrainFrac float64
	// SupportTol is the |β|>tol nonzero threshold (default 1e-7).
	SupportTol float64
	// SelectionFrac softens the intersection: a feature survives at λ_j if
	// it appears in at least SelectionFrac·B1 bootstrap supports. 0 (and 1)
	// select the paper's hard intersection (eq. 3); pyUoI exposes the same
	// relaxation as selection_frac.
	SelectionFrac float64
	// MedianUnion replaces the estimation-step averaging (Algorithm 1 line
	// 24) with an elementwise median of the per-bootstrap winners — a
	// robust variant of the union step.
	MedianUnion bool
	// Standardize centers and unit-scales the features (and centers the
	// response) before fitting, then maps the estimate back to the original
	// units and reports the intercept in Result.Intercept. LASSO penalties
	// are scale-sensitive, so raw-unit designs with heterogeneous feature
	// scales should set this.
	Standardize bool
	// L2 adds an elastic-net ℓ2 penalty ½·L2·‖β‖² to every selection solve
	// (UoI_ElasticNet). Estimation remains unbiased OLS on the selected
	// supports, i.e. the relaxed elastic net. Correlated designs select far
	// more stably with a modest L2.
	L2 float64
	// Workers is how many bootstrap cells of a phase run side by side in
	// this process (the in-process form of the paper's P_B parallelism):
	// 1 runs them one at a time. 0 runs each phase on min(GOMAXPROCS, its
	// cells) goroutines, so the cells take the cores before the kernels
	// inside them (see KernelWorkers). Results are identical at any worker
	// count.
	Workers int
	// MinBootstrapFrac enables graceful degradation under faults: when
	// positive, a failed selection or estimation bootstrap is dropped and
	// recorded in Result.Bootstrap instead of failing the whole fit, as
	// long as at least ceil(MinBootstrapFrac·B) bootstraps of each phase
	// complete (the quorum). The selection threshold and the estimation
	// union are taken over the completed bootstraps only. When the quorum
	// is not met the fit fails with an error wrapping ErrQuorum. 0 keeps
	// the strict behavior: any bootstrap error fails the whole fit.
	MinBootstrapFrac float64
	// BootstrapFault injects a failure into bootstrap k of the named phase
	// ("selection" or "estimation") — the fault-injection hook driven by
	// the chaos tests (see internal/fault). It must be a pure function of
	// (phase, k), identical on every rank, so the distributed algorithms
	// agree on the outcome without communication. nil disables injection.
	BootstrapFault func(phase string, k int) error
	// KernelWorkers bounds the goroutine parallelism inside each cell of
	// this fit: every dense kernel call (Gram and Xᵀy sweeps, GEMM,
	// Cholesky), a selection cell's batched solve across equations, and an
	// estimation cell's candidate OLS fits and held-out losses, which are
	// offered to the winner rule in candidate order, so the fit is
	// identical at any budget. 0 derives a budget from the surrounding
	// parallelism — in process, GOMAXPROCS divided by the streams a phase
	// runs on (Workers, or at Workers 0 min(GOMAXPROCS, the phase's cells),
	// set for each phase); at a placement, by the world size — floored at
	// 1, so nested parallelism never oversubscribes the machine. Negative
	// forces mat.DefaultWorkers (all cores per cell), the pre-budget
	// behavior.
	KernelWorkers int
	// Trace, when non-nil, records per-phase spans (lambda_grid, selection,
	// intersection, estimation, union and their /bootstrap children) and
	// solver counters for this fit. In the distributed algorithms each rank
	// passes its own tracer. nil disables tracing at nil-check cost.
	Trace *trace.Tracer
	// Checkpoint, when non-nil, runs the fit in checkpointed mode: completed
	// bootstrap cells are written durably to Checkpoint.Path and a crashed
	// fit resumes bit-identically, skipping them (see CheckpointConfig).
	Checkpoint *CheckpointConfig
	// Placement, when non-nil, runs the fit across the ranks of its
	// communicator, each rank passing its own Placement (see Placement).
	Placement *Placement
	// ADMM carries solver options.
	ADMM admm.Options
}

func (c *LassoConfig) defaults() LassoConfig {
	var o LassoConfig
	if c != nil {
		o = *c
	}
	positive(&o.B1, 20)
	positive(&o.B2, 10)
	positive(&o.Q, 8)
	fraction(&o.LambdaRatio, 1e-3)
	fraction(&o.TrainFrac, 0.8)
	positive(&o.SupportTol, 1e-7)
	fraction(&o.SelectionFrac, 1)
	o.MinBootstrapFrac = min(max(o.MinBootstrapFrac, 0), 1)
	if o.ADMM.Trace == nil {
		// Route the solver counters into the fit's tracer unless the caller
		// wired a dedicated one.
		o.ADMM.Trace = o.Trace
	}
	return o
}

// positive replaces a non-positive *v with the default def.
func positive[T int | float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// fraction replaces a *v outside (0, 1) with the default def.
func fraction(v *float64, def float64) {
	if *v <= 0 || *v >= 1 {
		*v = def
	}
}

// kernelBudget resolves the per-kernel-call worker budget: an explicit
// positive KernelWorkers wins, negative forces the full-machine default, and
// 0 divides GOMAXPROCS by the number of concurrent execution streams
// (a phase's bootstrap workers or mpi ranks) sharing the process, floored
// at 1. AllPairsConfig.Workers resolves by the same rule.
func kernelBudget(explicit, streams int) int {
	if explicit > 0 {
		return explicit
	}
	if explicit < 0 {
		return mat.DefaultWorkers()
	}
	return max(runtime.GOMAXPROCS(0)/max(streams, 1), 1)
}

// ErrQuorum reports that too few bootstraps of a phase completed to
// assemble even a degraded fit (see LassoConfig.MinBootstrapFrac).
var ErrQuorum = errors.New("uoi: bootstrap quorum not met")

// BootstrapStats records per-phase bootstrap attrition. In strict mode
// every bootstrap either completes or fails the fit, so Failed is always 0;
// under MinBootstrapFrac quorum mode the Failed counts tell how degraded
// the returned model is.
type BootstrapStats struct {
	B1Completed int // selection bootstraps that completed
	B1Failed    int // selection bootstraps dropped
	B2Completed int // estimation bootstraps that completed
	B2Failed    int // estimation bootstraps dropped
}

// ceilFrac computes ceil(frac·b) with an absolute epsilon guard: the float
// product can land a hair above the exact integer (0.07·100 =
// 7.000000000000001) and Ceil would then overshoot by one, silently
// tightening every threshold derived from a user-facing fraction.
func ceilFrac(frac float64, b int) int {
	return int(math.Ceil(float64(frac*float64(b)) - 1e-9))
}

// ceilCount is ceil(frac·b) clamped to [1, b]: the completed bootstraps a
// quorum needs, and the bootstraps a feature needs to survive selection.
func ceilCount(frac float64, b int) int {
	return min(max(ceilFrac(frac, b), 1), b)
}

// combineWinners reduces the B2 winning estimates to the final β*: the mean
// (the paper's averaging union) or the elementwise median.
func combineWinners(winners [][]float64, p int, median bool) []float64 {
	out := make([]float64, p)
	if len(winners) == 0 {
		return out
	}
	if !median {
		for _, w := range winners {
			mat.Axpy(out, 1, w)
		}
		mat.ScaleVec(out, 1/float64(len(winners)))
		return out
	}
	col := make([]float64, len(winners))
	for i := 0; i < p; i++ {
		for k, w := range winners {
			col[k] = w[i]
		}
		out[i] = median64(col)
	}
	return out
}

// median64 returns the median of xs (xs is scrambled in place).
func median64(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

// Diagnostics reports where a UoI run spent its time and work, mirroring
// the phase breakdown the paper reports (computation vs communication vs
// distribution; Figures 2 and 7).
type Diagnostics struct {
	SelectionTime  time.Duration // wall time of the selection phase
	EstimationTime time.Duration // wall time of the estimation phase
	LassoFits      int           // LASSO solves in selection
	OLSFits        int           // OLS solves in estimation
	ADMMIters      int           // total ADMM iterations across all solves
	// Unconverged counts the ADMM solves that stopped at ADMM.MaxIter
	// without meeting their tolerances: selection solves, and a consensus
	// baseline's estimation solves. A grid sums the counters above over its
	// ranks; this one stays the rank's own.
	Unconverged int
}

// solved adds an ADMM solve's iterations, and counts it when it stopped
// unconverged.
func (d *Diagnostics) solved(r *admm.Result) {
	d.ADMMIters += r.Iters
	if !r.Converged {
		d.Unconverged++
	}
}

// Result is a fitted UoI model.
type Result struct {
	// Beta is the final averaged estimate β* (Algorithm 1 line 24).
	Beta []float64
	// Lambdas is the grid actually used.
	Lambdas []float64
	// Supports holds the per-λ intersected supports S_j (Algorithm 1
	// line 10), in λ order.
	Supports [][]int
	// SelectedSupport is the nonzero set of Beta.
	SelectedSupport []int
	// Intercept is the fitted offset when Standardize was set (0 otherwise).
	Intercept float64
	// Bootstrap reports how many bootstraps completed vs were dropped
	// (degraded quorum mode; see LassoConfig.MinBootstrapFrac).
	Bootstrap BootstrapStats
	// Diag reports timing/work counters.
	Diag Diagnostics
}

// Lasso runs UoI_LASSO on design x and response y at cfg.Placement: in
// this process when it is nil — bootstraps on cfg.Workers goroutines (at
// 0, one per core up to a phase's cells), journalled when cfg.Checkpoint is
// set — and otherwise across its ranks,
// each passing the full data or, Partitioned, its own row block. By default
// a partitioned fit is the serial fit of the blocks' rank-order
// concatenation: bit for bit on one rank, and up to the rounding of the
// statistics' cross-rank sums on more. Every rank returns the identical
// Result.
func Lasso(x *mat.Dense, y []float64, cfg *LassoConfig) (*Result, error) {
	c := cfg.defaults()
	pl, err := c.Placement.place(c.ask())
	if err != nil {
		return nil, err
	}
	var pb *problem
	var scaler *preprocess.Scaler
	if at := c.Placement; at != nil && at.Partitioned {
		xEst, yEst := x, y
		if at.EstX != nil {
			xEst, yEst = at.EstX, at.EstY
		}
		if cons, ok := pl.(*consensus); ok {
			pb, scaler, err = newLassoConsensusProblem(cons, x, y, xEst, yEst, &c)
		} else {
			pb, scaler, err = newLassoSharedProblem(at.Comm, x, y, xEst, yEst, &c)
		}
	} else {
		pb, scaler, err = newLassoProblem(x, y, &c, pl.streams())
	}
	if err != nil {
		return nil, err
	}
	res, err := run(pb, pl)
	if err != nil {
		return nil, err
	}
	// A problem posed in standardized space maps its estimate back to
	// original units.
	if scaler != nil {
		res.Beta, res.Intercept = scaler.InverseBeta(res.Beta)
	}
	res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
	return res, nil
}

// newLassoProblem binds UoI_LASSO (Algorithm 1) to a design and response
// every process holds whole: the replicated problem with the response as
// its one target, bootstrapped by weighted distinct rows and split by
// TrainEvalSplit. c is already defaulted; streams is the placement's count
// of execution streams sharing the process. With c.Standardize the problem
// is posed in standardized space and the returned scaler maps the estimate
// back.
func newLassoProblem(x *mat.Dense, y []float64, c *LassoConfig, streams int) (*problem, *preprocess.Scaler, error) {
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, nil, fmt.Errorf("uoi: %d rows but %d responses", n, len(y))
	}
	if n < 4 {
		return nil, nil, fmt.Errorf("uoi: need at least 4 samples, have %d", n)
	}
	var scaler *preprocess.Scaler
	if c.Standardize {
		// Replicated data: every rank of a distributed placement fits the
		// identical scaler locally, so the transform needs no communication.
		scaler = preprocess.FitXY(x, y)
		x, y = scaler.Transform(x), scaler.TransformY(y)
	}
	root := resample.NewRNG(c.Seed)
	pb := newProblem(c, 1, p, streams)
	pb.replicated(c, x, column(y),
		func(k int) mat.Sample { return bootstrapSample(root.Derive(uint64(k)+1), n) },
		func(k int) ([]int, []int) {
			return resample.TrainEvalSplit(root.Derive(1_000_000+uint64(k)), n, c.TrainFrac)
		})
	pb.meta = func() checkpoint.Meta {
		return checkpoint.Meta{
			Kind: checkpoint.KindLasso, Seed: c.Seed, B1: c.B1, B2: c.B2,
			P: p, Q: len(pb.lambdas), Fingerprint: lassoFingerprint(x, y, c),
		}
	}
	return pb, scaler, nil
}

// newLassoSharedProblem binds UoI_LASSO to row blocks distributed over the
// ranks of world — selection cells over (xSel, ySel), estimation cells over
// (xEst, yEst) — as the serial problem over each pair's rank-order
// concatenation, one bootstrap per rank and round. Every bootstrap and split
// is drawn in those global row coordinates from the serial seeds, and each
// rank sums the Gram and Xᵀy of the drawn rows it owns. The problem's
// statistics step completes a round's sums one bootstrap at a time, one
// Allreduce each, and keeps only those of this rank's cell, so a rank holds
// O(p²) statistics whatever the rank count; the serial cell bodies run on
// them. In estimation every rank also scores every candidate on its own
// evaluation rows, and one more Allreduce per round sums those losses.
func newLassoSharedProblem(world *mpi.Comm, xSel *mat.Dense, ySel []float64, xEst *mat.Dense, yEst []float64, c *LassoConfig) (*problem, *preprocess.Scaler, error) {
	sp := c.Trace.Start("row_blocks")
	sel, est, err := agreeBlocks(world, xSel, ySel, xEst, yEst)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	p, me := xSel.Cols, world.Rank()
	var scaler *preprocess.Scaler
	if c.Standardize {
		// Global moments agreed by Allreduce; both phases share the scaler.
		scaler = preprocess.FitDistributed(world, xSel, ySel)
		xSel, ySel = scaler.Transform(xSel), scaler.TransformY(ySel)
		xEst, yEst = scaler.Transform(xEst), scaler.TransformY(yEst)
	}
	sp.End()
	pb := newProblem(c, 1, p, world.Size())
	pb.setLambdas(c, func() float64 {
		xty := mat.AtVecWorkers(xSel, ySel, pb.kw)
		world.Allreduce(mpi.OpSum, xty)
		return mat.NormInf(xty)
	})
	root := resample.NewRNG(c.Seed)
	yS, yE := column(ySel), column(yEst)
	// This rank's statistics for its cell of the round in progress: a
	// selection cell's Gram and Xᵀy, an estimation cell's fitted candidates
	// and their held-out losses summed over the ranks.
	var selGram, selXty *mat.Dense
	var estBetas [][]float64
	var estLosses []float64
	pb.stats = func(ph phase, ks []int) {
		sp := ph.span.Child("statistics")
		defer sp.End()
		// Every rank skips the bootstraps a fault drops (pure in (phase, k))
		// and the ranks with no cell, so the collectives line up.
		live := func(k int) bool { return k >= 0 && (pb.fault == nil || pb.fault(ph.name, k) == nil) }
		if ph.name == "selection" {
			selGram, selXty = nil, nil
			for r, k := range ks {
				if !live(k) {
					continue
				}
				boot := sel.sample(bootstrapSample(root.Derive(uint64(k)+1), sel.total))
				gram, xty := mat.Stats(xSel, yS, boot, pb.kw)
				if sumStats(world, gram, xty.Data); r == me {
					selGram, selXty = gram, xty
				}
			}
			return
		}
		cols, at := supportColumns(ph.distinct, p)
		nd := len(ph.distinct)
		losses := make([]float64, len(ks)*nd)
		estBetas, estLosses = nil, losses[me*nd:(me+1)*nd]
		for r, k := range ks {
			if !live(k) {
				continue
			}
			trainIdx, evalIdx := resample.TrainEvalSplit(root.Derive(1_000_000+uint64(k)), est.total, c.TrainFrac)
			gram, xty := mat.Stats(xEst, yE, mat.Sample{Rows: est.rows(trainIdx), Cols: cols}, pb.kw)
			sumStats(world, gram, xty.Data)
			fitCandidates(xEst, yE, gram, xty, at, est.rows(evalIdx), ph.distinct, pb.kw, func(j int, loss float64, beta []float64) {
				if losses[r*nd+j] = loss; r == me {
					estBetas = append(estBetas, beta)
				}
			})
		}
		if len(losses) > 0 {
			world.Allreduce(mpi.OpSum, losses)
		}
	}
	pb.selCell = func(k, jLo, jHi int, warm warmFn, emit emitFn, _ trace.Span) ([]bool, error) {
		return pb.sel(k, selGram, selXty, jLo, jHi, warm, emit)
	}
	pb.estCell = func(k int, distinct [][]int, _ trace.Span) ([]float64, error) {
		var best winner
		for j, b := range estBetas {
			best.offer(estLosses[j], b)
		}
		pb.add(Diagnostics{OLSFits: len(distinct)}, 0)
		return best.estimate(p), nil
	}
	return pb, scaler, nil
}

// rowBlock is one rank's share of a partitioned fit's rows: rows [off,
// off+n) of the rank-order concatenation of every rank's block, total rows
// in all.
type rowBlock struct{ off, n, total int }

// rows maps global row indices to this block's local ones, keeping their
// order and dropping the rows other ranks own.
func (b rowBlock) rows(global []int) []int {
	local := []int{} // never nil: a nil Sample.Rows means every row
	for _, i := range global {
		if i >= b.off && i < b.off+b.n {
			local = append(local, i-b.off)
		}
	}
	return local
}

// sample restricts a bootstrap sample, whose rows ascend, to this block.
func (b rowBlock) sample(s mat.Sample) mat.Sample {
	lo, hi := sort.SearchInts(s.Rows, b.off), sort.SearchInts(s.Rows, b.off+b.n)
	local := make([]int, hi-lo)
	for i, r := range s.Rows[lo:hi] {
		local[i] = r - b.off
	}
	return mat.Sample{Rows: local, Weights: s.Weights[lo:hi]}
}

// agreeBlocks has the ranks of world agree, before any of them leaves the
// collective sequence, that every rank's selection and estimation blocks
// are well formed over the same columns, and returns this rank's share of
// each phase's rows. The error is the same on every rank.
func agreeBlocks(world *mpi.Comm, xSel *mat.Dense, ySel []float64, xEst *mat.Dense, yEst []float64) (sel, est rowBlock, err error) {
	ok := 1.0
	if xSel.Rows != len(ySel) || xEst.Rows != len(yEst) || xEst.Cols != xSel.Cols {
		ok = 0
	}
	all := world.Allgather([]float64{ok, float64(xSel.Cols), float64(xSel.Rows), float64(xEst.Rows)})
	for r := 0; r < world.Size(); r++ {
		v := all[4*r : 4*r+4]
		if v[0] == 0 || v[1] != all[1] {
			return sel, est, fmt.Errorf("uoi: rank %d's row block does not match its responses or the other ranks' columns", r)
		}
		if r == world.Rank() {
			sel.off, est.off = sel.total, est.total
			sel.n, est.n = int(v[2]), int(v[3])
		}
		sel.total += int(v[2])
		est.total += int(v[3])
	}
	if sel.total < 4 || est.total < 4 {
		return sel, est, fmt.Errorf("uoi: need at least 4 samples, have %d for selection and %d for estimation", sel.total, est.total)
	}
	return sel, est, nil
}

// sumStats sums a symmetric Gram and its Xᵀy over the ranks of world in
// place, with one Allreduce of the Gram's upper triangle and Xᵀy: the
// triangle is all the sum needs to move, and mirroring it back is exact. No
// columns, which every rank has alike, need no call.
func sumStats(world *mpi.Comm, gram *mat.Dense, xty []float64) {
	p := gram.Rows
	if p == 0 {
		return
	}
	buf := make([]float64, 0, p*(p+1)/2+p)
	for i := 0; i < p; i++ {
		buf = append(buf, gram.Row(i)[i:]...)
	}
	buf = append(buf, xty...)
	world.Allreduce(mpi.OpSum, buf)
	pos := 0
	for i := 0; i < p; i++ {
		pos += copy(gram.Row(i)[i:], buf[pos:pos+p-i])
		for j := i + 1; j < p; j++ {
			gram.Data[j*p+i] = gram.Data[i*p+j]
		}
	}
	copy(xty, buf[pos:])
}

// ask is what the fit asks of its placement.
func (c *LassoConfig) ask() fitAsk {
	return fitAsk{fit: "Lasso", ckpt: c.Checkpoint, workers: c.Workers, tr: c.Trace}
}

// CheckPlacement returns the ErrPlacement a fit of c would, from the config
// alone and before any data is read. With a nil c.Placement.Comm the checks
// against the rank count wait for the fit.
func (c *LassoConfig) CheckPlacement() error { return c.Placement.check(c.ask()) }

// column views y as the one-column target panel of a single equation.
func column(y []float64) *mat.Dense { return mat.NewDenseData(len(y), 1, y) }

// dedupeSupports removes duplicate candidate supports (identical supports
// produce identical OLS fits; the paper's family S may repeat across λ).
// The empty support is kept if present — it corresponds to the null model.
func dedupeSupports(supports [][]int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	var key []byte
	for _, s := range supports {
		key = appendSupportKey(key[:0], s)
		// The lookup reads key in place; only a new support copies it.
		if !seen[string(key)] {
			seen[string(key)] = true
			cp := make([]int, len(s))
			copy(cp, s)
			sort.Ints(cp)
			out = append(out, cp)
		}
	}
	return out
}

// appendSupportKey appends a collision-free map key for a support to b:
// 4 bytes per index covers betaLen = rowsB·p well past 2²⁴, where the
// previous 3-byte packing silently aliased distinct whole-brain-scale vec
// supports.
func appendSupportKey(b []byte, s []int) []byte {
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}
