package uoi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/trace"
)

// This file holds the UoI algorithm — paper Algorithms 1 and 2 are one
// skeleton: B1 selection bootstraps × a λ path, an intersection, B2
// estimation bootstraps, a union — exactly once, in three parts:
//
//   - a problem owns what differs between fits: validation, the λ grid, the
//     cells (cells.go: one selection and one estimation body over a design
//     and a target panel, bound to replicated data by replicated below or,
//     over data distributed by rows, run on statistics summed across ranks,
//     uoi.go; or the consensus-ADMM baselines, consensus.go), the fault and
//     quorum policy and the checkpoint identity;
//   - a placement says where cells run and how their results meet: the
//     bootstrap worker pool (below), the checkpoint journal (checkpointed.go),
//     the P_B × P_λ process grid (grid.go) or the P_B × P_λ grid of
//     consensus-ADMM groups (consensus.go) — the follow-up paper's
//     P_B × P_λ × ADMM_cores decomposition (arXiv 1808.06992), with
//     ADMM_cores = 1 on the replicated-data grid;
//   - run owns everything else: spans, injected faults, the quorum rule, the
//     threshold over completed bootstraps, dedupe, union, Diag.
//
// Every result a placement moves between cells is an exact integer count or
// an untouched copy of a cell's output, and every replicated-data cell is a
// pure function of (data, seed, index), so those fits' bits do not depend on
// the placement (DESIGN.md §17). Lasso and VAR are run at the (problem,
// placement) their config's Placement value names (placement.go).

// problem is a UoI fit with its data bound: everything run and a placement
// need to know about the algorithm being fitted.
type problem struct {
	// path is the λ grid, computed once at the fit's kernel budget, with the
	// settings of every selection solve on it and the fit's tracer.
	path
	b1, b2 int // selection and estimation bootstrap counts
	p      int // coefficients: features, or the length of vec(B)
	// chains is how many warm-start chains a selection cell carries along
	// the λ path (one per equation) and chainLen the coefficients in each; a
	// grid sizes and tags its column handoff by them.
	chains, chainLen int
	selFrac          float64 // soft-intersection fraction
	median           bool    // median instead of mean in the union
	quorum           float64 // MinBootstrapFrac; 0 = any cell failure fails the fit
	kernelWorkers    int     // KernelWorkers as configured; path.kw is its resolution
	// fault is the injected-failure hook (nil = none), pure in (phase, k).
	fault func(phase string, k int) error
	// meta is the fit's checkpoint identity. It hashes the data, so only a
	// placement that journals asks for it.
	meta func() checkpoint.Meta
	// selCell runs selection bootstrap k over the λ block [jLo, jHi) and
	// returns its block-local support indicators; estCell runs estimation
	// bootstrap k over the candidate supports and returns the winner. Both
	// account their work through add; phase receives child spans.
	selCell func(k, jLo, jHi int, warm warmFn, emit emitFn, phase trace.Span) ([]bool, error)
	estCell func(k int, distinct [][]int, phase trace.Span) ([]float64, error)
	// agree, set by a placement whose cells span several ranks, makes those
	// ranks agree whether every one of them can run a cell under quorum. A
	// cell calls it (through ready) between building its solver and its
	// first collective solve; attempt calls it for a cell a fault skips.
	agree func(phase string, ok bool) bool
	// stats, set by a problem whose cells read sums over every rank's rows
	// (partitioned UoI_LASSO, on a grid of one column), is the phase's
	// collective statistics step: the grid calls it on every rank with the
	// same round of cells — ks[r] is world rank r's bootstrap, −1 for none —
	// before any rank runs its cell of the round.
	stats func(ph phase, ks []int)

	mu   sync.Mutex // guards diag and kron: cells run concurrently on a pool
	diag Diagnostics
	kron time.Duration // design-assembly time (UoI_VAR)
}

// add accounts the work one cell performed, and counts its unconverged
// solves on the tracer as admm/unconverged.
func (pb *problem) add(d Diagnostics, kron time.Duration) {
	pb.mu.Lock()
	pb.diag.LassoFits += d.LassoFits
	pb.diag.OLSFits += d.OLSFits
	pb.diag.ADMMIters += d.ADMMIters
	pb.diag.Unconverged += d.Unconverged
	pb.kron += kron
	pb.mu.Unlock()
	if d.Unconverged > 0 {
		pb.tr.Add("admm/unconverged", int64(d.Unconverged))
	}
}

// newProblem starts a fit of c over `chains` equations of chainLen
// coefficients each: its bootstrap, intersection, union and quorum rules, and
// its selection solves' settings at the kernel budget of a fit sharing the
// process with `streams` execution streams — or, at 0 streams, at the
// budget of one stream until a placement that sizes each phase itself (the
// pool) calls setStreams. UoI_VAR passes the LassoConfig of its vectorised
// problem (VARConfig.vec). The caller fixes the λ grid (setLambdas) and
// binds the cells — replicated, or over data distributed by rows.
func newProblem(c *LassoConfig, chains, chainLen, streams int) *problem {
	pb := &problem{
		path: path{opts: c.ADMM, l2: c.L2, tol: c.SupportTol, tr: c.Trace},
		b1:   c.B1, b2: c.B2, p: chains * chainLen, chains: chains, chainLen: chainLen,
		selFrac: c.SelectionFrac, median: c.MedianUnion,
		quorum: c.MinBootstrapFrac, fault: c.BootstrapFault, kernelWorkers: c.KernelWorkers,
	}
	if streams > 0 {
		pb.setStreams(streams)
	} else {
		pb.kw = kernelBudget(c.KernelWorkers, 1)
	}
	return pb
}

// setStreams sets the kernel budget of cells run on `streams` execution
// streams sharing the process and records both on the tracer as the max
// gauges uoi/streams and mat/kernel_workers. No cell may be running.
func (pb *problem) setStreams(streams int) {
	pb.kw = kernelBudget(pb.kernelWorkers, streams)
	pb.tr.SetMax("uoi/streams", int64(streams))
	pb.tr.SetMax("mat/kernel_workers", int64(pb.kw))
}

// setLambdas fixes the λ grid: c.Lambdas, or c.Q points from lmax() down to
// c.LambdaRatio·lmax (traced as lambda_grid).
func (pb *problem) setLambdas(c *LassoConfig, lmax func() float64) {
	sp := pb.tr.Start("lambda_grid")
	if pb.lambdas = c.Lambdas; pb.lambdas == nil {
		pb.lambdas = admm.LogSpaceLambdas(lmax(), c.LambdaRatio, c.Q)
	}
	sp.End()
}

// replicated binds pb to data every process holds whole: the design x and
// the target panel y, one column per equation. Selection bootstrap k sums
// their statistics over sample(k); estimation bootstrap k fits on the
// training rows split(k) returns first and scores on the evaluation rows it
// returns second. Without c.Lambdas the grid starts at λ_max = ‖XᵀY‖∞.
func (pb *problem) replicated(c *LassoConfig, x, y *mat.Dense, sample func(k int) mat.Sample, split func(k int) (train, eval []int)) {
	pb.setLambdas(c, func() float64 { return mat.NormInf(mat.MulAtB(x, y).Data) })
	pb.selCell = func(k, jLo, jHi int, warm warmFn, emit emitFn, _ trace.Span) ([]bool, error) {
		gram, xty := mat.Stats(x, y, sample(k), pb.kw)
		return pb.sel(k, gram, xty, jLo, jHi, warm, emit)
	}
	pb.estCell = func(k int, distinct [][]int, _ trace.Span) ([]float64, error) {
		train, eval := split(k)
		cols, at := supportColumns(distinct, x.Cols)
		gram, xty := mat.Stats(x, y, mat.Sample{Rows: train, Cols: cols}, pb.kw)
		var best winner
		fitCandidates(x, y, gram, xty, at, eval, distinct, pb.kw, func(_ int, loss float64, beta []float64) { best.offer(loss, beta) })
		pb.add(Diagnostics{OLSFits: len(distinct)}, 0)
		return best.estimate(pb.p), nil
	}
}

// sel runs selection bootstrap k's cell on its statistics and accounts its
// work.
func (pb *problem) sel(k int, gram, xty *mat.Dense, jLo, jHi int, warm warmFn, emit emitFn) ([]bool, error) {
	sup, d, err := pb.cell(gram, xty, jLo, jHi, warm, emit)
	if err != nil {
		return nil, fmt.Errorf("uoi: selection bootstrap %d: %w", k, err)
	}
	pb.add(d, 0)
	return sup, nil
}

// placement says where a fit's cells run and how their results meet. Its
// methods are called once each, in declaration order, by run. A placement
// spanning several processes returns the same values on every one of them.
type placement interface {
	// streams is the number of execution streams sharing this process for
	// the whole fit (mpi ranks): the divisor of the kernel budget. It is 0
	// for the pool, which sizes every phase's streams and budget itself.
	streams() int
	// begin binds the placement to the problem before any cell runs.
	begin(pb *problem) error
	// selection runs every selection bootstrap that is not already on
	// record and returns how many are complete. A cell that fails is
	// dropped when ph.quorum and fails the fit otherwise.
	selection(ph phase) (completed int, err error)
	// supports thresholds the completed selection cells' per-(λ,
	// coefficient) counts into the per-λ supports.
	supports(threshold int) [][]int
	// estimation runs the estimation bootstraps likewise and returns their
	// winners by bootstrap index, nil where one was dropped.
	estimation(ph phase) (winners [][]float64, err error)
	// totals sums the work counters over the processes that shared the
	// fit's cells (a no-op where each process reports its own share).
	totals(d *Diagnostics)
}

// phase is one bootstrap phase (selection or estimation) of a running fit:
// the cells as a placement runs them, wrapped in what every placement
// shares. It is passed by value: nothing in it changes once the phase has
// begun but the entries of errs.
type phase struct {
	pb       *problem
	name     string // "selection" | "estimation"
	total    int    // B1 or B2
	quorum   bool   // a failed cell is dropped (and counted against the quorum), not fatal
	span     trace.Span
	distinct [][]int // estimation: the candidate supports
	errs     []error // quorum: the cell errors this process saw, by bootstrap
}

func (pb *problem) newPhase(name string, total int) phase {
	ph := phase{pb: pb, name: name, total: total, quorum: pb.quorum > 0, span: pb.tr.Start(name)}
	if ph.quorum {
		ph.errs = make([]error, total)
	}
	return ph
}

// attempt runs bootstrap k's cell under the injected fault and a bootstrap
// span, and under quorum records its failure as a dropped bootstrap.
func (ph phase) attempt(k int, cell func() error) error {
	var err error
	if ph.pb.fault != nil {
		if ferr := ph.pb.fault(ph.name, k); ferr != nil {
			err = fmt.Errorf("uoi: %s bootstrap %d: %w", ph.name, k, ferr)
		}
	}
	if err == nil {
		sp := ph.span.Child("bootstrap")
		err = cell()
		sp.End()
	} else if ph.pb.agree != nil {
		ph.pb.agree(ph.name, false) // the cell's other ranks are agreeing on it
	}
	if err != nil && ph.quorum {
		ph.errs[k] = err
		ph.pb.tr.Instant("fault/bootstrap_dropped", "fault")
	}
	return err
}

// sel runs selection bootstrap k over the λ block [jLo, jHi).
func (ph phase) sel(k, jLo, jHi int, warm warmFn, emit emitFn) (sup []bool, err error) {
	err = ph.attempt(k, func() (err error) {
		sup, err = ph.pb.selCell(k, jLo, jHi, warm, emit, ph.span)
		return err
	})
	return sup, err
}

// est runs estimation bootstrap k.
func (ph phase) est(k int) (beta []float64, err error) {
	err = ph.attempt(k, func() (err error) {
		beta, err = ph.pb.estCell(k, ph.distinct, ph.span)
		return err
	})
	return beta, err
}

// end closes the phase: its span, and the quorum rule — too few completed
// bootstraps fail the fit with ErrQuorum joined with the cell errors this
// process saw.
func (ph phase) end(completed int, err error) error {
	ph.span.End()
	if err != nil {
		return err
	}
	if need := ceilCount(ph.pb.quorum, ph.total); ph.quorum && completed < need {
		head := fmt.Errorf("%w: %s completed %d/%d, need %d", ErrQuorum, ph.name, completed, ph.total, need)
		return errors.Join(append([]error{head}, compactErrs(ph.errs)...)...)
	}
	return nil
}

// run fits pb at placement pl. It fills the fields UoI_LASSO and UoI_VAR
// results share — Beta (in the problem's own coordinates), Lambdas,
// Supports, Bootstrap, Diag — and the entry points finish the rest.
func run(pb *problem, pl placement) (*Result, error) {
	if err := pl.begin(pb); err != nil {
		return nil, err
	}
	tr := pb.tr
	res := &Result{Lambdas: pb.lambdas}

	// ---- Model selection (Algorithm 1 lines 2–11, Algorithm 2 lines 2–13) ----
	tSel := time.Now()
	sel := pb.newPhase("selection", pb.b1)
	b1Done, err := pl.selection(sel)
	if err = sel.end(b1Done, err); err != nil {
		return nil, err
	}
	res.Bootstrap.B1Completed, res.Bootstrap.B1Failed = b1Done, pb.b1-b1Done
	// In degraded mode the intersection threshold is relative to the
	// bootstraps that actually completed.
	spInt := tr.Start("intersection")
	res.Supports = pl.supports(ceilCount(pb.selFrac, b1Done))
	selTime := time.Since(tSel)

	// ---- Model estimation (Algorithm 1 lines 12–24, Algorithm 2 lines 15–30) ----
	tEst := time.Now()
	distinct := dedupeSupports(res.Supports)
	spInt.End()
	est := pb.newPhase("estimation", pb.b2)
	est.distinct = distinct
	winners, err := pl.estimation(est)
	// The union is over the completed bootstraps, in bootstrap order.
	completed := winners[:0]
	for _, w := range winners {
		if w != nil {
			completed = append(completed, w)
		}
	}
	if err = est.end(len(completed), err); err != nil {
		return nil, err
	}
	res.Bootstrap.B2Completed, res.Bootstrap.B2Failed = len(completed), pb.b2-len(completed)
	spUnion := tr.Start("union")
	res.Beta = combineWinners(completed, pb.p, pb.median)
	res.Diag = pb.diag
	res.Diag.SelectionTime, res.Diag.EstimationTime = selTime, time.Since(tEst)
	// The grid's totals are a world Allreduce: inside the span, a rank's
	// wait there for its slowest peer is phase time, not unaccounted wall.
	pl.totals(&res.Diag)
	spUnion.End()
	return res, nil
}

// pool is the in-process placement: bootstraps run on goroutines (the
// in-process form of the paper's P_B parallelism) and meet in shared
// memory. With workers ≥ 1 a phase runs on that many streams; at 0 on
// min(GOMAXPROCS, its cells), so the cells take the cores before the
// kernels inside them, which get what is left (setStreams).
type pool struct {
	workers int
	q, p    int
	counts  []float64 // per-(λ, coefficient) tally over completed selection cells
}

func (pl *pool) streams() int { return 0 }

func (pl *pool) begin(pb *problem) error {
	pl.q, pl.p = len(pb.lambdas), pb.p
	pl.counts = make([]float64, pl.q*pl.p)
	return nil
}

// each runs fn over the phase's n cells and returns how many completed: a
// strict phase stops at the first error, a quorum phase attempts every
// cell. It first sizes the phase's streams and their kernel budget.
func (pl *pool) each(ph phase, n int, fn func(i int) error) (int, error) {
	if n == 0 { // a resumed journal's phase may have no cell left: no streams to record
		return 0, nil
	}
	streams := pl.workers
	if streams <= 0 {
		streams = min(runtime.GOMAXPROCS(0), n)
	}
	ph.pb.setStreams(streams)
	if !ph.quorum {
		return n, forEachBootstrap(streams, n, fn)
	}
	return n - len(compactErrs(forEachBootstrapCollect(streams, n, fn))), nil
}

func (pl *pool) selection(ph phase) (int, error) {
	var mu sync.Mutex
	return pl.each(ph, ph.total, func(k int) error {
		sup, err := ph.sel(k, 0, pl.q, nil, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		addSupportCounts(pl.counts, sup)
		mu.Unlock()
		return nil
	})
}

func (pl *pool) supports(threshold int) [][]int {
	return supportsFromCounts(pl.counts, pl.q, pl.p, float64(threshold))
}

func (pl *pool) estimation(ph phase) ([][]float64, error) {
	winners := make([][]float64, ph.total)
	_, err := pl.each(ph, ph.total, func(k int) (err error) {
		winners[k], err = ph.est(k)
		return err
	})
	return winners, err
}

func (pl *pool) totals(*Diagnostics) {}
