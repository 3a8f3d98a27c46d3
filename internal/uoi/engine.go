package uoi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// This file holds the UoI algorithm — paper Algorithms 1 and 2 are one
// skeleton: B1 selection bootstraps × a λ path, an intersection, B2
// estimation bootstraps, a union — exactly once, in three parts:
//
//   - a problem owns what differs between fits: validation, the λ grid, the
//     cell bodies (cells.go; over data distributed by rows the same bodies
//     on statistics summed across ranks, uoi.go, or the consensus-ADMM
//     baselines, consensus.go), the fault and quorum policy and the
//     checkpoint identity;
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
	b1, b2  int       // selection and estimation bootstrap counts
	p       int       // coefficients: features, or the length of vec(B)
	lambdas []float64 // the λ grid, computed once at the fit's kernel budget
	// chains is how many warm-start chains a selection cell carries along
	// the λ path (one, or one per VAR equation) and chainLen the
	// coefficients in each; a grid sizes and tags its column handoff by them.
	chains, chainLen int
	// reversed: the λ sweep runs smallest-λ first (a WarmBeta seed), so the
	// chain cannot be handed from a grid column to its right neighbour.
	reversed bool
	selFrac  float64 // soft-intersection fraction
	median   bool    // median instead of mean in the union
	quorum   float64 // MinBootstrapFrac; 0 = any cell failure fails the fit
	// fault is the injected-failure hook (nil = none), pure in (phase, k).
	fault func(phase string, k int) error
	// meta is the fit's checkpoint identity. It hashes the data, so only a
	// placement that journals asks for it.
	meta func() checkpoint.Meta
	tr   *trace.Tracer
	// selCell runs selection bootstrap k over the λ block [jLo, jHi) and
	// returns its block-local support indicators; estCell runs estimation
	// bootstrap k over the candidate supports and returns the winner. Both
	// account their work through addWork; phase receives child spans.
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

// addWork accounts the work one cell performed.
func (pb *problem) addWork(lassoFits, olsFits, iters int, kron time.Duration) {
	pb.mu.Lock()
	pb.diag.LassoFits += lassoFits
	pb.diag.OLSFits += olsFits
	pb.diag.ADMMIters += iters
	pb.kron += kron
	pb.mu.Unlock()
}

// newLassoProblem binds UoI_LASSO (Algorithm 1) to a design and response.
// c is already defaulted; streams is the placement's count of execution
// streams sharing the process. With c.Standardize the problem is posed in
// standardized space and the returned scaler maps the estimate back.
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
	pb, kw := lassoBase(c, p, streams, func(kw int) float64 { return mat.NormInf(mat.AtVecWorkers(x, y, kw)) })
	root := resample.NewRNG(c.Seed)
	pb.meta = func() checkpoint.Meta {
		return checkpoint.Meta{
			Kind: checkpoint.KindLasso, Seed: c.Seed, B1: c.B1, B2: c.B2,
			P: p, Q: len(pb.lambdas), Fingerprint: lassoFingerprint(x, y, c),
		}
	}
	pb.selCell = func(k, jLo, jHi int, warm warmFn, emit emitFn, _ trace.Span) ([]bool, error) {
		sup, fits, iters, err := lassoSelCellRange(x, y, root, k, pb.lambdas, jLo, jHi, warm, emit, c, kw, pb.tr)
		pb.addWork(fits, 0, iters, 0)
		return sup, err
	}
	pb.estCell = func(k int, distinct [][]int, _ trace.Span) ([]float64, error) {
		beta, fits := lassoEstCell(x, y, root, k, distinct, c, kw)
		pb.addWork(0, fits, 0, 0)
		return beta, nil
	}
	return pb, scaler, nil
}

// lassoBase starts a UoI_LASSO problem over p features: the kernel budget
// kw of a fit sharing the process with `streams` execution streams, and the
// λ grid — c.Lambdas, or c.Q points below lmax(kw).
func lassoBase(c *LassoConfig, p, streams int, lmax func(kw int) float64) (pb *problem, kw int) {
	kw = kernelBudget(c.KernelWorkers, streams)
	pb = &problem{
		b1: c.B1, b2: c.B2, p: p, chains: 1, chainLen: p,
		selFrac: c.SelectionFrac, median: c.MedianUnion,
		quorum: c.MinBootstrapFrac, fault: c.BootstrapFault, tr: c.Trace,
	}
	pb.tr.SetMax("mat/kernel_workers", int64(kw))
	pb.setLambdas(c.Lambdas, c.Q, c.LambdaRatio, func() float64 { return lmax(kw) })
	return pb, kw
}

// varBase starts a UoI_VAR problem of p equations — the vec(B) of an
// order-c.Order model, chainLen = rowsB coefficients per equation — and its
// kernel budget, as lassoBase does. The caller sets the λ grid.
func varBase(c *VARConfig, p, streams int) (pb *problem, kw int) {
	rowsB := c.Order * p // columns per equation, +1 with the intercept
	if !c.NoIntercept {
		rowsB++
	}
	kw = kernelBudget(c.KernelWorkers, streams)
	pb = &problem{
		b1: c.B1, b2: c.B2, p: rowsB * p, chains: p, chainLen: rowsB,
		reversed: len(c.WarmBeta) == rowsB*p,
		selFrac:  c.SelectionFrac, median: c.MedianUnion, tr: c.Trace,
	}
	pb.tr.SetMax("mat/kernel_workers", int64(kw))
	return pb, kw
}

// setLambdas fixes the λ grid: explicit, or q points from lmax() down to
// ratio·lmax (traced as lambda_grid).
func (pb *problem) setLambdas(explicit []float64, q int, ratio float64, lmax func() float64) {
	sp := pb.tr.Start("lambda_grid")
	if pb.lambdas = explicit; explicit == nil {
		pb.lambdas = admm.LogSpaceLambdas(lmax(), ratio, q)
	}
	sp.End()
}

// newVARProblem binds UoI_VAR (Algorithm 2) to an N×p series: UoI_LASSO on
// the vectorised problem, whose cells exploit its block structure. c is
// already defaulted. With c.Cells, whole cells are looked up in (and stored
// to) the cache around the cell bodies, so every placement that runs whole
// cells honours it.
func newVARProblem(series *mat.Dense, c *VARConfig, streams int) (*problem, error) {
	p, d := series.Cols, c.Order
	m, blockLen, err := varWindow(series.Rows, c)
	if err != nil {
		return nil, err
	}
	pb, kw := varBase(c, p, streams)
	tr := pb.tr
	tKron := time.Now()
	spKron := tr.Start("kron_assembly")
	full := varsim.NewDesign(series, d, !c.NoIntercept)
	spKron.End()
	pb.kron = time.Since(tKron)
	pb.setLambdas(c.Lambdas, c.Q, c.LambdaRatio, func() float64 { return vecLambdaMax(full) })
	root := resample.NewRNG(c.Seed)
	pb.meta = func() checkpoint.Meta {
		return checkpoint.Meta{
			Kind: checkpoint.KindVAR, Seed: c.Seed, B1: c.B1, B2: c.B2,
			P: pb.p, Q: len(pb.lambdas), Order: d, Intercept: !c.NoIntercept,
			Fingerprint: varFingerprint(series, blockLen, c),
		}
	}
	pb.selCell = func(k, jLo, jHi int, warm warmFn, emit emitFn, phase trace.Span) ([]bool, error) {
		// A bootstrap whose inputs are bit-unchanged from a previous fit
		// (same touched rows, λ grid, warm seed) is skipped outright — the
		// streaming refit's "re-run only what changed" path. The one
		// placement that splits the λ path, the grid, rejects c.Cells.
		var key uint64
		if c.Cells != nil {
			key = selCellKey(series, k, m, blockLen, pb.lambdas, c)
			if sup, ok := c.Cells.GetSel(key); ok {
				tr.Add("uoi/sel_cells_reused", 1)
				return sup, nil
			}
		}
		sup, fits, iters, kTime, err := varSelCellRange(series, root, k, m, blockLen, pb.lambdas, jLo, jHi, warm, emit, c, kw, tr, phase)
		pb.addWork(fits, 0, iters, kTime)
		if err == nil && c.Cells != nil {
			c.Cells.PutSel(key, sup)
		}
		return sup, err
	}
	pb.estCell = func(k int, distinct [][]int, phase trace.Span) ([]float64, error) {
		var key uint64
		if c.Cells != nil {
			key = estCellKey(series, k, m, blockLen, distinct, c)
			if beta, ok := c.Cells.GetEst(key); ok {
				tr.Add("uoi/est_cells_reused", 1)
				return beta, nil
			}
		}
		beta, fits, kTime := varEstCell(series, root, k, m, blockLen, pb.p, distinct, c, kw, phase)
		pb.addWork(0, fits, 0, kTime)
		if c.Cells != nil {
			c.Cells.PutEst(key, beta)
		}
		return beta, nil
	}
	return pb, nil
}

// placement says where a fit's cells run and how their results meet. Its
// methods are called once each, in declaration order, by run. A placement
// spanning several processes returns the same values on every one of them.
type placement interface {
	// streams is the number of execution streams sharing this process
	// (bootstrap workers, or mpi ranks): the divisor of the kernel budget.
	streams() int
	// begin binds the placement to the problem before any cell runs.
	begin(pb *problem) error
	// selection runs every selection bootstrap that is not already on
	// record and returns how many are complete. A cell that fails is
	// dropped when ph.quorum and fails the fit otherwise.
	selection(ph phase) (completed int, err error)
	// supports thresholds the completed selection cells' per-(λ,
	// coefficient) counts into the per-λ supports.
	supports(threshold int) ([][]int, error)
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
	if need := quorumCount(ph.pb.quorum, ph.total); ph.quorum && completed < need {
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
	res.Supports, err = pl.supports(selectionThreshold(pb.selFrac, b1Done))
	selTime := time.Since(tSel)

	// ---- Model estimation (Algorithm 1 lines 12–24, Algorithm 2 lines 15–30) ----
	tEst := time.Now()
	distinct := dedupeSupports(res.Supports)
	spInt.End()
	if err != nil {
		return nil, err
	}
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
	spUnion.End()
	res.Diag = pb.diag
	res.Diag.SelectionTime, res.Diag.EstimationTime = selTime, time.Since(tEst)
	pl.totals(&res.Diag)
	return res, nil
}

// pool is the in-process placement: bootstraps run on up to `workers`
// goroutines (the in-process form of the paper's P_B parallelism) and meet
// in shared memory.
type pool struct {
	workers int
	q, p    int
	counts  []float64 // per-(λ, coefficient) tally over completed selection cells
}

func (pl *pool) streams() int { return pl.workers }

func (pl *pool) begin(pb *problem) error {
	pl.q, pl.p = len(pb.lambdas), pb.p
	pl.counts = make([]float64, pl.q*pl.p)
	return nil
}

// each runs fn over n bootstraps of the phase on the workers and returns
// how many completed: a strict phase stops at the first error, a quorum
// phase attempts every bootstrap.
func (pl *pool) each(ph phase, n int, fn func(i int) error) (int, error) {
	if !ph.quorum {
		return n, forEachBootstrap(pl.workers, n, fn)
	}
	return n - len(compactErrs(forEachBootstrapCollect(pl.workers, n, fn))), nil
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

func (pl *pool) supports(threshold int) ([][]int, error) {
	return supportsFromCounts(pl.counts, pl.q, pl.p, float64(threshold)), nil
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
