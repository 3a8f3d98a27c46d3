package uoi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// CheckpointConfig enables checkpointed execution of a UoI fit: completed
// (bootstrap, λ) selection cells and estimation bootstraps are written
// durably to Path so a crashed fit can resume without recomputing them.
//
// Checkpointed execution runs the *replicated-data, bootstrap-sharded* form
// of the algorithms (the paper's P_B parallelism axis): every rank holds
// the full data and computes whole cells, and because each cell is a pure
// function of (Seed, data, cell index) and the combination steps use only
// exactly order-independent operations, the result is bit-identical to the
// serial fit at any worker count, at any rank count, and across any
// crash/resume boundary — including resuming on fewer ranks than the fit
// started with. (The consensus-ADMM distributed paths, LassoDistributed and
// VARDistributed, shard *rows* rather than bootstraps; their iterates
// depend on the rank count, so they are deliberately outside checkpoint
// scope — see DESIGN.md §11.)
type CheckpointConfig struct {
	// Path is the checkpoint file location. In distributed runs every rank
	// reads it on resume but only rank 0 writes, atomically
	// (temp + fsync + rename), so a crash at any instant leaves either the
	// previous or the next complete checkpoint, never a torn file.
	Path string
	// Every is the save cadence in completed cells (≤0 means 1). Rank 0
	// saves after every Every newly completed cells and always at phase
	// boundaries and fit completion.
	Every int
	// Resume loads Path before fitting and skips every recorded cell.
	// A missing file fails with fs.ErrNotExist, structural damage with
	// checkpoint.ErrCorrupt/ErrSchema, and a checkpoint from a different
	// fit (other data, seed, λ grid, or solver configuration — detected by
	// fingerprint) with checkpoint.ErrMismatch; never a panic. Cells
	// dropped under quorum mode are durable: a resumed fit does not retry
	// them, so a degraded fit resumes to the same degraded result.
	Resume bool
}

// Cell outcome codes exchanged between ranks in a checkpointed round: one
// slot of [code, payload...] per rank, concatenated by Allgather. The
// exchange is pure concatenation — no floating-point arithmetic — so
// payloads cross ranks bit-exactly.
const (
	ckptCellNone    = 0 // rank had no cell this round (ragged tail)
	ckptCellDone    = 1 // payload holds the cell result
	ckptCellDropped = 2 // cell failed under quorum mode; durably dropped
	ckptCellFailed  = 3 // cell failed under strict mode; fit aborts
)

// ckptPhase describes one bootstrap phase (selection or estimation) to the
// checkpointed cell engine in terms of pure per-cell operations.
type ckptPhase struct {
	name     string                         // "selection" | "estimation"
	total    int                            // B1 or B2
	payLen   int                            // exchanged payload floats per cell
	recorded func(k int) bool               // already in the checkpoint?
	compute  func(k int) ([]float64, error) // run cell k (owner only)
	record   func(k int, payload []float64) // fold a completed cell into state
	drop     func(k int)                    // record a durable quorum drop
	fault    func(k int) error              // injected fault, pure in k; nil = none
	quorum   bool                           // drop failed cells instead of aborting
}

// ckptEngine executes ckptPhases over the cells a checkpoint does not
// already hold: serially (comm == nil) with the usual bootstrap worker
// pool, or distributed in rounds of Size cells with an Allgather exchange
// so every rank mirrors the full checkpoint state.
type ckptEngine struct {
	comm      *mpi.Comm
	cfg       *CheckpointConfig
	st        *checkpoint.State
	tr        *trace.Tracer
	workers   int // serial bootstrap concurrency
	every     int // resolved save cadence (≥1)
	sinceSave int
	saveErr   error
}

// save writes the checkpoint atomically under a ckpt_write span.
func (e *ckptEngine) save() error {
	sp := e.tr.Start("ckpt_write")
	defer sp.End()
	if err := checkpoint.Save(e.cfg.Path, e.st); err != nil {
		return fmt.Errorf("uoi: checkpoint write %s: %w", e.cfg.Path, err)
	}
	e.tr.Add("ckpt/writes", 1)
	return nil
}

// bumpLocked advances the completed-cell counter and saves at the cadence.
// Only the writer (serial process, or rank 0) calls it; callers hold the
// phase mutex in the serial engine.
func (e *ckptEngine) bumpLocked(cells int) {
	e.sinceSave += cells
	if e.saveErr != nil || e.sinceSave < e.every {
		return
	}
	e.sinceSave = 0
	e.saveErr = e.save()
}

// remaining lists the phase's unrecorded cells in ascending order and
// counts the skipped ones into the ckpt/cells_skipped counter.
func (e *ckptEngine) remaining(ph *ckptPhase) []int {
	var rem []int
	skipped := 0
	for k := 0; k < ph.total; k++ {
		if ph.recorded(k) {
			skipped++
			continue
		}
		rem = append(rem, k)
	}
	if skipped > 0 {
		e.tr.Add("ckpt/cells_skipped", int64(skipped))
	}
	return rem
}

// runPhase executes every unrecorded cell of the phase. In quorum mode the
// returned failed slice holds the errors of cells dropped *this run*
// (cells dropped before a resume are already durable in the state); fatal
// is non-nil when the fit must abort (strict-mode cell failure, or a
// checkpoint write failure).
func (e *ckptEngine) runPhase(ph *ckptPhase) (failed []error, fatal error) {
	if e.comm != nil {
		return e.runPhaseDist(ph)
	}
	rem := e.remaining(ph)
	var mu sync.Mutex
	fn := func(i int) error {
		k := rem[i]
		var err error
		if ph.fault != nil {
			if ferr := ph.fault(k); ferr != nil {
				err = fmt.Errorf("uoi: %s bootstrap %d: %w", ph.name, k, ferr)
			}
		}
		var pay []float64
		if err == nil {
			pay, err = ph.compute(k)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if ph.quorum {
				ph.drop(k)
				e.bumpLocked(1)
			}
			return err
		}
		ph.record(k, pay)
		e.bumpLocked(1)
		return nil
	}
	if ph.quorum {
		failed = compactErrs(forEachBootstrapCollect(e.workers, len(rem), fn))
	} else if err := forEachBootstrap(e.workers, len(rem), fn); err != nil {
		return nil, err
	}
	if e.saveErr != nil {
		return failed, e.saveErr
	}
	if e.sinceSave > 0 {
		e.sinceSave = 0
		if err := e.save(); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// runPhaseDist shards the remaining cells round-robin over the current
// rank count: round r computes cells rem[r·Size : (r+1)·Size], one per
// rank, and exchanges the results with Allgather so every rank applies
// every outcome to its state mirror. Because the shard is over *remaining*
// cells, a resumed fit automatically re-shards across however many ranks
// it now has.
func (e *ckptEngine) runPhaseDist(ph *ckptPhase) (failed []error, fatal error) {
	comm := e.comm
	size, rank := comm.Size(), comm.Rank()
	rem := e.remaining(ph)
	slotLen := 1 + ph.payLen
	for off := 0; off < len(rem); off += size {
		slot := make([]float64, slotLen)
		var myErr error
		if myIdx := off + rank; myIdx < len(rem) {
			k := rem[myIdx]
			var err error
			if ph.fault != nil {
				if ferr := ph.fault(k); ferr != nil {
					err = fmt.Errorf("uoi: %s bootstrap %d: %w", ph.name, k, ferr)
				}
			}
			var pay []float64
			if err == nil {
				pay, err = ph.compute(k)
			}
			switch {
			case err == nil:
				slot[0] = ckptCellDone
				copy(slot[1:], pay)
			case ph.quorum:
				slot[0] = ckptCellDropped
				myErr = err
			default:
				slot[0] = ckptCellFailed
				myErr = err
			}
		}
		all := comm.Allgather(slot)
		firstFailed := -1
		completed := 0
		for r := 0; r < size; r++ {
			idx := off + r
			if idx >= len(rem) {
				continue
			}
			k := rem[idx]
			s := all[r*slotLen]
			switch s {
			case ckptCellDone:
				ph.record(k, all[r*slotLen+1:(r+1)*slotLen])
				completed++
			case ckptCellDropped:
				ph.drop(k)
				completed++
				if r == rank && myErr != nil {
					failed = append(failed, myErr)
				}
			case ckptCellFailed:
				if firstFailed < 0 {
					firstFailed = k
				}
			default:
				return failed, fmt.Errorf("uoi: %s round at cell %d: invalid exchange code %v", ph.name, k, s)
			}
		}
		if firstFailed >= 0 {
			if myErr != nil {
				return failed, myErr
			}
			return failed, fmt.Errorf("uoi: %s bootstrap %d failed on another rank", ph.name, firstFailed)
		}
		// Every rank tracks the cadence so the counter stays rank-identical,
		// but only rank 0 touches the file.
		e.sinceSave += completed
		if e.sinceSave >= e.every {
			e.sinceSave = 0
			if rank == 0 {
				if err := e.save(); err != nil {
					return failed, err
				}
			}
		}
	}
	if e.sinceSave > 0 {
		e.sinceSave = 0
		if rank == 0 {
			if err := e.save(); err != nil {
				return failed, err
			}
		}
	}
	return failed, nil
}

// loadOrNew opens the checkpoint for this fit: a fresh state, or on resume
// the loaded and identity-checked one (ckpt_load span; typed errors, never
// a panic).
func loadOrNew(ck *CheckpointConfig, meta checkpoint.Meta, lambdas []float64, tr *trace.Tracer) (*checkpoint.State, error) {
	if ck.Path == "" {
		return nil, errors.New("uoi: checkpointed run requires CheckpointConfig.Path")
	}
	if !ck.Resume {
		return checkpoint.New(meta, lambdas), nil
	}
	sp := tr.Start("ckpt_load")
	defer sp.End()
	st, err := checkpoint.Load(ck.Path)
	if err != nil {
		return nil, fmt.Errorf("uoi: resume from %s: %w", ck.Path, err)
	}
	if err := st.Matches(meta, lambdas); err != nil {
		return nil, fmt.Errorf("uoi: resume from %s: %w", ck.Path, err)
	}
	tr.Add("ckpt/cells_loaded", int64(st.SelectionRecorded()+st.EstimationRecorded()))
	return st, nil
}

// boolsToFloats widens support indicators for the float64 exchange path.
func boolsToFloats(bs []bool) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// floatsToBools narrows an exchanged indicator payload back to bits.
func floatsToBools(fs []float64) []bool {
	out := make([]bool, len(fs))
	for i, v := range fs {
		out[i] = v != 0
	}
	return out
}

// lassoFingerprint hashes everything that determines a UoI_LASSO fit's
// cells: data dimensions and bits, the root seed's companions (the seed
// itself lives in Meta), and every solver-affecting configuration scalar.
// Execution-only knobs (Workers, KernelWorkers, trace wiring) and
// post-combination choices recomputed fresh on resume (MedianUnion) are
// deliberately excluded — they cannot change any cell.
func lassoFingerprint(x *mat.Dense, y []float64, c *LassoConfig) uint64 {
	h := checkpoint.NewHasher()
	h.AddUint64(uint64(x.Rows))
	h.AddUint64(uint64(x.Cols))
	h.AddFloat(c.ADMM.Rho)
	h.AddUint64(uint64(c.ADMM.MaxIter))
	h.AddFloat(c.ADMM.AbsTol)
	h.AddFloat(c.ADMM.RelTol)
	h.AddFloat(c.L2)
	h.AddFloat(c.SupportTol)
	h.AddFloat(c.SelectionFrac)
	h.AddFloat(c.TrainFrac)
	h.AddFloat(c.MinBootstrapFrac)
	h.AddFloats(x.Data)
	h.AddFloats(y)
	return h.Sum()
}

// varFingerprint is lassoFingerprint's UoI_VAR counterpart; blockLen is the
// resolved block-bootstrap length (the ⌈√m⌉ default must fingerprint the
// same as passing it explicitly).
func varFingerprint(series *mat.Dense, blockLen int, c *VARConfig) uint64 {
	h := checkpoint.NewHasher()
	h.AddUint64(uint64(series.Rows))
	h.AddUint64(uint64(series.Cols))
	h.AddUint64(uint64(c.Order))
	h.AddUint64(uint64(blockLen))
	if c.NoIntercept {
		h.AddUint64(1)
	} else {
		h.AddUint64(0)
	}
	h.AddFloat(c.ADMM.Rho)
	h.AddUint64(uint64(c.ADMM.MaxIter))
	h.AddFloat(c.ADMM.AbsTol)
	h.AddFloat(c.ADMM.RelTol)
	h.AddFloat(c.L2)
	h.AddFloat(c.SupportTol)
	h.AddFloat(c.SelectionFrac)
	h.AddFloat(c.TrainFrac)
	// WarmBeta changes selection-cell outputs, so a checkpoint taken with
	// one seed must not resume under another. Hashed only when set so
	// fingerprints of ordinary (cold) fits are unchanged from prior
	// releases.
	if len(c.WarmBeta) > 0 {
		h.AddFloats(c.WarmBeta)
	}
	// Anchored resampling changes every selection cell's draw, and the
	// anchor offset is part of that draw. Hashed only when enabled so
	// fingerprints of ordinary fits are unchanged from prior releases.
	if c.Anchored {
		h.AddUint64(1)
		h.AddUint64(uint64(c.Anchor))
	}
	h.AddFloats(series.Data)
	return h.Sum()
}

// LassoCheckpointedDistributed runs checkpointed UoI_LASSO across the
// communicator with replicated data: every rank passes the FULL design and
// response (unlike LassoDistributed's row blocks), cells are sharded
// round-robin over ranks, and rank 0 checkpoints at the configured cadence.
// The result is bit-identical to the serial Lasso fit with the same config
// on every rank, at any rank count, and across crash/resume — cfg.Checkpoint
// must be set.
func LassoCheckpointedDistributed(comm *mpi.Comm, x *mat.Dense, y []float64, cfg *LassoConfig) (*Result, error) {
	c := cfg.defaults()
	if c.Checkpoint == nil {
		return nil, errors.New("uoi: LassoCheckpointedDistributed requires cfg.Checkpoint")
	}
	return lassoCheckpointed(comm, x, y, &c)
}

// VARCheckpointedDistributed is LassoCheckpointedDistributed for UoI_VAR:
// replicated series, bootstrap-sharded cells, rank-0 checkpoint writes,
// bit-identical to the serial VAR fit. cfg.Checkpoint must be set.
func VARCheckpointedDistributed(comm *mpi.Comm, series *mat.Dense, cfg *VARConfig) (*VARResult, error) {
	c := cfg.defaults()
	if c.Checkpoint == nil {
		return nil, errors.New("uoi: VARCheckpointedDistributed requires cfg.Checkpoint")
	}
	return varCheckpointed(comm, series, &c)
}

// lassoCheckpointed is the checkpointed UoI_LASSO driver shared by the
// serial (comm == nil) and distributed paths. c is already defaulted.
func lassoCheckpointed(comm *mpi.Comm, x *mat.Dense, y []float64, c *LassoConfig) (*Result, error) {
	if c.Standardize {
		// Data is replicated, so every rank fits the identical scaler and the
		// inner fit stays rank-deterministic.
		if x.Rows != len(y) {
			return nil, fmt.Errorf("uoi: %d rows but %d responses", x.Rows, len(y))
		}
		scaler := preprocess.FitXY(x, y)
		inner := *c
		inner.Standardize = false
		res, err := lassoCheckpointed(comm, scaler.Transform(x), scaler.TransformY(y), &inner)
		if err != nil {
			return nil, err
		}
		beta, intercept := scaler.InverseBeta(res.Beta)
		res.Beta = beta
		res.Intercept = intercept
		res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
		return res, nil
	}
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("uoi: %d rows but %d responses", n, len(y))
	}
	if n < 4 {
		return nil, fmt.Errorf("uoi: need at least 4 samples, have %d", n)
	}
	tr := c.Trace
	streams := c.Workers
	if comm != nil {
		streams = comm.Size()
	}
	kw := kernelBudget(c.KernelWorkers, streams)
	tr.SetMax("mat/kernel_workers", int64(kw))
	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		lambdas = admm.LogSpaceLambdas(admm.LambdaMax(x, y), c.LambdaRatio, c.Q)
	}
	spGrid.End()
	meta := checkpoint.Meta{
		Kind: checkpoint.KindLasso, Seed: c.Seed, B1: c.B1, B2: c.B2,
		P: p, Q: len(lambdas), Fingerprint: lassoFingerprint(x, y, c),
	}
	st, err := loadOrNew(c.Checkpoint, meta, lambdas, tr)
	if err != nil {
		return nil, err
	}
	eng := &ckptEngine{comm: comm, cfg: c.Checkpoint, st: st, tr: tr, workers: c.Workers, every: c.Checkpoint.Every}
	if eng.every <= 0 {
		eng.every = 1
	}
	root := resample.NewRNG(c.Seed)
	res := &Result{Lambdas: lambdas}
	quorum := c.MinBootstrapFrac > 0
	var diagMu sync.Mutex

	// ---- Model selection over unrecorded cells ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	selPhase := &ckptPhase{
		name: "selection", total: c.B1, payLen: len(lambdas) * p,
		recorded: func(k int) bool { _, _, ok := st.Selection(k); return ok },
		compute: func(k int) ([]float64, error) {
			spBoot := spSel.Child("bootstrap")
			defer spBoot.End()
			sup, fits, iters, err := lassoSelCell(x, y, root, k, lambdas, c, kw, tr)
			if err != nil {
				return nil, err
			}
			diagMu.Lock()
			res.Diag.LassoFits += fits
			res.Diag.ADMMIters += iters
			diagMu.Unlock()
			return boolsToFloats(sup), nil
		},
		record: func(k int, pay []float64) { st.AddSelection(k, floatsToBools(pay)) },
		drop:   func(k int) { st.DropSelection(k) },
		quorum: quorum,
	}
	if c.BootstrapFault != nil {
		bf := c.BootstrapFault
		selPhase.fault = func(k int) error { return bf("selection", k) }
	}
	selFailed, fatal := eng.runPhase(selPhase)
	if fatal != nil {
		return nil, fatal
	}
	spSel.End()
	b1Done, b1Dropped := phaseTally(c.B1, st.Selection)
	res.Bootstrap.B1Completed, res.Bootstrap.B1Failed = b1Done, b1Dropped
	if quorum {
		if need := quorumCount(c.MinBootstrapFrac, c.B1); b1Done < need {
			head := fmt.Errorf("%w: selection completed %d/%d, need %d", ErrQuorum, b1Done, c.B1, need)
			return nil, errors.Join(append([]error{head}, selFailed...)...)
		}
	}

	// ---- Intersection, rebuilt from the full cell state (order-free) ----
	spInt := tr.Start("intersection")
	counts := make([][]int, len(lambdas))
	for j := range counts {
		counts[j] = make([]int, p)
	}
	for k := 0; k < c.B1; k++ {
		if sup, dropped, ok := st.Selection(k); ok && !dropped {
			addSupportCounts(counts, sup, p)
		}
	}
	threshold := selectionThreshold(c.SelectionFrac, b1Done)
	supports := make([][]int, len(lambdas))
	for j := range supports {
		for i, ct := range counts[j] {
			if ct >= threshold {
				supports[j] = append(supports[j], i)
			}
		}
	}
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spInt.End()

	// ---- Model estimation over unrecorded cells ----
	spEst := tr.Start("estimation")
	estPhase := &ckptPhase{
		name: "estimation", total: c.B2, payLen: p,
		recorded: func(k int) bool { _, _, ok := st.Estimation(k); return ok },
		compute: func(k int) ([]float64, error) {
			spBoot := spEst.Child("bootstrap")
			defer spBoot.End()
			beta, fits := lassoEstCell(x, y, root, k, distinct, c, kw)
			diagMu.Lock()
			res.Diag.OLSFits += fits
			diagMu.Unlock()
			return beta, nil
		},
		record: func(k int, pay []float64) { st.AddEstimation(k, pay) },
		drop:   func(k int) { st.DropEstimation(k) },
		quorum: quorum,
	}
	if c.BootstrapFault != nil {
		bf := c.BootstrapFault
		estPhase.fault = func(k int) error { return bf("estimation", k) }
	}
	estFailed, fatal := eng.runPhase(estPhase)
	if fatal != nil {
		return nil, fatal
	}
	spEst.End()
	b2Done, b2Dropped := phaseTally(c.B2, st.Estimation)
	res.Bootstrap.B2Completed, res.Bootstrap.B2Failed = b2Done, b2Dropped
	if quorum {
		if need := quorumCount(c.MinBootstrapFrac, c.B2); b2Done < need {
			head := fmt.Errorf("%w: estimation completed %d/%d, need %d", ErrQuorum, b2Done, c.B2, need)
			return nil, errors.Join(append([]error{head}, estFailed...)...)
		}
	}

	// ---- Union over the completed winners, in fixed k order ----
	spUnion := tr.Start("union")
	var completed [][]float64
	for k := 0; k < c.B2; k++ {
		if beta, dropped, ok := st.Estimation(k); ok && !dropped {
			completed = append(completed, beta)
		}
	}
	res.Beta = combineWinners(completed, p, c.MedianUnion)
	res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	return res, nil
}

// phaseTally counts done vs dropped cells of a phase from the checkpoint
// state via its Selection or Estimation accessor.
func phaseTally[T any](total int, get func(int) (T, bool, bool)) (done, dropped int) {
	for k := 0; k < total; k++ {
		if _, d, ok := get(k); ok {
			if d {
				dropped++
			} else {
				done++
			}
		}
	}
	return done, dropped
}

// varCheckpointed is the checkpointed UoI_VAR driver shared by the serial
// (comm == nil) and distributed paths. Strict failure semantics only: the
// VAR config has no quorum mode. c is already defaulted.
func varCheckpointed(comm *mpi.Comm, series *mat.Dense, c *VARConfig) (*VARResult, error) {
	nTotal, p := series.Rows, series.Cols
	d := c.Order
	if nTotal <= d+4 {
		return nil, fmt.Errorf("uoi: series of %d samples too short for order %d", nTotal, d)
	}
	m := nTotal - d
	blockLen := c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}
	tr := c.Trace
	streams := c.Workers
	if comm != nil {
		streams = comm.Size()
	}
	kw := kernelBudget(c.KernelWorkers, streams)
	tr.SetMax("mat/kernel_workers", int64(kw))

	tKron := time.Now()
	spKron := tr.Start("kron_assembly")
	full := varsim.NewDesign(series, d, !c.NoIntercept)
	spKron.End()
	kronTime := time.Since(tKron)
	rowsB := full.X.Cols
	betaLen := rowsB * p

	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		lambdas = admm.LogSpaceLambdas(vecLambdaMax(full, kw), c.LambdaRatio, c.Q)
	}
	spGrid.End()
	meta := checkpoint.Meta{
		Kind: checkpoint.KindVAR, Seed: c.Seed, B1: c.B1, B2: c.B2,
		P: betaLen, Q: len(lambdas), Order: d, Intercept: !c.NoIntercept,
		Fingerprint: varFingerprint(series, blockLen, c),
	}
	st, err := loadOrNew(c.Checkpoint, meta, lambdas, tr)
	if err != nil {
		return nil, err
	}
	eng := &ckptEngine{comm: comm, cfg: c.Checkpoint, st: st, tr: tr, workers: c.Workers, every: c.Checkpoint.Every}
	if eng.every <= 0 {
		eng.every = 1
	}
	root := resample.NewRNG(c.Seed)
	res := &VARResult{Lambdas: lambdas}
	var diagMu sync.Mutex

	// ---- Model selection over unrecorded cells ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	selPhase := &ckptPhase{
		name: "selection", total: c.B1, payLen: len(lambdas) * betaLen,
		recorded: func(k int) bool { _, _, ok := st.Selection(k); return ok },
		compute: func(k int) ([]float64, error) {
			spBoot := spSel.Child("bootstrap")
			defer spBoot.End()
			sup, fits, iters, kTime, err := varSelCell(series, root, k, m, blockLen, lambdas, c, kw, tr, spSel)
			if err != nil {
				return nil, err
			}
			diagMu.Lock()
			kronTime += kTime
			res.Diag.LassoFits += fits
			res.Diag.ADMMIters += iters
			diagMu.Unlock()
			return boolsToFloats(sup), nil
		},
		record: func(k int, pay []float64) { st.AddSelection(k, floatsToBools(pay)) },
		drop:   func(k int) { st.DropSelection(k) },
	}
	if _, fatal := eng.runPhase(selPhase); fatal != nil {
		return nil, fatal
	}
	spSel.End()

	// ---- Intersection from the full cell state ----
	spInt := tr.Start("intersection")
	counts := make([][]int, len(lambdas))
	for j := range counts {
		counts[j] = make([]int, betaLen)
	}
	for k := 0; k < c.B1; k++ {
		if sup, dropped, ok := st.Selection(k); ok && !dropped {
			addSupportCounts(counts, sup, betaLen)
		}
	}
	threshold := selectionThreshold(c.SelectionFrac, c.B1)
	supports := make([][]int, len(lambdas))
	for j := range supports {
		for i, ct := range counts[j] {
			if ct >= threshold {
				supports[j] = append(supports[j], i)
			}
		}
	}
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spInt.End()

	// ---- Model estimation over unrecorded cells ----
	spEst := tr.Start("estimation")
	estPhase := &ckptPhase{
		name: "estimation", total: c.B2, payLen: betaLen,
		recorded: func(k int) bool { _, _, ok := st.Estimation(k); return ok },
		compute: func(k int) ([]float64, error) {
			spBoot := spEst.Child("bootstrap")
			defer spBoot.End()
			beta, fits, kTime := varEstCell(series, root, k, m, blockLen, betaLen, distinct, c, kw, spEst)
			diagMu.Lock()
			kronTime += kTime
			res.Diag.OLSFits += fits
			diagMu.Unlock()
			return beta, nil
		},
		record: func(k int, pay []float64) { st.AddEstimation(k, pay) },
		drop:   func(k int) { st.DropEstimation(k) },
	}
	if _, fatal := eng.runPhase(estPhase); fatal != nil {
		return nil, fatal
	}
	spEst.End()

	// ---- Union in fixed k order ----
	spUnion := tr.Start("union")
	winners := make([][]float64, 0, c.B2)
	for k := 0; k < c.B2; k++ {
		if beta, dropped, ok := st.Estimation(k); ok && !dropped {
			winners = append(winners, beta)
		}
	}
	res.Beta = combineWinners(winners, betaLen, c.MedianUnion)
	res.A, res.Mu = full.PartitionBeta(res.Beta)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	res.KronTime = kronTime
	return res, nil
}
