package uoi

import (
	"errors"
	"fmt"
	"sync"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
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
// started with. (A Partitioned placement shards *rows* rather than
// bootstraps; its iterates depend on the rank count, so it rejects a
// CheckpointConfig with ErrPlacement — see DESIGN.md §11.)
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

// journal is the checkpointed placement: every completed cell is recorded
// in a checkpoint.State that is saved durably at the configured cadence,
// and cells already on record are skipped. Without a communicator the
// unrecorded cells run on the bootstrap worker pool; over one they are
// sharded in rounds of Size cells with an Allgather exchange, so every rank
// mirrors the full state. Intersection and union are rebuilt from the
// state, so they see resumed and freshly computed cells alike.
type journal struct {
	pool                // runs the cells when comm == nil
	comm      *mpi.Comm // nil: in-process
	cfg       *CheckpointConfig
	st        *checkpoint.State
	tr        *trace.Tracer
	every     int // resolved save cadence (≥1)
	sinceSave int // cells recorded since the last save
	saveErr   error
}

// ledger is one phase's page of the journal: how its cells are looked up,
// stored and dropped in the checkpoint state, and the length of the payload
// a cell exchanges.
type ledger struct {
	payLen int
	get    func(k int) (dropped, ok bool)
	put    func(k int, pay []float64)
	drop   func(k int)
}

func (j *journal) streams() int {
	if j.comm != nil {
		return j.comm.Size()
	}
	return j.pool.streams()
}

func (j *journal) begin(pb *problem) (err error) {
	if j.every = j.cfg.Every; j.every <= 0 {
		j.every = 1
	}
	j.tr = pb.tr
	j.st, err = loadOrNew(j.cfg, pb.meta(), pb.lambdas, pb.tr)
	if err != nil {
		return err
	}
	return j.pool.begin(pb)
}

// save writes the checkpoint atomically under a ckpt_write span. Every rank
// calls it at the same points, but only the writer (the process itself, or
// rank 0) touches the file.
func (j *journal) save() error {
	if j.comm != nil && j.comm.Rank() != 0 {
		return nil
	}
	sp := j.tr.Start("ckpt_write")
	defer sp.End()
	if err := checkpoint.Save(j.cfg.Path, j.st); err != nil {
		return fmt.Errorf("uoi: checkpoint write %s: %w", j.cfg.Path, err)
	}
	j.tr.Add("ckpt/writes", 1)
	return nil
}

// recorded advances the cadence counter by n newly recorded cells and saves
// when a save is due. Every rank tracks the counter, so it stays
// rank-identical. In-process callers hold the phase mutex.
func (j *journal) recorded(n int) {
	j.sinceSave += n
	if j.saveErr == nil && j.sinceSave >= j.every {
		j.sinceSave = 0
		j.saveErr = j.save()
	}
}

// cells runs the phase's unrecorded cells and returns how many of the
// phase's cells are complete on record. A phase boundary is always durable.
func (j *journal) cells(ph phase, led ledger, compute func(k int) ([]float64, error)) (int, error) {
	// The unrecorded cells, ascending. A resumed fit shards them over
	// however many ranks it now has.
	var rem []int
	for k := 0; k < ph.total; k++ {
		if _, ok := led.get(k); !ok {
			rem = append(rem, k)
		}
	}
	if skipped := ph.total - len(rem); skipped > 0 {
		j.tr.Add("ckpt/cells_skipped", int64(skipped))
	}
	var err error
	if j.comm != nil {
		err = j.rounds(ph, led, rem, compute)
	} else {
		var mu sync.Mutex
		_, err = j.each(ph, len(rem), func(i int) error {
			pay, err := compute(rem[i])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				led.put(rem[i], pay)
			case ph.quorum:
				led.drop(rem[i])
			default:
				return err
			}
			j.recorded(1)
			return err
		})
	}
	if err == nil {
		err = j.saveErr
	}
	if err == nil && j.sinceSave > 0 {
		j.sinceSave = 0
		err = j.save()
	}
	completed := 0
	for k := 0; k < ph.total; k++ {
		if dropped, ok := led.get(k); ok && !dropped {
			completed++
		}
	}
	return completed, err
}

// rounds shards the remaining cells round-robin over the ranks: round r
// computes cells rem[r·Size : (r+1)·Size], one per rank, and exchanges one
// slot of [code, payload...] per rank with Allgather so every rank applies
// every outcome to its state mirror. The exchange is pure concatenation —
// no floating-point arithmetic — so payloads cross ranks bit-exactly.
func (j *journal) rounds(ph phase, led ledger, rem []int, compute func(k int) ([]float64, error)) error {
	size, rank := j.comm.Size(), j.comm.Rank()
	slotLen := 1 + led.payLen
	for off := 0; off < len(rem); off += size {
		slot := make([]float64, slotLen)
		var myErr error
		if myIdx := off + rank; myIdx < len(rem) {
			var pay []float64
			pay, myErr = compute(rem[myIdx])
			switch {
			case myErr == nil:
				slot[0] = ckptCellDone
				copy(slot[1:], pay)
			case ph.quorum:
				slot[0] = ckptCellDropped
			default:
				slot[0] = ckptCellFailed
			}
		}
		all := j.comm.Allgather(slot)
		firstFailed := -1
		completed := 0
		for r := 0; r < size && off+r < len(rem); r++ {
			k := rem[off+r]
			switch code := all[r*slotLen]; code {
			case ckptCellDone:
				led.put(k, all[r*slotLen+1:(r+1)*slotLen])
				completed++
			case ckptCellDropped:
				led.drop(k)
				completed++
			case ckptCellFailed:
				if firstFailed < 0 {
					firstFailed = k
				}
			default:
				return fmt.Errorf("uoi: %s round at cell %d: invalid exchange code %v", ph.name, k, code)
			}
		}
		if firstFailed >= 0 {
			if myErr != nil {
				return myErr
			}
			return fmt.Errorf("uoi: %s bootstrap %d failed on another rank", ph.name, firstFailed)
		}
		if j.recorded(completed); j.saveErr != nil {
			return j.saveErr
		}
	}
	return nil
}

func (j *journal) selection(ph phase) (int, error) {
	return j.cells(ph, ledger{
		payLen: j.q * j.p,
		get:    func(k int) (bool, bool) { _, dropped, ok := j.st.Selection(k); return dropped, ok },
		put:    func(k int, pay []float64) { j.st.AddSelection(k, floatsToBools(pay)) },
		drop:   j.st.DropSelection,
	}, func(k int) ([]float64, error) {
		sup, err := ph.sel(k, 0, j.q, nil, nil)
		return boolsToFloats(sup), err
	})
}

func (j *journal) supports(threshold int) [][]int {
	for k := 0; k < j.st.Meta().B1; k++ {
		if sup, dropped, ok := j.st.Selection(k); ok && !dropped {
			addSupportCounts(j.counts, sup)
		}
	}
	return j.pool.supports(threshold)
}

func (j *journal) estimation(ph phase) ([][]float64, error) {
	_, err := j.cells(ph, ledger{
		payLen: j.p,
		get:    func(k int) (bool, bool) { _, dropped, ok := j.st.Estimation(k); return dropped, ok },
		put:    j.st.AddEstimation,
		drop:   j.st.DropEstimation,
	}, ph.est)
	winners := make([][]float64, ph.total)
	for k := range winners {
		winners[k], _, _ = j.st.Estimation(k)
	}
	return winners, err
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

// lassoCellRevision names the numerics of the UoI_LASSO cell bodies
// (cells.go). It changes whenever a cell's floating-point result can change
// for the same inputs, so that a checkpoint written by another revision is
// refused instead of being resumed into a fit that mixes cells from two
// kernels. Revision 1: selection cells sum a multiplicity-weighted Gram over
// the distinct bootstrap rows (the build before it summed a gathered copy
// and hashed no revision). Revision 2: every ADMM x-update multiplies by an
// explicit (XᵀX + ρI)⁻¹ instead of solving with its Cholesky factor.
const lassoCellRevision = 2

// varCellRevision is lassoCellRevision's UoI_VAR counterpart. Revision 1:
// the explicit-inverse x-update; the builds before it hashed no revision.
const varCellRevision = 1

// lassoFingerprint hashes everything that determines a UoI_LASSO fit's
// cells: the cell-numerics revision, data dimensions and bits, the root
// seed's companions (the seed itself lives in Meta), and every
// solver-affecting configuration scalar. Execution-only knobs (Workers,
// KernelWorkers, trace wiring) and post-combination choices recomputed fresh
// on resume (MedianUnion) are deliberately excluded — they cannot change any
// cell.
func lassoFingerprint(x *mat.Dense, y []float64, c *LassoConfig) uint64 {
	return lassoFingerprintAt(lassoCellRevision, x, y, c)
}

// lassoFingerprintAt is lassoFingerprint as a build at cell-numerics
// revision rev computes it.
func lassoFingerprintAt(rev uint64, x *mat.Dense, y []float64, c *LassoConfig) uint64 {
	h := checkpoint.NewHasher()
	h.AddUint64(rev)
	h.AddUint64(uint64(x.Rows))
	h.AddUint64(uint64(x.Cols))
	hashSolves(h, &c.ADMM, c.L2, c.SupportTol)
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
	return varFingerprintAt(varCellRevision, series, blockLen, c)
}

// varFingerprintAt is varFingerprint as a build at cell-numerics revision rev
// computes it; revision 0 is the builds that hashed none.
func varFingerprintAt(rev uint64, series *mat.Dense, blockLen int, c *VARConfig) uint64 {
	h := checkpoint.NewHasher()
	if rev > 0 {
		h.AddUint64(rev)
	}
	h.AddUint64(uint64(series.Rows))
	h.AddUint64(uint64(series.Cols))
	h.AddUint64(uint64(c.Order))
	h.AddUint64(uint64(blockLen))
	h.AddUint64(bit(c.NoIntercept))
	hashSolves(h, &c.ADMM, c.L2, c.SupportTol)
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

// hashSolves folds the settings of a fit's selection solves into h.
func hashSolves(h *checkpoint.Hasher, o *admm.Options, l2, tol float64) {
	h.AddFloat(o.Rho)
	h.AddUint64(uint64(o.MaxIter))
	h.AddFloat(o.AbsTol)
	h.AddFloat(o.RelTol)
	h.AddFloat(l2)
	h.AddFloat(tol)
}

// bit is 1 for true and 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
