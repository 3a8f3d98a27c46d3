package uoi

import (
	"errors"
	"fmt"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// Placement says where a fit runs: over which ranks, at what P_B × P_λ
// shape, and whether every rank holds the full data or its own row block.
// It is the one execution argument of Lasso, VAR and AllPairs, set on their
// configs; a nil Placement runs the fit in this process. Its values map onto
// the engine's placements (DESIGN.md §17):
//
//   - replicated data with a Shape: the P_B × P_λ process grid (grid.go),
//     one rank per grid cell, so Shape.Ranks() equals the world size;
//   - replicated data without a Shape, checkpointed: the journal, its cells
//     dealt round-robin over the ranks (checkpointed.go);
//   - partitioned data at the default Assembly: the serial problem on the
//     replicated-data grid. UoI_VAR gets there by one broadcast of the
//     series from world rank 0 and runs on (size/PL) × PL ranks — each
//     group's ranks become bootstrap rows — so the fit is the serial one
//     bit for bit. UoI_LASSO keeps its row blocks, runs one bootstrap per
//     rank on a size × 1 grid (it takes no Shape) and reduces each
//     bootstrap's Gram and Xᵀy over the ranks, so the fit is the serial
//     one on the rank-order concatenation of the blocks (bit for bit on
//     one rank, up to the rounding of the cross-rank sum on more);
//   - partitioned data at a baseline Assembly (ConsensusADMM for UoI_LASSO,
//     KroneckerGets or KroneckerCommAvoiding for UoI_VAR): PB·PL
//     consensus-ADMM groups of size/(PB·PL) ranks each (consensus.go), the
//     paper's §III pipeline; an unset Shape is one group of every rank.
//
// Every other combination is an ErrPlacement. All-pairs inference takes the
// communicator alone and shards its targets over the ranks.
type Placement struct {
	// Comm is this rank's handle on the world the fit runs over.
	Comm *mpi.Comm
	// Shape is the P_B × P_λ decomposition: PB bootstrap groups times PL
	// λ groups, each of size/(PB·PL) ranks. The paper's Figure 3 sweeps
	// 16×2, 8×4, 4×8 and 2×16 at fixed total cores. A partitioned
	// UoI_LASSO at the default Assembly takes none.
	Shape GridShape
	// Partitioned: each rank passes its own row block of the data —
	// typically from distio.RandomizedDistribute — and the fit's data is
	// the blocks' concatenation in rank order (see Assembly). Otherwise
	// every rank passes the full data.
	Partitioned bool
	// EstX and EstY, when set, are this rank's rows for the estimation
	// phase of partitioned UoI_LASSO: the paper's Fig. 1c pipeline, which
	// re-randomizes row ownership between model selection and model
	// estimation. Unset, estimation splits the selection rows.
	EstX *mat.Dense
	// EstY holds the responses of the EstX rows.
	EstY []float64
	// NReaders is, for partitioned UoI_VAR, the number of reader ranks per
	// ADMM group that hold the series — the leading ranks of the group ("a
	// small number of processes ... read the data file in parallel and
	// create windows", §III-B2); the other ranks may pass nil. 0 selects
	// min(groupSize, 8).
	NReaders int
	// Assembly says how a partitioned fit brings its rows together: by
	// default UoI_VAR broadcasts the series from world rank 0, the first
	// reader, and UoI_LASSO reduces each bootstrap's sufficient statistics;
	// the other values run the paper's pipelines as measured baselines.
	Assembly Assembly
}

// Assembly is how a partitioned fit brings the rows its ranks hold
// together.
type Assembly int

const (
	// Shared is the default: the ranks share what the serial cells need
	// and run them on the grid. Partitioned UoI_VAR broadcasts the series
	// once and every rank builds the serial designs from it: the serial
	// fit, bit for bit, at any rank count, reader count and shape.
	// Partitioned UoI_LASSO draws every bootstrap and split from the serial
	// seeds over the blocks' rank-order concatenation, and each rank sums
	// the Gram and Xᵀy of the rows it owns: one Allreduce per bootstrap
	// completes them, and one per round of estimation cells sums their
	// held-out losses. It runs one bootstrap per rank and takes no Shape.
	Shared Assembly = iota
	// KroneckerGets is the paper's §III-B2 UoI_VAR pipeline: every
	// bootstrap's vectorized design (I⊗X, vec Y) assembled across its ADMM
	// group with one one-sided Get per row, then solved by consensus ADMM.
	KroneckerGets
	// KroneckerCommAvoiding is KroneckerGets with the Discussion's
	// de-duplicated assembly: each design row is fetched once per rank.
	KroneckerCommAvoiding
	// ConsensusADMM is the paper's §III UoI_LASSO pipeline: each rank
	// resamples its own rows and every cell is a consensus-ADMM solve over
	// its group, one (p+3)-double Allreduce per iteration. Shared is faster
	// and holds no more per rank; this stays as the measured baseline of
	// the paper's Fig. 2 (cmd/experiments -exp fig2-mini).
	ConsensusADMM
)

// ErrPlacement reports a placement the fit cannot run at, on every rank
// alike and, but for the grid's WarmBeta check, before any collective.
var ErrPlacement = errors.New("uoi: unsupported placement")

// errNoComm is the ErrPlacement of a Placement without a communicator.
var errNoComm = fmt.Errorf("%w: a placement needs a communicator", ErrPlacement)

// fitAsk is what a fit asks of its placement.
type fitAsk struct {
	fit     string // "Lasso", "VAR" or "AllPairs"
	ckpt    *CheckpointConfig
	workers int
	// warm and l2: a UoI_VAR fit's WarmBeta and ℓ2 penalty are set.
	warm, l2 bool
	tr       *trace.Tracer // the fit's tracer
}

// place validates pl for the fit and builds the engine placement it names:
// the worker pool (journalled when checkpointed) for a nil pl, else the
// consensus groups, the journal over pl.Comm, or the grid — the last three
// traced as the top-level span placement, since splitting a communicator
// is collective.
func (pl *Placement) place(a fitAsk) (placement, error) {
	switch {
	case pl == nil && a.ckpt != nil:
		return &journal{pool: pool{workers: a.workers}, cfg: a.ckpt}, nil
	case pl == nil:
		return &pool{workers: a.workers}, nil
	case pl.Comm == nil:
		return nil, errNoComm
	}
	if err := pl.check(a); err != nil {
		return nil, err
	}
	sp := a.tr.Start("placement")
	defer sp.End()
	switch {
	case pl.Partitioned && pl.Assembly == Shared:
		shape := pl.Shape.normalize()
		return newGrid(pl.Comm, GridShape{PB: pl.Comm.Size() / shape.PL, PL: shape.PL}), nil
	case pl.Partitioned:
		return newConsensus(pl.Comm, pl.Shape), nil
	case a.ckpt != nil:
		return &journal{comm: pl.Comm, cfg: a.ckpt}, nil
	}
	return newGrid(pl.Comm, pl.Shape), nil
}

// check returns an ErrPlacement for every combination no engine placement
// runs. Without a communicator the checks against the rank count wait for
// the fit.
func (pl *Placement) check(a fitAsk) error {
	if pl == nil {
		return nil
	}
	part, shape, size := pl.Partitioned, pl.Shape, 0
	if part {
		shape = shape.normalize()
	}
	if pl.Comm != nil {
		size = pl.Comm.Size()
	}
	grid := !part && a.ckpt == nil && a.fit != "AllPairs"
	var why string
	switch {
	case a.fit == "AllPairs" && (part || shape != GridShape{}):
		why = "all-pairs shards its targets over replicated data and takes no shape"
	case a.ckpt != nil && part:
		why = "a checkpointed fit needs replicated data"
	case a.ckpt != nil && shape != GridShape{}:
		why = "a checkpointed fit takes no grid shape"
	case pl.Assembly < Shared || pl.Assembly > ConsensusADMM:
		why = fmt.Sprintf("unknown Assembly %d", pl.Assembly)
	case (pl.NReaders != 0 || pl.Assembly == KroneckerGets || pl.Assembly == KroneckerCommAvoiding) && !(part && a.fit == "VAR"):
		why = "NReaders and a Kronecker Assembly apply to partitioned VAR only"
	case pl.Assembly == ConsensusADMM && !(part && a.fit == "Lasso"):
		why = "ConsensusADMM applies to partitioned Lasso only"
	case pl.EstX != nil && !(part && a.fit == "Lasso"):
		why = "an estimation block applies to partitioned Lasso only"
	case part && a.fit == "Lasso" && pl.Assembly == Shared && shape != (GridShape{1, 1}):
		// Every round of cells reduces statistics over all ranks, so PB
		// groups would change nothing and PL columns would only serialize
		// the λ path behind that reduce.
		why = fmt.Sprintf("partitioned Lasso at the Shared Assembly runs one bootstrap per rank and takes no grid %s", shape)
	case part && a.fit == "VAR" && (a.warm || a.l2):
		// The Kronecker factorization has no ℓ2 term. The shared series
		// could honour both but keeps the baseline's surface for now.
		why = "partitioned VAR takes no WarmBeta or L2"
	case part && size > 0 && size%shape.Ranks() != 0:
		why = fmt.Sprintf("world size %d not divisible by grid %s", size, shape)
	case grid && (shape.PB < 1 || shape.PL < 1 || size > 0 && shape.Ranks() != size):
		why = fmt.Sprintf("replicated data needs a grid of one rank per cell, not %s on %d ranks", shape, size)
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrPlacement, why)
}
