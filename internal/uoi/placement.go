package uoi

import (
	"errors"
	"fmt"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
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
//   - partitioned UoI_LASSO, and partitioned UoI_VAR at a Kronecker
//     Assembly: PB·PL consensus-ADMM groups of size/(PB·PL) ranks each
//     (consensus.go); an unset Shape is one group of every rank;
//   - partitioned UoI_VAR at the default Assembly: world rank 0 broadcasts
//     the series once, and the serial problem runs on the replicated-data
//     grid of (size/PL) × PL ranks — each group's ranks become bootstrap
//     rows — so the fit is the serial one bit for bit.
//
// Every other combination is an ErrPlacement. All-pairs inference takes the
// communicator alone and shards its targets over the ranks.
type Placement struct {
	// Comm is this rank's handle on the world the fit runs over.
	Comm *mpi.Comm
	// Shape is the P_B × P_λ decomposition: PB bootstrap groups times PL
	// λ groups, each of size/(PB·PL) ranks. The paper's Figure 3 sweeps
	// 16×2, 8×4, 4×8 and 2×16 at fixed total cores.
	Shape GridShape
	// Partitioned: each rank passes its own row block of the data —
	// typically from distio.RandomizedDistribute, whose randomization is
	// what makes per-rank local resampling a faithful bootstrap of the
	// global data — and every cell is a consensus-ADMM solve over its
	// group. Otherwise every rank passes the full data.
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
	// Assembly says how partitioned UoI_VAR gets the series to its ranks:
	// by default one broadcast from world rank 0, the first reader; the
	// Kronecker values run the paper's pipeline as a measured baseline.
	Assembly VARAssembly
	// FlatCollectives replaces the grid's tree/ring reassembly with the
	// flat barrier collectives (full-width Allreduce/Allgather): the
	// baseline the communication-avoiding path is measured against. The
	// results are bit-identical; only bytes on the wire and waits differ.
	FlatCollectives bool
}

// VARAssembly is how a partitioned UoI_VAR fit builds its designs from the
// series its reader ranks hold.
type VARAssembly int

const (
	// SharedSeries broadcasts the series once and has every rank build the
	// serial designs from it: the serial fit, bit for bit, at any rank
	// count, reader count and shape.
	SharedSeries VARAssembly = iota
	// KroneckerGets is the paper's §III-B2 pipeline: every bootstrap's
	// vectorized design (I⊗X, vec Y) assembled across its ADMM group with
	// one one-sided Get per row, then solved by consensus ADMM.
	KroneckerGets
	// KroneckerCommAvoiding is KroneckerGets with the Discussion's
	// de-duplicated assembly: each design row is fetched once per rank.
	KroneckerCommAvoiding
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
	// cells, warm and l2: a UoI_VAR fit's cell cache, WarmBeta and ℓ2
	// penalty are set.
	cells, warm, l2 bool
}

// place validates pl for the fit and builds the engine placement it names:
// the worker pool (journalled when checkpointed) for a nil pl, else the
// consensus groups, the journal over pl.Comm, or the grid.
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
	switch {
	case pl.Partitioned && a.fit == "VAR" && pl.Assembly == SharedSeries:
		shape := pl.Shape.normalize()
		return newGrid(pl.Comm, GridShape{PB: pl.Comm.Size() / shape.PL, PL: shape.PL}, false), nil
	case pl.Partitioned:
		return newConsensus(pl.Comm, pl.Shape), nil
	case a.ckpt != nil:
		return &journal{comm: pl.Comm, cfg: a.ckpt}, nil
	}
	return newGrid(pl.Comm, pl.Shape, pl.FlatCollectives), nil
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
	case (pl.NReaders != 0 || pl.Assembly != SharedSeries) && !(part && a.fit == "VAR"):
		why = "NReaders and a Kronecker Assembly apply to partitioned VAR only"
	case pl.Assembly < SharedSeries || pl.Assembly > KroneckerCommAvoiding:
		why = fmt.Sprintf("unknown VARAssembly %d", pl.Assembly)
	case pl.EstX != nil && !(part && a.fit == "Lasso"):
		why = "an estimation block applies to partitioned Lasso only"
	case pl.FlatCollectives && !grid:
		why = "FlatCollectives applies to the replicated-data grid only"
	case part && a.fit == "VAR" && (a.cells || a.warm || a.l2):
		// The Kronecker factorization has no ℓ2 term. The shared series
		// could honour all three but keeps the baseline's surface for now.
		why = "partitioned VAR takes no cell cache, WarmBeta or L2"
	case grid && a.cells:
		why = "the grid splits the λ path, which the cell cache keys whole"
	case part && size > 0 && size%shape.Ranks() != 0:
		why = fmt.Sprintf("world size %d not divisible by grid %s", size, shape)
	case grid && (shape.PB < 1 || shape.PL < 1 || size > 0 && shape.Ranks() != size):
		why = fmt.Sprintf("replicated data needs a grid of one rank per cell, not %s on %d ranks", shape, size)
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrPlacement, why)
}
