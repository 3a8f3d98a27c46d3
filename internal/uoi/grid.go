package uoi

// 2-D grid execution of UoI (the P_B × P_λ decomposition of the paper and
// its follow-up, arXiv 1808.06992): one mpi.Split joins the PL ranks that
// share a bootstrap group into a row communicator. Selection cell (k, j)
// runs exactly once, on the rank at (row k mod PB, column owning λ_j); the
// serial warm-start chain along the λ path is preserved by a cross-column
// (z, u) pipeline handoff along the row, so every ADMM solve sees
// bit-for-bit the inputs the serial sweep would give it. Reassembly is two
// world collectives, as in the paper's MPI program: one Allreduce sums the
// per-λ support counts and one Allgather of fixed-size slots carries the
// estimation winners. Every reassembled quantity is either an exact integer
// sum or a pure concatenation, so grid results are bit-identical to serial
// at any grid shape.

import (
	"fmt"

	"uoivar/internal/mpi"
)

// GridShape is a P_B × P_λ layout: PB bootstrap groups (grid rows) times PL
// λ groups (grid columns), each of size/(PB·PL) ranks; group g, in
// world-rank order, sits at grid position (row g/PL, column g%PL). Over
// replicated data a group is one rank, so the shape needs exactly PB·PL
// ranks.
type GridShape struct {
	// PB is the number of bootstrap groups (grid rows); selection bootstrap
	// k is processed by row k mod PB.
	PB int
	// PL is the number of λ groups (grid columns); column c owns the
	// contiguous λ-index block mpi.RowBlock(len(lambdas), PL, c).
	PL int
}

// ParseGridShape parses an "RxC" grid spec ("4x2" → 4 bootstrap rows × 2 λ
// columns).
func ParseGridShape(s string) (GridShape, error) {
	var g GridShape
	if _, err := fmt.Sscanf(s, "%dx%d", &g.PB, &g.PL); err != nil {
		return g, fmt.Errorf("uoi: grid %q not of the form RxC", s)
	}
	if g.PB < 1 || g.PL < 1 {
		return g, fmt.Errorf("uoi: grid %q must be at least 1x1", s)
	}
	return g, nil
}

// Ranks returns the process count the shape requires (PB·PL).
func (g GridShape) Ranks() int { return g.PB * g.PL }

// String renders the shape as "RxC".
func (g GridShape) String() string { return fmt.Sprintf("%dx%d", g.PB, g.PL) }

// normalize lifts unset (or negative) factors to 1: a partitioned fit's
// unset shape is one ADMM group of every rank.
func (g GridShape) normalize() GridShape {
	g.PB, g.PL = max(g.PB, 1), max(g.PL, 1)
	return g
}

// grid is the P_B × P_λ placement at one rank's position: its row
// communicator and — once a fit begins — the rank's λ block and the
// support counts of this row's cells.
type grid struct {
	world *mpi.Comm // the full grid, labeled "world"
	row   *mpi.Comm // the PL ranks sharing this bootstrap row, labeled "row"
	rowIx int       // this rank's grid row (bootstrap group)
	colIx int       // this rank's grid column (λ group)
	shape GridShape

	q, p     int       // λ-grid size and coefficient count of the fit
	jLo, jHi int       // this column's λ block [jLo, jHi)
	counts   []float64 // the q·p per-(λ, coefficient) tally, nonzero only in this column's block
	// The column handoff of the selection bootstrap in progress, k: one
	// message per warm-start chain, tagged k·chains + chain.
	k, chains, chainLen int
	stats               func(ph phase, ks []int) // the problem's statistics step, if any
}

// newGrid derives the row sub-communicator of a validated shape. Within a
// row the sub-comm rank equals the grid column (Split orders by key =
// parent rank).
func newGrid(comm *mpi.Comm, shape GridShape) *grid {
	g := &grid{
		world: comm.WithLabel("world"),
		rowIx: comm.Rank() / shape.PL,
		colIx: comm.Rank() % shape.PL,
		shape: shape,
	}
	g.row = comm.Split(g.rowIx, comm.Rank()).WithLabel("row")
	return g
}

// warmPayload packs a (z, u) warm-start pair for the cross-column pipeline
// handoff: empty when the chain has no state yet (the next column cold-
// starts, exactly as the serial sweep would at its first λ).
func warmPayload(z, u []float64) []float64 {
	if len(z) == 0 {
		return nil
	}
	out := make([]float64, 0, len(z)+len(u))
	out = append(out, z...)
	return append(out, u...)
}

// splitWarmPayload is the inverse of warmPayload for state vectors of
// length n.
func splitWarmPayload(pay []float64, n int) (z, u []float64) {
	if len(pay) == 0 {
		return nil, nil
	}
	return pay[:n], pay[n:]
}

func (g *grid) streams() int { return g.world.Size() }

func (g *grid) begin(pb *problem) error {
	if pb.seed != nil && g.shape.PL > 1 {
		// The seeded sweep runs smallest-λ first, so the chain would have
		// to be handed leftwards across the grid's columns.
		return fmt.Errorf("%w: a WarmBeta seed on grid %s, whose PL > 1 splits the λ path", ErrPlacement, g.shape)
	}
	g.q, g.p = len(pb.lambdas), pb.p
	g.chains, g.chainLen, g.stats = pb.chains, pb.chainLen, pb.stats
	g.jLo, g.jHi = mpi.RowBlock(g.q, g.shape.PL, g.colIx)
	g.counts = make([]float64, g.q*g.p)
	return nil
}

// warm receives the (z, u) pair bootstrap g.k's chain carries into this
// column's λ block from the column to the left.
func (g *grid) warm(chain int) (z, u []float64) {
	return splitWarmPayload(g.row.Recv(g.colIx-1, g.k*g.chains+chain), g.chainLen)
}

// emit sends the chain's state after this column's block to the right.
func (g *grid) emit(chain int, z, u []float64) {
	g.row.Send(g.colIx+1, g.k*g.chains+chain, warmPayload(z, u))
}

// selection runs bootstrap k on row k mod PB; within the row, each column
// solves its λ block, chaining (z, u) from the column to its left (one
// message per warm-start chain, tagged by bootstrap and chain). Distinct
// bootstraps use distinct p2p tags, so column 0 pipelines ahead while later
// columns drain earlier bootstraps (software pipelining). Faults and
// factorization errors are pure functions of (phase, k) and the replicated
// data, so every column of the row reaches the same skip/fail verdict with
// no agreement messages. The bootstraps run in rounds of one per row, and a
// problem with a statistics step (one column, so rows are world ranks) takes
// it once per round on every rank.
func (g *grid) selection(ph phase) (int, error) {
	var warm warmFn
	var emit emitFn
	if g.colIx > 0 {
		warm = g.warm
	}
	if g.colIx < g.shape.PL-1 {
		emit = g.emit
	}
	var okB1 []float64 // quorum phases: the bootstraps this row completed
	if ph.quorum {
		okB1 = make([]float64, ph.total)
	}
	for lo := 0; lo < ph.total; lo += g.shape.PB {
		if g.stats != nil {
			ks := make([]int, g.shape.PB)
			for r := range ks {
				if ks[r] = lo + r; ks[r] >= ph.total {
					ks[r] = -1
				}
			}
			g.stats(ph, ks)
		}
		if g.k = lo + g.rowIx; g.k >= ph.total {
			continue
		}
		sup, err := ph.sel(g.k, g.jLo, g.jHi, warm, emit)
		if err != nil {
			if !ph.quorum {
				return 0, err
			}
			continue
		}
		if ph.quorum {
			okB1[g.k] = 1
		}
		addSupportCounts(g.counts[g.jLo*g.p:], sup)
	}
	if !ph.quorum {
		return ph.total, nil
	}
	// Every column of a row recorded the identical okB1 bits for its
	// bootstraps, so a Max reduction gives the world-agreed completed set.
	g.world.Allreduce(mpi.OpMax, okB1)
	return countSet(okB1), nil
}

// supports sums every row's counts over the grid with one world Allreduce
// (each column's block sits at its λ offset, zeros elsewhere) and
// thresholds the totals locally. The counts are integers, so the sum is
// exact in any order.
func (g *grid) supports(threshold int) [][]int {
	g.world.Allreduce(mpi.OpSum, g.counts)
	return supportsFromCounts(g.counts, g.q, g.p, float64(threshold))
}

// estimation block-partitions the B2 bootstraps over all ranks in rank
// order, computes them in rounds, and exchanges the winners with one
// Allgather of fixed-size slots, one per round: [k+1, status, beta…], where
// k+1 = 0 marks an empty slot (the ragged tail) and status 0 a dropped
// bootstrap. The exchange is pure concatenation, so the winners are
// identical on every rank.
func (g *grid) estimation(ph phase) ([][]float64, error) {
	world, b2 := g.world, ph.total
	size, slotLen := world.Size(), 2+g.p
	kLo, kHi := mpi.RowBlock(b2, size, world.Rank())
	rounds := (b2 + size - 1) / size
	mine := make([]float64, rounds*slotLen)
	for t := 0; t < rounds; t++ {
		if g.stats != nil {
			// Round t's cells: the t-th bootstrap of every rank's block.
			ks := make([]int, size)
			for r := range ks {
				if lo, hi := mpi.RowBlock(b2, size, r); lo+t < hi {
					ks[r] = lo + t
				} else {
					ks[r] = -1
				}
			}
			g.stats(ph, ks)
		}
		k := kLo + t
		if k >= kHi {
			continue
		}
		slot := mine[t*slotLen : (t+1)*slotLen]
		slot[0] = float64(k + 1)
		beta, err := ph.est(k)
		if err != nil {
			if ph.quorum {
				continue
			}
			return nil, err
		}
		slot[1] = 1
		copy(slot[2:], beta)
	}
	all := world.Allgather(mine)
	winners := make([][]float64, b2)
	for pos := 0; pos < len(all); pos += slotLen {
		// The gathered buffer is this rank's own: alias it.
		if slot := all[pos : pos+slotLen : pos+slotLen]; slot[0] != 0 && slot[1] != 0 {
			winners[int(slot[0])-1] = slot[2:]
		}
	}
	return winners, nil
}

// totals sums the work counters over the grid (integers: exact), so every
// rank reports the fit's totals, like the serial Diag.
func (g *grid) totals(d *Diagnostics) {
	work := []float64{float64(d.LassoFits), float64(d.OLSFits), float64(d.ADMMIters)}
	g.world.Allreduce(mpi.OpSum, work)
	d.LassoFits, d.OLSFits, d.ADMMIters = int(work[0]), int(work[1]), int(work[2])
}
