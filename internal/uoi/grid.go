package uoi

// Communication-avoiding 2-D grid execution of UoI (the follow-up paper's
// P_B × P_λ decomposition, arXiv 1808.06992): the world is split into a
// PB × PL process grid via two mpi.Split calls — a row communicator joins
// the PL ranks that share a bootstrap group, a column communicator joins
// the PB ranks that share a λ block. Selection cell (k, j) runs exactly
// once, on the rank at (row k mod PB, column owning λ_j); the serial
// warm-start chain along the λ path is preserved by a cross-column (z, u)
// pipeline handoff, so every ADMM solve sees bit-for-bit the inputs the
// serial sweep would give it. Reassembly avoids the flat barrier
// collectives: per-λ-block support counts tree-reduce down each column
// (O(log PB) depth, (PB−1)·bytes on the wire), the thresholded supports
// ring-allgather across row 0 and tree-broadcast back down the columns, and
// estimation rounds overlap each round's compute with the previous round's
// non-blocking ring gather. Every reassembled quantity is either an exact
// integer sum or a pure concatenation, so grid results are bit-identical to
// serial at any grid shape.

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

// grid is the P_B × P_λ placement at one rank's position: the derived
// communicators, the collective mode, and — once a fit begins — the rank's
// λ block and that block's support counts.
type grid struct {
	world *mpi.Comm // the full grid, labeled "world"
	row   *mpi.Comm // the PL ranks sharing this bootstrap row, labeled "row"
	col   *mpi.Comm // the PB ranks sharing this λ column, labeled "col"
	rowIx int       // this rank's grid row (bootstrap group)
	colIx int       // this rank's grid column (λ group)
	shape GridShape
	flat  bool // flat barrier collectives instead of tree/ring

	q, p     int       // λ-grid size and coefficient count of the fit
	jLo, jHi int       // this column's λ block [jLo, jHi)
	counts   []float64 // the block's per-(λ, coefficient) tally over this row's cells
	// The column handoff of the selection bootstrap in progress, k: one
	// message per warm-start chain, tagged k·chains + chain.
	k, chains, chainLen int
	stats               func(ph phase, ks []int) // the problem's statistics step, if any
}

// newGrid derives the row/column sub-communicators of a validated shape.
// Within a row the sub-comm rank equals the grid column (Split orders by
// key = parent rank), and within a column it equals the grid row, so column
// roots (col.Rank() == 0) are exactly the grid's row 0.
func newGrid(comm *mpi.Comm, shape GridShape, flat bool) *grid {
	g := &grid{
		world: comm.WithLabel("world"),
		rowIx: comm.Rank() / shape.PL,
		colIx: comm.Rank() % shape.PL,
		shape: shape,
		flat:  flat,
	}
	g.row = comm.Split(g.rowIx, comm.Rank()).WithLabel("row")
	g.col = comm.Split(g.colIx, comm.Rank()).WithLabel("col")
	return g
}

// encodeSupports packs per-λ supports as [count, idx…]… — the
// variable-length payload the ring/tree reassembly ships.
func encodeSupports(supports [][]int) []float64 {
	n := 0
	for _, s := range supports {
		n += 1 + len(s)
	}
	enc := make([]float64, 0, n)
	for _, s := range supports {
		enc = append(enc, float64(len(s)))
		for _, i := range s {
			enc = append(enc, float64(i))
		}
	}
	return enc
}

// decodeSupports unpacks q per-λ supports from an encodeSupports payload.
func decodeSupports(enc []float64, q int) ([][]int, error) {
	out := make([][]int, q)
	pos := 0
	for j := 0; j < q; j++ {
		if pos >= len(enc) {
			return nil, fmt.Errorf("uoi: support payload truncated at λ %d", j)
		}
		n := int(enc[pos])
		pos++
		if n < 0 || pos+n > len(enc) {
			return nil, fmt.Errorf("uoi: support payload corrupt at λ %d (count %d)", j, n)
		}
		if n > 0 {
			s := make([]int, n)
			for i := 0; i < n; i++ {
				s[i] = int(enc[pos+i])
			}
			out[j] = s
		}
		pos += n
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("uoi: support payload has %d trailing values", len(enc)-pos)
	}
	return out, nil
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
	g.counts = make([]float64, (g.jHi-g.jLo)*g.p)
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
		addSupportCounts(g.counts, sup)
	}
	if !ph.quorum {
		return ph.total, nil
	}
	// Every column of a row recorded the identical okB1 bits for its
	// bootstraps, so a Max reduction gives the world-agreed completed set.
	g.world.Allreduce(mpi.OpMax, okB1)
	return countSet(okB1), nil
}

func (g *grid) supports(threshold int) ([][]int, error) {
	if g.flat {
		// Flat baseline: embed the local λ block in a full q·p vector and
		// Allreduce(Sum) world-wide — every rank then thresholds the full
		// integer counts locally. Exact, but ships q·p floats per rank.
		full := make([]float64, g.q*g.p)
		copy(full[g.jLo*g.p:], g.counts)
		g.world.Allreduce(mpi.OpSum, full)
		return supportsFromCounts(full, g.q, g.p, float64(threshold)), nil
	}
	// Communication-avoiding reassembly: per-block counts tree-reduce down
	// each column to its root (row 0); roots threshold to sparse supports;
	// row 0 ring-allgathers the encoded blocks (column order = ascending λ,
	// pure concatenation); each column root tree-broadcasts the full
	// encoding back down. Counts are integers, so the tree reduction order
	// cannot change any value.
	g.col.TreeReduce(0, mpi.OpSum, g.counts)
	var enc []float64
	if g.rowIx == 0 {
		block := supportsFromCounts(g.counts, g.jHi-g.jLo, g.p, float64(threshold))
		enc = g.row.RingAllgatherv(encodeSupports(block))
	}
	return decodeSupports(g.col.TreeBcastV(0, enc), g.q)
}

// estimation block-partitions the B2 bootstraps over all ranks in rank
// order (pure concatenation = k order), computes them in rounds, and
// exchanges the winners either with the overlapped non-blocking ring gather
// (each round's OLS compute overlaps the previous round's gather in flight)
// or, in flat baseline mode, with one padded fixed-slot Allgather at the
// end. The winners are identical on every rank.
func (g *grid) estimation(ph phase) ([][]float64, error) {
	world, b2, betaLen := g.world, ph.total, g.p
	size := world.Size()
	kLo, kHi := mpi.RowBlock(b2, size, world.Rank())
	rounds := (b2 + size - 1) / size
	winners := make([][]float64, b2)
	// Round payload: [k, status, beta…] per computed bootstrap — status 0
	// marks a dropped bootstrap (no beta follows). An empty payload marks a
	// rank with no bootstrap this round (the ragged tail).
	apply := func(data []float64) error {
		for pos := 0; pos < len(data); {
			if pos+2 > len(data) {
				return fmt.Errorf("uoi: estimation payload truncated at offset %d", pos)
			}
			k := int(data[pos])
			status := data[pos+1]
			pos += 2
			if k < 0 || k >= b2 {
				return fmt.Errorf("uoi: estimation payload names bootstrap %d of %d", k, b2)
			}
			if status != 0 {
				if pos+betaLen > len(data) {
					return fmt.Errorf("uoi: estimation payload truncated in bootstrap %d", k)
				}
				// The gathered buffer is this rank's own: alias it.
				winners[k] = data[pos : pos+betaLen : pos+betaLen]
				pos += betaLen
			}
		}
		return nil
	}
	round := func(t int) ([]float64, error) {
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
			return nil, nil
		}
		beta, err := ph.est(k)
		if err != nil {
			if ph.quorum {
				return []float64{float64(k), 0}, nil
			}
			return nil, err
		}
		pay := make([]float64, 0, 2+betaLen)
		pay = append(pay, float64(k), 1)
		return append(pay, beta...), nil
	}
	if g.flat {
		// Flat baseline: compute all rounds, then exchange once with a
		// padded fixed-slot Allgather (slot = [k+1, status, beta…]; k+1 = 0
		// marks an empty slot). Pure concatenation, like the ring path — the
		// modes differ only in bytes and synchronization, never in results.
		slotLen := 2 + betaLen
		mine := make([]float64, rounds*slotLen)
		for t := 0; t < rounds; t++ {
			pay, err := round(t)
			if err != nil {
				return nil, err
			}
			if pay != nil {
				slot := mine[t*slotLen:]
				slot[0] = pay[0] + 1
				copy(slot[1:], pay[1:])
			}
		}
		all := world.Allgather(mine)
		for r := 0; r < size; r++ {
			for t := 0; t < rounds; t++ {
				slot := all[(r*rounds+t)*slotLen:][:slotLen]
				if slot[0] == 0 {
					continue
				}
				if slot[1] == 0 {
					slot = slot[:2] // dropped: the rest of the slot is padding
				}
				tuple := append([]float64{slot[0] - 1}, slot[1:]...)
				if err := apply(tuple); err != nil {
					return nil, err
				}
			}
		}
		return winners, nil
	}
	// Tree/ring mode: while round t's cells run, round t−1's ring gather is
	// in flight — the nonblocking-overlap half of the communication-avoiding
	// design.
	var prev *mpi.GatherRequest
	for t := 0; t < rounds; t++ {
		pay, err := round(t)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			if err := apply(prev.Wait()); err != nil {
				return nil, err
			}
		}
		prev = world.IRingAllgatherv(pay)
	}
	if prev != nil {
		if err := apply(prev.Wait()); err != nil {
			return nil, err
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
