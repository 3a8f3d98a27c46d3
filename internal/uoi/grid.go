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
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// GridShape is a P_B × P_λ process-grid layout: PB bootstrap rows times PL
// λ columns, requiring exactly PB·PL ranks. Rank r sits at grid position
// (row r/PL, column r%PL).
type GridShape struct {
	// PB is the number of bootstrap groups (grid rows); selection bootstrap
	// k is processed by row k mod PB.
	PB int
	// PL is the number of λ groups (grid columns); column c owns the
	// contiguous λ-index block admm.RowBlock(len(lambdas), PL, c).
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

// GridOptions configures a grid fit.
type GridOptions struct {
	// Shape is the process-grid layout; Shape.Ranks() must equal the
	// communicator size.
	Shape GridShape
	// FlatCollectives replaces the tree/ring reassembly with the flat
	// barrier collectives (full-width Allreduce/Allgather) — the
	// measurement baseline the bench artifact compares the
	// communication-avoiding path against. Results are bit-identical in
	// both modes; only bytes-on-wire and wait time differ.
	FlatCollectives bool
}

// gridComms bundles the derived communicators of one rank's grid position.
type gridComms struct {
	world *mpi.Comm // the full grid, labeled "world"
	row   *mpi.Comm // the PL ranks sharing this bootstrap row, labeled "row"
	col   *mpi.Comm // the PB ranks sharing this λ column, labeled "col"
	rowIx int       // this rank's grid row (bootstrap group)
	colIx int       // this rank's grid column (λ group)
	shape GridShape
}

// newGridComms validates the shape against the communicator and derives the
// row/column sub-communicators. Within a row the sub-comm rank equals the
// grid column (Split orders by key = parent rank), and within a column it
// equals the grid row, so column roots (col.Rank() == 0) are exactly the
// grid's row 0.
func newGridComms(comm *mpi.Comm, shape GridShape) (*gridComms, error) {
	if shape.PB < 1 || shape.PL < 1 {
		return nil, fmt.Errorf("uoi: invalid grid shape %s", shape)
	}
	if comm.Size() != shape.Ranks() {
		return nil, fmt.Errorf("uoi: grid %s needs %d ranks, have %d", shape, shape.Ranks(), comm.Size())
	}
	gc := &gridComms{
		world: comm.WithLabel("world"),
		rowIx: comm.Rank() / shape.PL,
		colIx: comm.Rank() % shape.PL,
		shape: shape,
	}
	gc.row = comm.Split(gc.rowIx, comm.Rank()).WithLabel("row")
	gc.col = comm.Split(gc.colIx, comm.Rank()).WithLabel("col")
	return gc, nil
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

// gridEstimate runs the estimation phase's reassembly: B2 bootstraps are
// block-partitioned over all ranks in rank order (pure concatenation = k
// order), computed in rounds, and exchanged either with the overlapped
// non-blocking ring gather (each round's ADMM/OLS compute overlaps the
// previous round's gather in flight) or, in flat baseline mode, with one
// padded fixed-slot Allgather at the end. compute(k) returns bootstrap k's
// winning estimate, nil when the bootstrap was dropped (quorum mode), or an
// error to fail the fit (strict mode). Winners are returned indexed by k
// (nil = dropped), identical on every rank.
func gridEstimate(gc *gridComms, flat bool, b2, betaLen int, compute func(k int) ([]float64, error)) ([][]float64, error) {
	world := gc.world
	size := world.Size()
	kLo, kHi := admm.RowBlock(b2, size, world.Rank())
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
				beta := make([]float64, betaLen)
				copy(beta, data[pos:pos+betaLen])
				winners[k] = beta
				pos += betaLen
			}
		}
		return nil
	}
	round := func(t int) ([]float64, error) {
		k := kLo + t
		if k >= kHi {
			return nil, nil
		}
		beta, err := compute(k)
		if err != nil {
			return nil, err
		}
		if beta == nil {
			return []float64{float64(k), 0}, nil
		}
		pay := make([]float64, 0, 2+betaLen)
		pay = append(pay, float64(k), 1)
		return append(pay, beta...), nil
	}
	if flat {
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

// LassoGrid runs UoI_LASSO over a PB × PL process grid with
// communication-avoiding collectives. Every rank passes the identical
// (replicated) design and response — the checkpointed engine's data model —
// and every rank returns the identical Result, bit-for-bit equal to the
// serial Lasso at any grid shape (see the package comment at the top of
// this file for the argument). Selection cells shard over the full grid
// (bootstraps over rows, λ blocks over columns, warm starts pipelined
// across columns); estimation bootstraps shard over all PB·PL ranks.
// Checkpointed mode is not supported here (use LassoCheckpointedDistributed).
func LassoGrid(comm *mpi.Comm, x *mat.Dense, y []float64, cfg *LassoConfig, opt GridOptions) (*Result, error) {
	c := cfg.defaults()
	if c.Checkpoint != nil {
		return nil, fmt.Errorf("uoi: LassoGrid does not support checkpointing")
	}
	if c.Standardize {
		// Replicated data: every rank fits the identical scaler locally, so
		// the transform needs no communication and matches serial exactly.
		scaler := preprocess.FitXY(x, y)
		inner := c
		inner.Standardize = false
		res, err := LassoGrid(comm, scaler.Transform(x), scaler.TransformY(y), &inner, opt)
		if err != nil {
			return nil, err
		}
		beta, intercept := scaler.InverseBeta(res.Beta)
		res.Beta = beta
		res.Intercept = intercept
		res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
		return res, nil
	}
	gc, err := newGridComms(comm, opt.Shape)
	if err != nil {
		return nil, err
	}
	n, p := x.Rows, x.Cols
	if n != len(y) {
		return nil, fmt.Errorf("uoi: %d rows but %d responses", n, len(y))
	}
	if n < 4 {
		return nil, fmt.Errorf("uoi: need at least 4 samples, have %d", n)
	}
	tr := c.Trace
	kw := kernelBudget(c.KernelWorkers, comm.Size())
	tr.SetMax("mat/kernel_workers", int64(kw))
	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		// Replicated data: the serial grid computation is already identical
		// on every rank.
		lambdas = admm.LogSpaceLambdas(admm.LambdaMax(x, y), c.LambdaRatio, c.Q)
	}
	spGrid.End()
	q := len(lambdas)
	root := resample.NewRNG(c.Seed)
	res := &Result{Lambdas: lambdas}
	quorum := c.MinBootstrapFrac > 0
	jLo, jHi := admm.RowBlock(q, gc.shape.PL, gc.colIx)
	blockLen := jHi - jLo

	// ---- Model selection ----
	// Bootstrap k runs on row k mod PB; within the row, each column solves
	// its λ block, chaining (z, u) from the column to its left. Distinct
	// bootstraps use distinct p2p tags, so column 0 pipelines ahead while
	// later columns drain earlier bootstraps (software pipelining).
	tSel := time.Now()
	spSel := tr.Start("selection")
	counts := make([]float64, blockLen*p)
	okB1 := make([]float64, c.B1)
	for k := gc.rowIx; k < c.B1; k += gc.shape.PB {
		spBoot := spSel.Child("bootstrap")
		// Faults and factorization errors are pure functions of (phase, k)
		// and the replicated data, so every column of the row reaches the
		// same skip/fail verdict with no agreement messages.
		var cellErr error
		if c.BootstrapFault != nil {
			if ferr := c.BootstrapFault("selection", k); ferr != nil {
				cellErr = fmt.Errorf("uoi: selection bootstrap %d: %w", k, ferr)
			}
		}
		var sup []bool
		if cellErr == nil {
			var warm func() ([]float64, []float64)
			if gc.colIx > 0 {
				k := k
				warm = func() ([]float64, []float64) {
					return splitWarmPayload(gc.row.Recv(gc.colIx-1, k), p)
				}
			}
			var lastZ, lastU []float64
			var fits, iters int
			sup, lastZ, lastU, fits, iters, cellErr = lassoSelCellRange(x, y, root, k, lambdas, jLo, jHi, warm, &c, kw, tr)
			if cellErr == nil {
				if gc.colIx < gc.shape.PL-1 {
					gc.row.Send(gc.colIx+1, k, warmPayload(lastZ, lastU))
				}
				res.Diag.LassoFits += fits
				res.Diag.ADMMIters += iters
			}
		}
		if cellErr != nil {
			if !quorum {
				spBoot.End()
				return nil, cellErr
			}
			tr.Instant("fault/bootstrap_dropped", "fault")
			spBoot.End()
			continue
		}
		okB1[k] = 1
		for j := 0; j < blockLen; j++ {
			row := sup[j*p : (j+1)*p]
			for i, v := range row {
				if v {
					counts[j*p+i]++
				}
			}
		}
		spBoot.End()
	}
	// Quorum bookkeeping is q-independent and shared by both collective
	// modes: every column of a row recorded the identical okB1 bits for its
	// bootstraps, so a Max reduction gives the world-agreed completed set.
	b1Done := c.B1
	if quorum {
		gc.world.Allreduce(mpi.OpMax, okB1)
		b1Done = 0
		for _, ok := range okB1 {
			if ok > 0 {
				b1Done++
			}
		}
		res.Bootstrap.B1Completed, res.Bootstrap.B1Failed = b1Done, c.B1-b1Done
		if need := quorumCount(c.MinBootstrapFrac, c.B1); b1Done < need {
			return nil, fmt.Errorf("%w: selection completed %d/%d, need %d", ErrQuorum, b1Done, c.B1, need)
		}
	} else {
		res.Bootstrap.B1Completed = c.B1
	}
	spSel.End()

	// ---- Intersection reassembly ----
	spInt := tr.Start("intersection")
	threshold := float64(selectionThreshold(c.SelectionFrac, b1Done))
	var supports [][]int
	if opt.FlatCollectives {
		// Flat baseline: embed the local λ block in a full q·p vector and
		// Allreduce(Sum) world-wide — every rank then thresholds the full
		// integer counts locally. Exact, but ships q·p floats per rank.
		full := make([]float64, q*p)
		copy(full[jLo*p:jHi*p], counts)
		gc.world.Allreduce(mpi.OpSum, full)
		supports = make([][]int, q)
		for j := 0; j < q; j++ {
			for i := 0; i < p; i++ {
				if full[j*p+i] >= threshold {
					supports[j] = append(supports[j], i)
				}
			}
		}
	} else {
		// Communication-avoiding reassembly: per-block counts tree-reduce
		// down each column to its root (row 0); roots threshold to sparse
		// supports; row 0 ring-allgathers the encoded blocks (column order =
		// ascending λ, pure concatenation); each column root tree-broadcasts
		// the full encoding back down. Counts are integers, so the tree
		// reduction order cannot change any value.
		gc.col.TreeReduce(0, mpi.OpSum, counts)
		var enc []float64
		if gc.rowIx == 0 {
			block := make([][]int, blockLen)
			for j := 0; j < blockLen; j++ {
				for i := 0; i < p; i++ {
					if counts[j*p+i] >= threshold {
						block[j] = append(block[j], i)
					}
				}
			}
			enc = gc.row.RingAllgatherv(encodeSupports(block))
		}
		enc = gc.col.TreeBcastV(0, enc)
		supports, err = decodeSupports(enc, q)
		if err != nil {
			return nil, err
		}
	}
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)
	spInt.End()

	// ---- Model estimation ----
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spEst := tr.Start("estimation")
	winners, err := gridEstimate(gc, opt.FlatCollectives, c.B2, p, func(k int) ([]float64, error) {
		spBoot := spEst.Child("bootstrap")
		defer spBoot.End()
		if c.BootstrapFault != nil {
			if ferr := c.BootstrapFault("estimation", k); ferr != nil {
				if quorum {
					tr.Instant("fault/bootstrap_dropped", "fault")
					return nil, nil
				}
				return nil, fmt.Errorf("uoi: estimation bootstrap %d: %w", k, ferr)
			}
		}
		beta, fits := lassoEstCell(x, y, root, k, distinct, &c, kw)
		res.Diag.OLSFits += fits
		return beta, nil
	})
	if err != nil {
		return nil, err
	}
	spEst.End()
	spUnion := tr.Start("union")
	completed := make([][]float64, 0, c.B2)
	for _, w := range winners {
		if w != nil {
			completed = append(completed, w)
		}
	}
	b2Done := len(completed)
	res.Bootstrap.B2Completed, res.Bootstrap.B2Failed = b2Done, c.B2-b2Done
	if quorum {
		if need := quorumCount(c.MinBootstrapFrac, c.B2); b2Done < need {
			return nil, fmt.Errorf("%w: estimation completed %d/%d, need %d", ErrQuorum, b2Done, c.B2, need)
		}
	}
	res.Beta = combineWinners(completed, p, c.MedianUnion)
	res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	// Work counters sum exactly (integers); every rank reports the global
	// totals, like the serial Diag.
	diag := []float64{float64(res.Diag.LassoFits), float64(res.Diag.OLSFits), float64(res.Diag.ADMMIters)}
	gc.world.Allreduce(mpi.OpSum, diag)
	res.Diag.LassoFits, res.Diag.OLSFits, res.Diag.ADMMIters = int(diag[0]), int(diag[1]), int(diag[2])
	return res, nil
}

// VARGrid runs UoI_VAR over a PB × PL process grid with
// communication-avoiding collectives — the VAR analogue of LassoGrid, with
// a per-equation (z, u) pipeline handoff across columns (the VAR warm-start
// chain is per equation). Every rank passes the identical replicated series
// and returns the identical VARResult, bit-for-bit equal to serial VAR at
// any grid shape. Checkpointing and the cell cache are not supported, and a
// WarmBeta seed is rejected when PL > 1 (the seeded sweep reverses the λ
// order, which would reverse the pipeline).
func VARGrid(comm *mpi.Comm, series *mat.Dense, cfg *VARConfig, opt GridOptions) (*VARResult, error) {
	c := cfg.defaults()
	if c.Checkpoint != nil {
		return nil, fmt.Errorf("uoi: VARGrid does not support checkpointing")
	}
	if c.Cells != nil {
		return nil, fmt.Errorf("uoi: VARGrid does not support the cell cache")
	}
	gc, err := newGridComms(comm, opt.Shape)
	if err != nil {
		return nil, err
	}
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
	kw := kernelBudget(c.KernelWorkers, comm.Size())
	tr.SetMax("mat/kernel_workers", int64(kw))

	tKron := time.Now()
	spKron := tr.Start("kron_assembly")
	full := varsim.NewDesign(series, d, !c.NoIntercept)
	spKron.End()
	kronTime := time.Since(tKron)
	rowsB := full.X.Cols
	betaLen := rowsB * p
	if len(c.WarmBeta) == betaLen && gc.shape.PL > 1 {
		return nil, fmt.Errorf("uoi: VARGrid does not support WarmBeta with PL > 1 (grid %s)", gc.shape)
	}

	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		lambdas = admm.LogSpaceLambdas(vecLambdaMax(full, kw), c.LambdaRatio, c.Q)
	}
	spGrid.End()
	q := len(lambdas)
	root := resample.NewRNG(c.Seed)
	res := &VARResult{Lambdas: lambdas}
	jLo, jHi := admm.RowBlock(q, gc.shape.PL, gc.colIx)
	lamBlock := jHi - jLo

	// ---- Model selection ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	counts := make([]float64, lamBlock*betaLen)
	for k := gc.rowIx; k < c.B1; k += gc.shape.PB {
		spBoot := spSel.Child("bootstrap")
		var warm func(eq int) ([]float64, []float64)
		var emit func(eq int, z, u []float64)
		if gc.colIx > 0 {
			k := k
			warm = func(eq int) ([]float64, []float64) {
				return splitWarmPayload(gc.row.Recv(gc.colIx-1, k*p+eq), rowsB)
			}
		}
		if gc.colIx < gc.shape.PL-1 {
			k := k
			emit = func(eq int, z, u []float64) {
				gc.row.Send(gc.colIx+1, k*p+eq, warmPayload(z, u))
			}
		}
		sup, fits, iters, kTime, err := varSelCellRange(series, root, k, m, blockLen, lambdas, jLo, jHi, warm, emit, &c, kw, tr, spSel)
		if err != nil {
			spBoot.End()
			return nil, err
		}
		kronTime += kTime
		res.Diag.LassoFits += fits
		res.Diag.ADMMIters += iters
		for j := 0; j < lamBlock; j++ {
			row := sup[j*betaLen : (j+1)*betaLen]
			for i, v := range row {
				if v {
					counts[j*betaLen+i]++
				}
			}
		}
		spBoot.End()
	}
	spSel.End()

	// ---- Intersection reassembly (see LassoGrid) ----
	spInt := tr.Start("intersection")
	threshold := float64(selectionThreshold(c.SelectionFrac, c.B1))
	var supports [][]int
	if opt.FlatCollectives {
		fullCounts := make([]float64, q*betaLen)
		copy(fullCounts[jLo*betaLen:jHi*betaLen], counts)
		gc.world.Allreduce(mpi.OpSum, fullCounts)
		supports = make([][]int, q)
		for j := 0; j < q; j++ {
			for i := 0; i < betaLen; i++ {
				if fullCounts[j*betaLen+i] >= threshold {
					supports[j] = append(supports[j], i)
				}
			}
		}
	} else {
		gc.col.TreeReduce(0, mpi.OpSum, counts)
		var enc []float64
		if gc.rowIx == 0 {
			block := make([][]int, lamBlock)
			for j := 0; j < lamBlock; j++ {
				for i := 0; i < betaLen; i++ {
					if counts[j*betaLen+i] >= threshold {
						block[j] = append(block[j], i)
					}
				}
			}
			enc = gc.row.RingAllgatherv(encodeSupports(block))
		}
		enc = gc.col.TreeBcastV(0, enc)
		supports, err = decodeSupports(enc, q)
		if err != nil {
			return nil, err
		}
	}
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)
	spInt.End()

	// ---- Model estimation ----
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spEst := tr.Start("estimation")
	winners, err := gridEstimate(gc, opt.FlatCollectives, c.B2, betaLen, func(k int) ([]float64, error) {
		spBoot := spEst.Child("bootstrap")
		defer spBoot.End()
		beta, fits, kTime := varEstCell(series, root, k, m, blockLen, betaLen, distinct, &c, kw, spEst)
		kronTime += kTime
		res.Diag.OLSFits += fits
		return beta, nil
	})
	if err != nil {
		return nil, err
	}
	spEst.End()
	spUnion := tr.Start("union")
	completed := make([][]float64, 0, c.B2)
	for _, w := range winners {
		if w != nil {
			completed = append(completed, w)
		}
	}
	res.Beta = combineWinners(completed, betaLen, c.MedianUnion)
	res.A, res.Mu = full.PartitionBeta(res.Beta)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	res.KronTime = kronTime
	diag := []float64{float64(res.Diag.LassoFits), float64(res.Diag.OLSFits), float64(res.Diag.ADMMIters)}
	gc.world.Allreduce(mpi.OpSum, diag)
	res.Diag.LassoFits, res.Diag.OLSFits, res.Diag.ADMMIters = int(diag[0]), int(diag[1]), int(diag[2])
	return res, nil
}
