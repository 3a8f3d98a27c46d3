package uoi

// The consensus placement and its two problems: the paper's UoI over data
// distributed by rows (§III), every cell a consensus-ADMM solve sequence over
// one group of ranks — the baselines a Placement selects with Assembly
// ConsensusADMM (UoI_LASSO) or a Kronecker Assembly (UoI_VAR). A cell's
// result is replicated on every rank of its group, so groups meet through
// their leaders alone and every reassembled value is exact.

import (
	"fmt"

	"uoivar/internal/admm"
	"uoivar/internal/kron"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// consensus is the placement for data distributed by rows, at one rank's
// position in the grid of ADMM groups: the P_B × P_λ × ADMM_cores
// decomposition of §III. The world splits into PB·PL groups of
// size/(PB·PL) ranks, each running consensus ADMM over its ranks' row
// blocks. Group (b, l) runs the selection bootstraps k ≡ b (mod PB) over the
// contiguous λ block mpi.RowBlock(q, PL, l), and estimation bootstraps are
// dealt round-robin over all groups. The paper's multi-node scaling runs
// use 1×1 (all cores in one ADMM group).
type consensus struct {
	world  *mpi.Comm
	shape  GridShape
	groups int       // PB·PL
	group  *mpi.Comm // this rank's ADMM group: the communicator of its cells' solves
	row    *mpi.Comm // under quorum: the ranks of this group's bootstrap row
	gIx    int       // this group's index, b·PL + l
	b, l   int       // this group's grid row (bootstrap shard) and column (λ block)

	q, p, jLo, jHi int
	counts         []float64 // per-(λ, coefficient) tally of this group's selection cells
}

// newConsensus places this rank in its ADMM group of shape, whose group
// count check has found to divide the world size.
func newConsensus(comm *mpi.Comm, shape GridShape) *consensus {
	shape = shape.normalize()
	groups := shape.Ranks()
	g := comm.Rank() / (comm.Size() / groups)
	pl := &consensus{world: comm, shape: shape, groups: groups, group: comm, gIx: g, b: g / shape.PL, l: g % shape.PL}
	if groups > 1 {
		pl.group = comm.Split(g, comm.Rank())
	}
	return pl
}

func (pl *consensus) streams() int { return pl.world.Size() }

func (pl *consensus) begin(pb *problem) error {
	if pb.quorum > 0 {
		// A selection cell runs on every rank of its bootstrap row, an
		// estimation cell on one group: those ranks agree on dropping it.
		pl.row = pl.world
		if pl.shape.PB > 1 {
			pl.row = pl.world.Split(pl.b, pl.world.Rank())
		}
		pb.agree = pl.agree
	}
	pl.q, pl.p = len(pb.lambdas), pb.p
	pl.jLo, pl.jHi = mpi.RowBlock(pl.q, pl.shape.PL, pl.l)
	pl.counts = make([]float64, pl.q*pl.p)
	return nil
}

// agree reports whether every rank sharing the phase's current cell can run
// it.
func (pl *consensus) agree(phase string, ok bool) bool {
	domain := pl.group
	if phase == "selection" {
		domain = pl.row
	}
	v := 0.0
	if ok {
		v = 1
	}
	return domain.AllreduceScalar(mpi.OpMin, v) == 1
}

// ready is a consensus cell's step between building its solver (outcome err
// on this rank) and its first collective solve: it names a failure, counts a
// factorization, and under quorum has the cell's ranks agree to proceed.
func (pb *problem) ready(phase string, k int, err error) error {
	if err != nil {
		err = fmt.Errorf("uoi: %s bootstrap %d: %w", phase, k, err)
	} else {
		pb.tr.Add("admm/factorizations", 1)
	}
	if pb.agree != nil && !pb.agree(phase, err == nil) && err == nil {
		err = fmt.Errorf("uoi: %s bootstrap %d failed on another rank", phase, k)
	}
	return err
}

// leaderSum sums v over the groups. Each group's share is replicated on all
// its ranks, so only the group leaders contribute and the sum is exact; with
// one group v is already whole.
func (pl *consensus) leaderSum(v []float64) {
	if pl.groups == 1 {
		return
	}
	if pl.group.Rank() != 0 {
		clear(v)
	}
	pl.world.Allreduce(mpi.OpSum, v)
}

// selection runs this group's bootstrap shard over its λ block. Every rank
// of a row holds the same completion flags for the row's bootstraps, so
// under quorum a world Max agrees on the completed set.
func (pl *consensus) selection(ph phase) (int, error) {
	done := make([]float64, ph.total)
	for k := pl.b; k < ph.total; k += pl.shape.PB {
		switch sup, err := ph.sel(k, pl.jLo, pl.jHi, nil, nil); {
		case err == nil:
			done[k] = 1
			addSupportCounts(pl.counts[pl.jLo*pl.p:], sup)
		case !ph.quorum:
			return 0, err
		}
	}
	if !ph.quorum {
		return ph.total, nil
	}
	if pl.groups > 1 {
		pl.world.Allreduce(mpi.OpMax, done)
	}
	return countSet(done), nil
}

func (pl *consensus) supports(threshold int) [][]int {
	pl.leaderSum(pl.counts)
	return supportsFromCounts(pl.counts, pl.q, pl.p, float64(threshold))
}

// estimation deals the bootstraps round-robin over the groups and, with
// several groups, reassembles the winners with one leader sum (and under
// quorum the completion flags with a world Max).
func (pl *consensus) estimation(ph phase) ([][]float64, error) {
	winners := make([][]float64, ph.total)
	for k := pl.gIx; k < ph.total; k += pl.groups {
		switch beta, err := ph.est(k); {
		case err == nil:
			winners[k] = beta
		case !ph.quorum:
			return nil, err
		}
	}
	if pl.groups == 1 {
		return winners, nil
	}
	flat := make([]float64, ph.total*pl.p)
	done := make([]float64, ph.total)
	for k, w := range winners {
		if w != nil {
			copy(flat[k*pl.p:], w)
			done[k] = 1
		}
	}
	pl.leaderSum(flat)
	if ph.quorum {
		pl.world.Allreduce(mpi.OpMax, done)
	}
	for k := range winners {
		if winners[k] = nil; done[k] > 0 || !ph.quorum {
			winners[k] = flat[k*pl.p : (k+1)*pl.p]
		}
	}
	return winners, nil
}

// totals is a no-op: each rank reports the work of its own group's cells.
func (pl *consensus) totals(*Diagnostics) {}

// countSet counts the nonzero completion flags.
func countSet(flags []float64) int {
	n := 0
	for _, f := range flags {
		if f != 0 {
			n++
		}
	}
	return n
}

// consensusSel sweeps selection bootstrap k's λ block [jLo, jHi) with the
// consensus solver sv, whose construction returned err on this rank: the λ
// sweep as a batch of one chain.
func (pb *problem) consensusSel(k, jLo, jHi int, sv *admm.ConsensusSolver, err error) ([]bool, error) {
	if err = pb.ready("selection", k, err); err != nil {
		return nil, err
	}
	solve := func(out []admm.Result, lambda float64, warmZ, warmU [][]float64) {
		o := pb.opts
		o.WarmZ, o.WarmU = warmZ[0], warmU[0]
		out[0] = *sv.Solve(lambda, &o)
	}
	sup, d := sweep(solve, 1, pb.p, pb.lambdas, jLo, jHi, nil, nil, nil, pb.tol)
	pb.add(d, 0)
	return sup, nil
}

// consensusEst is estimation bootstrap k's candidate loop with the consensus
// solver sv, whose construction returned err on this rank: the projected
// solve on every distinct support, the held-out loss summed over the group,
// and the winner.
func (pb *problem) consensusEst(group *mpi.Comm, k int, distinct [][]int, sv *admm.ConsensusSolver, err error, loss func(beta []float64) float64) ([]float64, error) {
	if err = pb.ready("estimation", k, err); err != nil {
		return nil, err
	}
	var best winner
	var d Diagnostics
	for _, s := range distinct {
		r := sv.SolveProjected(admm.SupportMask(pb.p, s), &pb.opts)
		d.OLSFits++
		d.solved(r)
		best.offer(group.AllreduceScalar(mpi.OpSum, loss(r.Beta)), r.Beta)
	}
	pb.add(d, 0)
	return best.estimate(pb.p), nil
}

// newLassoConsensusProblem binds UoI_LASSO to row blocks distributed over
// pl's ranks as the paper does: selection cells resample (xSel, ySel) and
// estimation cells split (xEst, yEst), each rank its own rows, and every
// solve is consensus ADMM over the group.
func newLassoConsensusProblem(pl *consensus, xSel *mat.Dense, ySel []float64, xEst *mat.Dense, yEst []float64, c *LassoConfig) (*problem, *preprocess.Scaler, error) {
	world, p := pl.world, xSel.Cols
	// The blocks differ per rank, so the ranks agree on validity before
	// any of them leaves the collective sequence.
	valid := 1.0
	if xSel.Rows != len(ySel) || xSel.Rows < 4 || xEst.Rows != len(yEst) || xEst.Rows < 4 || xEst.Cols != p {
		valid = 0
	}
	if world.AllreduceScalar(mpi.OpMin, valid) == 0 {
		return nil, nil, fmt.Errorf("uoi: invalid local block on some rank (here: sel %d/%d, est %d/%d)", xSel.Rows, len(ySel), xEst.Rows, len(yEst))
	}
	var scaler *preprocess.Scaler
	if c.Standardize {
		// Global moments agreed by Allreduce; both phases share the scaler
		// (same global data, different row ownership).
		scaler = preprocess.FitDistributed(world, xSel, ySel)
		xSel, ySel = scaler.Transform(xSel), scaler.TransformY(ySel)
		xEst, yEst = scaler.Transform(xEst), scaler.TransformY(yEst)
	}
	// λ_max must agree everywhere: one Allreduce over local ‖Xᵀy‖∞.
	pb := newProblem(c, 1, p, pl.streams())
	pb.setLambdas(c, func() float64 {
		return orOne(world.AllreduceScalar(mpi.OpMax, mat.NormInf(mat.AtVecWorkers(xSel, ySel, pb.kw))))
	})
	root := resample.NewRNG(c.Seed)
	yS, yE := column(ySel), column(yEst)
	rank := uint64(world.Rank()) + 1
	pb.selCell = func(k, jLo, jHi int, _ warmFn, _ emitFn, _ trace.Span) ([]bool, error) {
		boot := bootstrapSample(root.Derive(uint64(k)+1).Derive(rank), xSel.Rows)
		gram, xty := mat.Stats(xSel, yS, boot, pb.kw)
		sv, err := admm.NewConsensusSolverGram(pl.group, gram, xty.Data, c.ADMM.Rho, c.L2, pb.kw)
		return pb.consensusSel(k, jLo, jHi, sv, err)
	}
	pb.estCell = func(k int, distinct [][]int, _ trace.Span) ([]float64, error) {
		trainIdx, evalIdx := resample.TrainEvalSplit(root.Derive(1_000_000+uint64(k)).Derive(rank), xEst.Rows, c.TrainFrac)
		train := mat.Sample{Rows: trainIdx}
		gram, xty := mat.Stats(xEst, yE, train, pb.kw)
		sv, err := admm.NewConsensusSolverGram(pl.group, gram, xty.Data, c.ADMM.Rho, 0, pb.kw)
		return pb.consensusEst(pl.group, k, distinct, sv, err, func(beta []float64) float64 { return heldOut(xEst, yE, evalIdx, beta) })
	}
	return pb, scaler, nil
}

// newVARConsensusProblem binds UoI_VAR to a series held by the leading
// at.NReaders ranks of every group of pl, each passing the series and the
// rest nil: the Kronecker baseline (at.Assembly). Every rank derives
// identical bootstrap indices from c.Seed, so no coordination traffic is
// needed beyond the assembly Gets and the solver Allreduces. Each
// bootstrap's vectorized design is assembled across its group from the
// readers' rows, and its cells run consensus ADMM on it. When the λ grid is
// derived, bootstrap 0's design is assembled here, for λ_max, and handed to
// selection cell 0.
func newVARConsensusProblem(pl *consensus, series *mat.Dense, c *VARConfig, at *Placement) (*problem, error) {
	group := pl.group
	nReaders, err := at.readers(group.Size())
	if err != nil {
		return nil, err
	}
	isReader := group.Rank() < nReaders
	rows, cols, err := agreeSeries(pl.world, series, isReader)
	if err != nil {
		return nil, err
	}
	m, blockLen, err := varWindow(rows, c)
	if err != nil {
		return nil, err
	}
	vc := c.vec()
	// Each equation has c.Order·cols lag columns, and the intercept's.
	pb := newProblem(vc, cols, c.Order*cols+int(bit(!c.NoIntercept)), pl.streams())
	assemble := kron.Assemble
	if at.Assembly == KroneckerCommAvoiding {
		assemble = kron.AssembleCommAvoiding
	}
	// design assembles, under the kron_assembly span sp, the vectorized
	// design of the given target rows across the group, each reader
	// contributing a contiguous share.
	design := func(sp trace.Span, targets []int) (*kron.VecBlock, error) {
		defer sp.End()
		var local *varsim.Design
		if isReader {
			lo, hi := mpi.RowBlock(len(targets), nReaders, group.Rank())
			local = varsim.NewDesignFromRows(series, c.Order, !c.NoIntercept, targets[lo:hi])
		}
		b, err := assemble(group, local, nReaders)
		if err == nil {
			pb.add(Diagnostics{}, b.AssembleTime)
		}
		return b, err
	}
	// rho is the ADMM penalty of a design: the configured one, or the
	// auto-scaled one agreed over the group.
	rho := func(b *kron.VecBlock) float64 {
		if c.ADMM.Rho > 0 {
			return c.ADMM.Rho
		}
		return kron.GlobalRho(group, b)
	}
	root := resample.NewRNG(c.Seed)
	var block0 *kron.VecBlock
	var rho0 float64
	if c.Lambdas == nil {
		if block0, err = design(pb.tr.Start("kron_assembly"), varSelTargets(root, 0, m, blockLen, c)); err != nil {
			return nil, fmt.Errorf("uoi: selection bootstrap 0: assembly: %w", err)
		}
		rho0 = rho(block0)
	}
	pb.setLambdas(vc, func() float64 {
		// ‖(I⊗X)ᵀ vec(Y)‖∞ over the group's rows of the design.
		aty := make([]float64, pb.p)
		q := block0.Q
		for r := 0; r < block0.X.Rows; r++ {
			j := block0.Equation(r)
			mat.Axpy(aty[j*q:(j+1)*q], block0.Y[r], block0.X.Row(r))
		}
		group.Allreduce(mpi.OpSum, aty)
		return orOne(mat.NormInf(aty))
	})
	if pl.b != 0 {
		block0 = nil // only bootstrap row 0 runs selection bootstrap 0
	}
	pb.selCell = func(k, jLo, jHi int, _ warmFn, _ emitFn, phase trace.Span) ([]bool, error) {
		b, r := block0, rho0
		if k != 0 || b == nil {
			var err error
			if b, err = design(phase.Child("kron_assembly"), varSelTargets(root, k, m, blockLen, c)); err != nil {
				return nil, fmt.Errorf("uoi: selection bootstrap %d: assembly: %w", k, err)
			}
			r = rho(b)
		}
		block0 = nil
		sv, err := kron.NewVecFactorizationWorkers(group, b, r, pb.kw)
		return pb.consensusSel(k, jLo, jHi, sv, err)
	}
	pb.estCell = func(k int, distinct [][]int, phase trace.Span) ([]float64, error) {
		trainIdx, evalIdx := resample.BlockTrainEvalSplit(root.Derive(1_000_000+uint64(k)), m, blockLen, c.TrainFrac)
		train, err := design(phase.Child("kron_assembly"), designTargets(c.Order, trainIdx))
		var eval *kron.VecBlock
		if err == nil {
			eval, err = design(phase.Child("kron_assembly"), designTargets(c.Order, evalIdx))
		}
		if err != nil {
			return nil, fmt.Errorf("uoi: estimation bootstrap %d: assembly: %w", k, err)
		}
		sv, err := kron.NewVecFactorizationWorkers(group, train, rho(train), pb.kw)
		return pb.consensusEst(group, k, distinct, sv, err, eval.LocalSquaredError)
	}
	return pb, nil
}

// orOne guards a λ_max: a non-positive one becomes 1.
func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}
