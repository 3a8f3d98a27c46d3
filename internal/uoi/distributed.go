package uoi

import (
	"fmt"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
)

// Grid describes the P_B × P_λ process-grid parallelism of §III: bootstrap
// groups (P_B) times regularization groups (P_λ), with the remaining factor
// of the world size dedicated to distributed ADMM (ADMM_cores). The paper's
// Figure 3 sweeps 16×2, 8×4, 4×8 and 2×16 at fixed total cores; its
// multi-node scaling runs use 1×1 (all cores in one ADMM group).
type Grid struct {
	PB      int // bootstrap-level parallelism (1 = none)
	PLambda int // λ-level parallelism (1 = none)
}

func (g Grid) normalize() Grid {
	if g.PB <= 0 {
		g.PB = 1
	}
	if g.PLambda <= 0 {
		g.PLambda = 1
	}
	return g
}

// Groups returns PB·PLambda.
func (g Grid) Groups() int { return g.PB * g.PLambda }

// LassoDistributed runs UoI_LASSO across the ranks of comm. Each rank holds
// a row block (xLocal, yLocal) of the global data — typically produced by
// distio.RandomizedDistribute, whose Tier-2 randomization is what makes
// per-rank local resampling a faithful bootstrap of the global data.
//
// With grid = {1,1} every (bootstrap, λ) solve is a comm-wide consensus
// ADMM run in sequence. With larger grids the world is Split into
// PB·PLambda ADMM groups; selection work is sharded as bootstraps k ≡ b
// (mod PB) and λ indices j ≡ l (mod PLambda), supports are re-combined with
// a single world Allreduce(Min) over indicator vectors (the intersection of
// eq. 3), and estimation bootstraps are sharded across all groups with the
// final union/average combined by a world Allreduce(Sum).
//
// Every rank returns the identical Result.
func LassoDistributed(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64, cfg *LassoConfig, grid Grid) (*Result, error) {
	return LassoDistributedPhases(comm, xLocal, yLocal, xLocal, yLocal, cfg, grid)
}

// LassoDistributedPhases is LassoDistributed with distinct local blocks for
// the selection and estimation phases — the paper's Fig. 1c pipeline, where
// a Tier-2 reshuffle re-randomizes row ownership between model selection
// and model estimation so the two phases resample independent
// randomizations:
//
//	selBlock, _ := distio.RandomizedDistribute(comm, path, seed)
//	estBlock, _ := distio.Reshuffle(comm, selBlock, seed+1)
//	res, _ := uoi.LassoDistributedPhases(comm, xSel, ySel, xEst, yEst, cfg, grid)
func LassoDistributedPhases(comm *mpi.Comm, xSel *mat.Dense, ySel []float64, xEst *mat.Dense, yEst []float64, cfg *LassoConfig, grid Grid) (*Result, error) {
	c := cfg.defaults()
	if c.Standardize {
		// Global moments agreed by Allreduce; both phases share the scaler
		// (same global data, different row ownership), and the estimate maps
		// back to original units at the end.
		scaler := preprocess.FitDistributed(comm, xSel, ySel)
		inner := c
		inner.Standardize = false
		res, err := LassoDistributedPhases(comm,
			scaler.Transform(xSel), scaler.TransformY(ySel),
			scaler.Transform(xEst), scaler.TransformY(yEst), &inner, grid)
		if err != nil {
			return nil, err
		}
		beta, intercept := scaler.InverseBeta(res.Beta)
		res.Beta = beta
		res.Intercept = intercept
		res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
		return res, nil
	}
	grid = grid.normalize()
	size := comm.Size()
	groups := grid.Groups()
	if size%groups != 0 {
		return nil, fmt.Errorf("uoi: world size %d not divisible by grid %dx%d", size, grid.PB, grid.PLambda)
	}
	admmCores := size / groups
	g := comm.Rank() / admmCores
	b := g / grid.PLambda
	l := g % grid.PLambda
	sub := comm
	if groups > 1 {
		sub = comm.Split(g, comm.Rank())
	}
	// Degraded quorum mode (MinBootstrapFrac > 0): a failed bootstrap is
	// dropped by agreement among the ranks that process it, instead of
	// failing the whole fit. Selection bootstrap k is processed by every
	// rank of bootstrap row b = k mod PB (PLambda·admmCores ranks), so the
	// per-bootstrap agreement domain is the row communicator; estimation
	// bootstrap k is owned by a single ADMM group, so its domain is sub.
	quorum := c.MinBootstrapFrac > 0
	rowComm := comm
	if quorum && grid.PB > 1 {
		rowComm = comm.Split(b, comm.Rank())
	}

	p := xSel.Cols
	nLocal := xSel.Rows
	nEst := xEst.Rows
	// Collective-safe validation: local-block problems may differ per rank,
	// so agree before anyone leaves the collective sequence.
	valid := 1.0
	if nLocal != len(ySel) || nLocal < 4 || nEst != len(yEst) || nEst < 4 || xEst.Cols != p {
		valid = 0
	}
	if comm.AllreduceScalar(mpi.OpMin, valid) == 0 {
		return nil, fmt.Errorf("uoi: invalid local block on some rank (here: sel %d/%d, est %d/%d)", nLocal, len(ySel), nEst, len(yEst))
	}

	// Kernel worker budget: with `size` rank goroutines sharing the process,
	// each rank's dense kernels get GOMAXPROCS/size workers by default —
	// the fix for every rank spawning a full GOMAXPROCS worker set.
	tr := c.Trace
	kw := kernelBudget(c.KernelWorkers, size)
	tr.SetMax("mat/kernel_workers", int64(kw))

	// λ grid must be identical everywhere: compute the global λmax with one
	// Allreduce over local |Xᵀy|∞ contributions.
	spGrid := tr.Start("lambda_grid")
	lambdas := c.Lambdas
	if lambdas == nil {
		localAty := mat.AtVecWorkers(xSel, ySel, kw)
		lmax := comm.AllreduceScalar(mpi.OpMax, mat.NormInf(localAty))
		if lmax <= 0 {
			lmax = 1
		}
		lambdas = admm.LogSpaceLambdas(lmax, c.LambdaRatio, c.Q)
	}
	spGrid.End()
	q := len(lambdas)
	root := resample.NewRNG(c.Seed)
	res := &Result{Lambdas: lambdas}

	// ---- Model selection ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	// counts[j*p+i] tallies, across this group's processed bootstraps, the
	// supports at λ_j containing feature i. Within an ADMM group every rank
	// holds the same consensus estimate, so the world-wide Sum reduction
	// over-counts by admmCores exactly; the selection threshold scales
	// accordingly. The (possibly soft) intersection of eq. 3 is then a
	// threshold on the summed counts.
	counts := make([]float64, q*p)
	okB1 := make([]float64, c.B1)
	for k := 0; k < c.B1; k++ {
		if k%grid.PB != b {
			continue
		}
		// The injected fault is rank-independent, so every rank of the row
		// skips solver construction (a collective) for the same k.
		spBoot := spSel.Child("bootstrap")
		var faultErr error
		if c.BootstrapFault != nil {
			faultErr = c.BootstrapFault("selection", k)
		}
		var solver *admm.ConsensusSolver
		err := faultErr
		if faultErr == nil {
			rng := root.Derive(uint64(k) + 1).Derive(uint64(comm.Rank()) + 1)
			boot := bootstrapSample(rng, nLocal)
			solver, err = admm.NewConsensusSolverGram(sub, mat.GramWorkers(xSel, boot, kw), mat.GramVec(xSel, ySel, boot), c.ADMM.Rho, c.L2, kw)
			if err == nil {
				tr.Add("admm/factorizations", 1)
			}
		}
		if err != nil && !quorum {
			return nil, fmt.Errorf("uoi: selection bootstrap %d: %w", k, err)
		}
		if quorum {
			// Solver construction fails locally (its only collective, the
			// rho Allreduce, precedes any error return), so the row agrees
			// per bootstrap whether every participant can proceed.
			okLocal := 1.0
			if err != nil {
				okLocal = 0
			}
			if rowComm.AllreduceScalar(mpi.OpMin, okLocal) == 0 {
				tr.Instant("fault/bootstrap_dropped", "fault")
				spBoot.End()
				continue // bootstrap k dropped row-wide
			}
		}
		okB1[k] = 1
		var warmZ, warmU []float64
		for j, lam := range lambdas {
			if j%grid.PLambda != l {
				continue
			}
			opts := c.ADMM
			opts.WarmZ, opts.WarmU = warmZ, warmU
			r := solver.Solve(lam, &opts)
			warmZ, warmU = r.Beta, r.U
			res.Diag.LassoFits++
			res.Diag.ADMMIters += r.Iters
			for i, v := range r.Beta {
				if v > c.SupportTol || v < -c.SupportTol {
					counts[j*p+i]++
				}
			}
		}
		spBoot.End()
	}
	// World-wide combination across bootstrap groups; every rank of an ADMM
	// group contributed identical counts, so divide by admmCores.
	comm.Allreduce(mpi.OpSum, counts)
	b1Done := c.B1
	if quorum {
		// Every rank of the responsible row set okB1[k] identically, so a
		// Max reduction gives the world-agreed completed set — and with it
		// every rank reaches the same quorum verdict without extra rounds.
		comm.Allreduce(mpi.OpMax, okB1)
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
	spInt := tr.Start("intersection")
	// The summed counts are exact multiples of admmCores; the half-count
	// slack only keeps the comparison away from the boundary.
	threshold := float64(selectionThreshold(c.SelectionFrac, b1Done))
	supports := supportsFromCounts(counts, q, p, (threshold-0.5)*float64(admmCores))
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)

	// ---- Model estimation ----
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spInt.End()
	spEst := tr.Start("estimation")
	// winners[k*p:(k+1)*p] collects estimation bootstrap k's winning
	// estimate; groups fill their own k rows and a world Sum reduction
	// (divided by admmCores) assembles the full set, so both the averaging
	// union and the median union see every winner.
	winners := make([]float64, c.B2*p)
	okB2 := make([]float64, c.B2)
	for k := 0; k < c.B2; k++ {
		if k%groups != g {
			continue
		}
		spBoot := spEst.Child("bootstrap")
		var faultErr error
		if c.BootstrapFault != nil {
			faultErr = c.BootstrapFault("estimation", k)
		}
		var solver *admm.ConsensusSolver
		var evalIdx []int
		err := faultErr
		if faultErr == nil {
			rng := root.Derive(1_000_000 + uint64(k)).Derive(uint64(comm.Rank()) + 1)
			var trainIdx []int
			trainIdx, evalIdx = resample.TrainEvalSplit(rng, nEst, c.TrainFrac)
			train := mat.Sample{Rows: trainIdx}
			solver, err = admm.NewConsensusSolverGram(sub, mat.GramWorkers(xEst, train, kw), mat.GramVec(xEst, yEst, train), c.ADMM.Rho, 0, kw)
			if err == nil {
				tr.Add("admm/factorizations", 1)
			}
		}
		if err != nil && !quorum {
			return nil, fmt.Errorf("uoi: estimation bootstrap %d: %w", k, err)
		}
		if quorum {
			// An estimation bootstrap is owned by one ADMM group, so the
			// agreement domain is sub.
			okLocal := 1.0
			if err != nil {
				okLocal = 0
			}
			if sub.AllreduceScalar(mpi.OpMin, okLocal) == 0 {
				tr.Instant("fault/bootstrap_dropped", "fault")
				spBoot.End()
				continue // bootstrap k dropped group-wide
			}
		}
		okB2[k] = 1
		var best winner
		for _, s := range distinct {
			mask := admm.SupportMask(p, s)
			r := solver.SolveProjected(mask, &c.ADMM)
			res.Diag.OLSFits++
			res.Diag.ADMMIters += r.Iters
			// Held-out loss over the group's evaluation rows; the projected
			// estimate is exactly zero off the support.
			localLoss := heldOutLoss(xEst, yEst, evalIdx, s, r.Beta)
			best.offer(sub.AllreduceScalar(mpi.OpSum, localLoss), r.Beta)
		}
		copy(winners[k*p:(k+1)*p], best.estimate(p))
		spBoot.End()
	}
	comm.Allreduce(mpi.OpSum, winners)
	b2Done := c.B2
	if quorum {
		comm.Allreduce(mpi.OpMax, okB2)
		b2Done = 0
		for _, ok := range okB2 {
			if ok > 0 {
				b2Done++
			}
		}
		res.Bootstrap.B2Completed, res.Bootstrap.B2Failed = b2Done, c.B2-b2Done
		if need := quorumCount(c.MinBootstrapFrac, c.B2); b2Done < need {
			return nil, fmt.Errorf("%w: estimation completed %d/%d, need %d", ErrQuorum, b2Done, c.B2, need)
		}
	} else {
		res.Bootstrap.B2Completed = c.B2
	}
	spEst.End()
	// Dropped bootstraps left zero rows; the union is over completed rows.
	spUnion := tr.Start("union")
	winnerRows := make([][]float64, 0, b2Done)
	for k := 0; k < c.B2; k++ {
		if quorum && okB2[k] == 0 {
			continue
		}
		row := winners[k*p : (k+1)*p]
		mat.ScaleVec(row, 1/float64(admmCores))
		winnerRows = append(winnerRows, row)
	}
	res.Beta = combineWinners(winnerRows, p, c.MedianUnion)
	res.SelectedSupport = admm.Support(res.Beta, c.SupportTol)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	return res, nil
}
