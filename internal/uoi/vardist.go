package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/kron"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// VARDistOptions extends VARConfig for distributed runs.
type VARDistOptions struct {
	// NReaders is the number of reader ranks holding the series and design
	// blocks ("a small number of processes ... read the data file in
	// parallel and create windows", §III-B2). With a process grid, each
	// ADMM group has its own NReaders reader ranks (the leading ranks of
	// the group), all of which must hold the series. 0 selects
	// min(groupSize, 8).
	NReaders int
	// CommAvoiding selects the de-duplicated assembly (the Discussion's
	// proposed communication-avoiding strategy) instead of the paper's
	// measured per-row Gets.
	CommAvoiding bool
	// Grid enables the P_B × P_λ process-grid parallelism of Fig. 8:
	// bootstraps shard across P_B group rows and λ values across P_λ group
	// columns; supports recombine with a world Allreduce.
	Grid Grid
}

// VARDistributed runs UoI_VAR across the ranks of comm, exercising the full
// paper pipeline: per-bootstrap distributed Kronecker/vectorization
// assembly from reader windows, consensus LASSO-ADMM over the vectorized
// problem, support intersection, and projected-OLS estimation.
//
// series must be provided on reader ranks (rank < NReaders) and may be nil
// elsewhere; every rank derives identical bootstrap indices from cfg.Seed,
// so no coordination traffic is needed beyond the assembly Gets and solver
// Allreduces. Every rank returns the identical result.
func VARDistributed(comm *mpi.Comm, series *mat.Dense, cfg *VARConfig, dopts *VARDistOptions) (*VARResult, error) {
	c := cfg.defaults()
	size := comm.Size()
	nReaders := 0
	commAvoiding := false
	var grid Grid
	if dopts != nil {
		nReaders = dopts.NReaders
		commAvoiding = dopts.CommAvoiding
		grid = dopts.Grid
	}
	grid = grid.normalize()
	groups := grid.Groups()
	if size%groups != 0 {
		return nil, fmt.Errorf("uoi: world size %d not divisible by grid %dx%d", size, grid.PB, grid.PLambda)
	}
	groupSize := size / groups
	g := comm.Rank() / groupSize
	bSlot := g / grid.PLambda
	lSlot := g % grid.PLambda
	sub := comm
	if groups > 1 {
		sub = comm.Split(g, comm.Rank())
	}
	rank := sub.Rank()
	if nReaders <= 0 {
		nReaders = groupSize
		if nReaders > 8 {
			nReaders = 8
		}
	}
	if nReaders > groupSize {
		return nil, fmt.Errorf("uoi: %d readers exceed %d group ranks", nReaders, groupSize)
	}
	isReader := rank < nReaders
	// Collective-safe validation: agree on validity before anyone bails out
	// of the collective call sequence.
	valid := 1.0
	if isReader && series == nil {
		valid = 0
	}
	// Shape exchange from world rank 0 (a reader of the first group).
	shape := make([]float64, 2)
	if comm.Rank() == 0 && series != nil {
		shape[0] = float64(series.Rows)
		shape[1] = float64(series.Cols)
	}
	if comm.AllreduceScalar(mpi.OpMin, valid) == 0 {
		return nil, fmt.Errorf("uoi: reader rank(s) missing the series")
	}
	comm.Bcast(0, shape)
	nTotal, p := int(shape[0]), int(shape[1])
	d := c.Order
	if nTotal <= d+4 {
		return nil, fmt.Errorf("uoi: series of %d samples too short for order %d", nTotal, d)
	}
	m := nTotal - d
	blockLen := c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}
	intercept := !c.NoIntercept
	rowsB := d * p
	if intercept {
		rowsB++
	}
	betaLen := rowsB * p

	assembleFn := kron.Assemble
	if commAvoiding {
		assembleFn = kron.AssembleCommAvoiding
	}
	// buildLocal constructs this reader's slice of the bootstrap design for
	// the given bootstrap target times.
	buildLocal := func(targets []int) *varsim.Design {
		if !isReader {
			return nil
		}
		lo, hi := readerRange(len(targets), nReaders, rank)
		return varsim.NewDesignFromRows(series, d, intercept, targets[lo:hi])
	}

	root := resample.NewRNG(c.Seed)
	res := &VARResult{}
	var kronTime time.Duration

	// Kernel worker budget: `size` rank goroutines share the process, so
	// each rank's dense kernels get GOMAXPROCS/size workers by default.
	tr := c.Trace
	kw := kernelBudget(c.KernelWorkers, size)
	tr.SetMax("mat/kernel_workers", int64(kw))

	// λ grid: derive from the first bootstrap assembly if not given (needs
	// the assembled block to compute ‖(I⊗X)ᵀ vec(Y)‖∞ with one Allreduce).
	// The derivation happens inside the first selection bootstrap, so it is
	// traced as a selection child rather than a top-level phase.
	lambdas := c.Lambdas

	// ---- Model selection (Algorithm 2 lines 2–13) ----
	tSel := time.Now()
	spSel := tr.Start("selection")
	// indicator[j*betaLen+i] counts bootstraps whose support at λ_j
	// contains vec-coefficient i (identical on every rank, since all ranks
	// see the same consensus estimates).
	var indicator []float64
	for k := 0; k < c.B1; k++ {
		targets := varSelTargets(root, k, m, blockLen, &c)
		if lambdas != nil && indicator == nil {
			indicator = make([]float64, len(lambdas)*betaLen)
		}
		// λ-grid derivation (first bootstrap) must run on every group so
		// all groups agree; afterwards, groups only process their own
		// bootstrap shard.
		needLambda := lambdas == nil
		if !needLambda && k%grid.PB != bSlot {
			continue
		}
		spBoot := spSel.Child("bootstrap")
		spK := spSel.Child("kron_assembly")
		block, err := assembleFn(sub, buildLocal(targets), nReaders)
		spK.End()
		if err != nil {
			return nil, fmt.Errorf("uoi: VAR assembly %d: %w", k, err)
		}
		kronTime += block.AssembleTime
		rho := c.ADMM.Rho
		if rho <= 0 {
			rho = kron.GlobalRho(sub, block)
		}
		f, err := kron.NewVecFactorizationWorkers(block, rho, kw)
		if err != nil {
			return nil, fmt.Errorf("uoi: VAR factorization %d: %w", k, err)
		}
		tr.Add("admm/factorizations", 1)
		if needLambda {
			// ‖Aᵀy‖∞ over this group's block rows (identical data in every
			// group for bootstrap 0, so groups agree without a world sync).
			spGrid := spSel.Child("lambda_grid")
			localAty := make([]float64, betaLen)
			q := block.Q
			for r := 0; r < block.X.Rows; r++ {
				j := block.Equation(r)
				mat.Axpy(localAty[j*q:(j+1)*q], block.Y[r], block.X.Row(r))
			}
			sub.Allreduce(mpi.OpSum, localAty)
			lmax := mat.NormInf(localAty)
			if lmax <= 0 {
				lmax = 1
			}
			lambdas = admm.LogSpaceLambdas(lmax, c.LambdaRatio, c.Q)
			spGrid.End()
			if indicator == nil {
				indicator = make([]float64, len(lambdas)*betaLen)
			}
			if k%grid.PB != bSlot {
				spBoot.End()
				continue
			}
		}
		var warmZ, warmU []float64
		for j, lam := range lambdas {
			if j%grid.PLambda != lSlot {
				continue
			}
			opts := c.ADMM
			opts.WarmZ, opts.WarmU = warmZ, warmU
			r := f.Solve(sub, lam, &opts)
			warmZ, warmU = r.Beta, r.U
			res.Diag.LassoFits++
			res.Diag.ADMMIters += r.Iters
			row := indicator[j*betaLen : (j+1)*betaLen]
			for i, v := range r.Beta {
				if v > c.SupportTol || v < -c.SupportTol {
					row[i]++
				}
			}
		}
		spBoot.End()
	}
	res.Lambdas = lambdas
	// Combine support counts across groups; within a group all ranks hold
	// identical counts, so the world sum over-counts by groupSize exactly.
	if groups > 1 {
		comm.Allreduce(mpi.OpSum, indicator)
		mat.ScaleVec(indicator, 1/float64(groupSize))
	}
	spSel.End()
	spInt := tr.Start("intersection")
	// The rescaled counts are integers up to rounding; the half-count slack
	// absorbs it.
	threshold := float64(selectionThreshold(c.SelectionFrac, c.B1))
	supports := supportsFromCounts(indicator, len(lambdas), betaLen, threshold-0.5)
	res.Supports = supports
	res.Diag.SelectionTime = time.Since(tSel)

	// ---- Model estimation (Algorithm 2 lines 15–30) ----
	tEst := time.Now()
	distinct := dedupeSupports(supports)
	spInt.End()
	spEst := tr.Start("estimation")
	// winnersFlat[k·betaLen:(k+1)·betaLen] holds estimation bootstrap k's
	// winning estimate; groups fill their own shard and (when gridded) a
	// world sum assembles the full set before the union step.
	winnersFlat := make([]float64, c.B2*betaLen)
	for k := 0; k < c.B2; k++ {
		if k%groups != g {
			continue
		}
		spBoot := spEst.Child("bootstrap")
		rng := root.Derive(1_000_000 + uint64(k))
		trainIdx, evalIdx := resample.BlockTrainEvalSplit(rng, m, blockLen, c.TrainFrac)
		toTargets := func(idx []int) []int {
			out := make([]int, len(idx))
			for i, v := range idx {
				out[i] = d + v
			}
			return out
		}
		spK := spEst.Child("kron_assembly")
		trainBlock, err := assembleFn(sub, buildLocal(toTargets(trainIdx)), nReaders)
		if err != nil {
			return nil, fmt.Errorf("uoi: VAR train assembly %d: %w", k, err)
		}
		evalBlock, err := assembleFn(sub, buildLocal(toTargets(evalIdx)), nReaders)
		spK.End()
		if err != nil {
			return nil, fmt.Errorf("uoi: VAR eval assembly %d: %w", k, err)
		}
		kronTime += trainBlock.AssembleTime + evalBlock.AssembleTime
		rho := c.ADMM.Rho
		if rho <= 0 {
			rho = kron.GlobalRho(sub, trainBlock)
		}
		f, err := kron.NewVecFactorizationWorkers(trainBlock, rho, kw)
		if err != nil {
			return nil, fmt.Errorf("uoi: VAR train factorization %d: %w", k, err)
		}
		tr.Add("admm/factorizations", 1)
		var best winner
		for _, s := range distinct {
			mask := admm.SupportMask(betaLen, s)
			r := f.SolveProjected(sub, mask, &c.ADMM)
			res.Diag.OLSFits++
			res.Diag.ADMMIters += r.Iters
			best.offer(sub.AllreduceScalar(mpi.OpSum, evalBlock.LocalSquaredError(r.Beta)), r.Beta)
		}
		copy(winnersFlat[k*betaLen:(k+1)*betaLen], best.estimate(betaLen))
		spBoot.End()
	}
	if groups > 1 {
		comm.Allreduce(mpi.OpSum, winnersFlat)
		mat.ScaleVec(winnersFlat, 1/float64(groupSize))
	}
	spEst.End()
	spUnion := tr.Start("union")
	winners := make([][]float64, c.B2)
	for k := 0; k < c.B2; k++ {
		winners[k] = winnersFlat[k*betaLen : (k+1)*betaLen]
	}
	res.Beta = combineWinners(winners, betaLen, c.MedianUnion)
	res.A, res.Mu = varsim.PartitionVec(res.Beta, p, d, intercept)
	spUnion.End()
	res.Diag.EstimationTime = time.Since(tEst)
	res.KronTime = kronTime
	return res, nil
}

// readerRange block-stripes n bootstrap rows over nReaders (mirrors
// kron.readerBlock).
func readerRange(n, nReaders, r int) (lo, hi int) {
	base := n / nReaders
	rem := n % nReaders
	lo = r*base + minI(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
