package admm

import (
	"math"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// ConsensusSolver runs distributed LASSO/OLS consensus ADMM across the
// ranks of a communicator, with each rank holding a row block of the global
// design. This is the distributed LASSO-ADMM of paper §II-C: "each compute
// core is responsible for computation of its own objective (x) and
// constraint (z) variables ... so that all the cores converge to a common
// value of estimates", with the global z-update performed through
// MPI_Allreduce — the call the paper identifies as >99% of communication.
//
// Formulation (Boyd §8.2, splitting across examples): each rank i keeps a
// local x_i and scaled dual u_i; the shared z-update is
//
//	z = S_{λ/(ρN)}( mean_i(x_i + u_i) )
//
// one Allreduce of a length-p vector per iteration. The local factorization
// (X_iᵀX_i + ρI) is computed once at construction and shared across the
// whole λ path and the projected-OLS estimation solves, exactly as the
// serial Factorization is.
type ConsensusSolver struct {
	comm *mpi.Comm
	f    *Factorization
	p    int
}

// NewConsensusSolver factors this rank's block. The call is collective:
// when rho ≤ 0 the auto-scaled penalty is agreed across ranks with one
// Allreduce (every rank must use the identical ρ for the shared z-update to
// be a valid prox step).
func NewConsensusSolver(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64, rho float64) (*ConsensusSolver, error) {
	return NewConsensusSolverWorkers(comm, xLocal, yLocal, rho, 0)
}

// NewConsensusSolverWorkers is NewConsensusSolver with an explicit kernel
// worker budget for this rank's Gram product and Cholesky (≤0 selects
// mat.DefaultWorkers). Ranks sharing one machine pass GOMAXPROCS/size so the
// collective construction does not oversubscribe the cores.
func NewConsensusSolverWorkers(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64, rho float64, workers int) (*ConsensusSolver, error) {
	return NewConsensusSolverGram(comm, mat.AtAWorkers(xLocal, workers), mat.AtVecWorkers(xLocal, yLocal, workers), rho, 0, workers)
}

// NewConsensusSolverGram builds the solver from this rank's sufficient
// statistics gram = X_iᵀX_i and xty = X_iᵀy_i, so a caller that resamples its
// block passes weighted sums over the original rows instead of a gathered
// copy. lambda2 is the global elastic-net ℓ2 penalty (0 for the LASSO): the
// x-update solves (X_iᵀX_i + (ρ+λ₂/N)I) — the consensus objective sums
// rank-local f_i(x_i), so each of the N ranks carries λ₂/N — while the shared
// z-update shrinkage stays at scale ρ. Collective like NewConsensusSolver.
func NewConsensusSolverGram(comm *mpi.Comm, gram *mat.Dense, xty []float64, rho, lambda2 float64, workers int) (*ConsensusSolver, error) {
	if rho <= 0 {
		rho = comm.AllreduceScalar(mpi.OpSum, MeanDiag(gram)) / float64(comm.Size())
		if rho <= 0 {
			rho = 1
		}
	}
	f, err := NewFactorizationElasticWorkers(gram, rho, lambda2/float64(comm.Size()), workers)
	if err != nil {
		return nil, err
	}
	f.SetRHS(xty)
	return &ConsensusSolver{comm: comm, f: f, p: gram.Cols}, nil
}

// Solve runs consensus ADMM at the given λ (λ=0 is distributed OLS). All
// ranks must call collectively; every rank returns the identical consensus
// estimate.
func (s *ConsensusSolver) Solve(lambda float64, opts *Options) *Result {
	return s.run(opts, func(z, meanXU []float64, k float64) {
		if lambda > 0 {
			kk := lambda / (s.f.rho * k)
			for i := range z {
				z[i] = SoftThreshold(meanXU[i]/k, kk)
			}
		} else {
			for i := range z {
				z[i] = meanXU[i] / k
			}
		}
	})
}

// SolveProjected runs consensus OLS restricted to the support mask: the
// z-update projects onto the support. This is the distributed estimation
// solve (Algorithm 1 line 18) implemented exactly as the paper does ("OLS
// is implemented using LASSO-ADMM ... by setting regularization parameter λ
// to 0", with the support constraint folded into the z-update).
func (s *ConsensusSolver) SolveProjected(support []bool, opts *Options) *Result {
	if len(support) != s.p {
		panic("admm: support length mismatch")
	}
	return s.run(opts, func(z, meanXU []float64, k float64) {
		for i := range z {
			if support[i] {
				z[i] = meanXU[i] / k
			} else {
				z[i] = 0
			}
		}
	})
}

// run is the shared ADMM loop; zUpdate consumes the Allreduced Σ(x+u) and
// the rank count.
func (s *ConsensusSolver) run(opts *Options, zUpdate func(z, sumXU []float64, nRanks float64)) *Result {
	o := opts.defaults()
	nRanks := float64(s.comm.Size())
	p := s.p

	z := make([]float64, p)
	u := make([]float64, p)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, p)
	rhs := make([]float64, p)
	zOld := make([]float64, p)
	// buf carries [ Σ(x_i+u_i) | Σ‖x_i−z‖² | Σ‖x_i‖² | Σ‖u_i‖² ] in one
	// Allreduce per iteration, matching the single-collective structure the
	// paper measures.
	buf := make([]float64, p+3)
	sqrtP := math.Sqrt(float64(p) * nRanks)

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		// Local x-update.
		for i := range rhs {
			rhs[i] = s.f.aty[i] + float64(s.f.rho*(z[i]-u[i]))
		}
		s.f.XUpdate(x, rhs)

		// Global z-update.
		var lp, lx, lu float64
		for i := 0; i < p; i++ {
			buf[i] = x[i] + u[i]
			d := x[i] - z[i]
			lp += float64(d * d)
			lx += float64(x[i] * x[i])
			lu += float64(u[i] * u[i])
		}
		buf[p], buf[p+1], buf[p+2] = lp, lx, lu
		s.comm.Allreduce(mpi.OpSum, buf)

		copy(zOld, z)
		zUpdate(z, buf[:p], nRanks)

		// Local u-update.
		for i := range u {
			u[i] += x[i] - z[i]
		}

		// Stopping test on global residuals (identical on all ranks since
		// every term came from the Allreduce).
		primal = math.Sqrt(buf[p])
		dual = 0
		for i := range z {
			d := z[i] - zOld[i]
			dual += float64(d * d)
		}
		dual = s.f.rho * math.Sqrt(nRanks) * math.Sqrt(dual)
		normX := math.Sqrt(buf[p+1])
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		normU := math.Sqrt(buf[p+2])
		epsPrimal := float64(sqrtP*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		epsDual := float64(sqrtP*o.AbsTol) + float64(o.RelTol*s.f.rho*normU)
		if primal <= epsPrimal && dual <= epsDual {
			converged = true
			break
		}
	}
	countSolves(o.Trace, 1, iters)
	return &Result{
		Beta:       z,
		U:          u,
		Iters:      iters,
		Converged:  converged,
		PrimalRes:  primal,
		DualRes:    dual,
		AllreduceN: iters,
	}
}

// ConsensusLasso solves one LASSO across the ranks of comm, with each rank
// holding a row block (xLocal, yLocal) of the global design. Convenience
// wrapper over ConsensusSolver for single solves.
func ConsensusLasso(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64, lambda float64, opts *Options) (*Result, error) {
	s, err := NewConsensusSolver(comm, xLocal, yLocal, opts.defaults().Rho)
	if err != nil {
		return nil, err
	}
	return s.Solve(lambda, opts), nil
}

// RowBlock computes the [lo, hi) row range assigned to rank r when n rows
// are block-striped over size ranks (the paper's "row-wise block-striping":
// each core receives N/B rows). Remainder rows go to the leading ranks.
func RowBlock(n, size, r int) (lo, hi int) {
	base := n / size
	rem := n % size
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}
