package perfmodel

import "math"

// LassoScale describes one UoI_LASSO run at scale (a point on Figures 2–6).
type LassoScale struct {
	// DataBytes is the dataset size ([X|y], 8-byte floats).
	DataBytes float64
	// Features is p (fixed at 20,101 in the paper's scaling study).
	Features int
	// Cores is the total core count.
	Cores int
	// B1, B2, Q are the UoI hyperparameters.
	B1, B2, Q int
	// PB, PLambda give the process grid (1×1 for the multi-node scaling
	// runs, per §IV "no P_B and P_λ parallelism").
	PB, PLambda int
	// Iters is the mean ADMM iteration count per LASSO solve (default 60);
	// OLS solves are charged 40% of it.
	Iters int
	// Striped marks whether the input file is OST-striped (the 16 GB
	// dataset in Table II was not).
	Striped bool
}

func (s LassoScale) normalize() LassoScale {
	if s.PB <= 0 {
		s.PB = 1
	}
	if s.PLambda <= 0 {
		s.PLambda = 1
	}
	if s.Iters <= 0 {
		s.Iters = 60
	}
	if s.B1 <= 0 {
		s.B1 = 1
	}
	if s.B2 <= 0 {
		s.B2 = 1
	}
	if s.Q <= 0 {
		s.Q = 1
	}
	return s
}

// Rows returns the sample count implied by DataBytes and Features.
func (s LassoScale) Rows() float64 {
	return s.DataBytes / (8 * float64(s.Features+1))
}

// UoILasso predicts the phase breakdown of a distributed UoI_LASSO run.
//
// Phase structure mirrors the functional implementation:
//
//	DataIO        = Tier-0/1 parallel striped read
//	Distribution  = Tier-2 one-sided random redistribution, once per UoI
//	                phase, with contention growing with the number of
//	                concurrent bootstrap groups (the empirical P_B penalty
//	                behind Fig. 3)
//	Computation   = per bootstrap: local Gram + factorization of the
//	                smaller-side system (Woodbury when rows/core < p), then
//	                per ADMM iteration the A/Aᵀ applications; per λ the
//	                support bookkeeping over p coefficients
//	Communication = one Allreduce of the (p+3)-vector per ADMM iteration
//	                (the >99% term), Tmax used since the slowest rank gates
func (m *Machine) UoILasso(s LassoScale) Breakdown {
	s = s.normalize()
	var b Breakdown
	p := float64(s.Features)
	groups := float64(s.PB * s.PLambda)
	admmCores := float64(s.Cores) / groups
	if admmCores < 1 {
		admmCores = 1
	}
	nTotal := s.Rows()
	nLocal := nTotal / float64(s.Cores) // rows per core (each group holds a shard)

	// --- Data I/O and distribution ---
	read, distr := m.RandomizedIO(s.DataBytes, s.Cores, s.Striped)
	b.DataIO = read
	// Two reshuffles (selection + estimation randomization, Fig. 1c), with
	// P_B concurrent bootstrap groups contending on the fabric.
	b.Distribution = distr * 2 * math.Pow(float64(s.PB), m.Tier2Contention)

	// --- Computation ---
	nB1 := math.Ceil(float64(s.B1) / float64(s.PB))
	nB2 := math.Ceil(float64(s.B2) / float64(s.PB))
	nLam := math.Ceil(float64(s.Q) / float64(s.PLambda))
	gemm := m.effectiveGemm(nLocal) * 1e9
	gemv := m.effectiveGemv(nLocal) * 1e9
	tri := m.TrisolveGFLOPS * 1e9

	// Factorization of the smaller-side system once per bootstrap.
	var factor float64
	if nLocal < p {
		// Woodbury: local AAᵀ Gram (n²·p) + n³/3 Cholesky.
		factor = (2*nLocal*nLocal*p + nLocal*nLocal*nLocal/3) / gemm
	} else {
		factor = (2*nLocal*p*p + p*p*p/3) / gemm
	}
	// Per ADMM iteration: A and Aᵀ applications (4·n·p) at GEMV rate plus
	// the triangular solves on the factored side.
	fdim := math.Min(nLocal, p)
	perIter := 4*nLocal*p/gemv + 2*fdim*fdim/tri
	// Per λ: support extraction + intersection bookkeeping across B1.
	perLambda := 8 * p * float64(s.B1) / gemv

	selection := nB1*(factor+nLam*float64(s.Iters)*perIter) + nLam*perLambda
	estimation := nB2 * (factor + nLam*0.4*float64(s.Iters)*perIter)
	b.Computation = selection + estimation

	// --- Communication ---
	msg := (p + 3) * 8
	_, arMax := m.AllreduceTime(int(admmCores), msg)
	totalIters := nB1*nLam*float64(s.Iters) + nB2*nLam*0.4*float64(s.Iters)
	b.Communication = totalIters * arMax
	// Support intersection/union combination across bootstrap groups.
	if s.PB > 1 {
		_, arC := m.AllreduceTime(s.Cores, float64(s.Q)*p*8)
		b.Communication += 2 * arC
	}
	return b
}
