package admm

import (
	"uoivar/internal/mat"
)

// ElasticNet solves
//
//	min ½‖Xβ−y‖² + λ₁‖β‖₁ + ½λ₂‖β‖²
//
// with the same ADMM machinery as the LASSO: the ℓ2 term folds into the
// x-update ridge (factor (XᵀX + (ρ+λ₂)I)) and the z-update shrinkage picks
// up a 1/(1+λ₂/ρ)-style scaling. Elastic net is the standard remedy when
// correlated predictors make the pure LASSO's selection unstable — the
// regime where UoI's intersection step is otherwise doing all the work —
// and mirrors pyUoI's UoI_ElasticNet extension.
func ElasticNet(x *mat.Dense, y []float64, lambda1, lambda2 float64, opts *Options) (*Result, error) {
	if lambda2 < 0 {
		lambda2 = 0
	}
	o := opts.defaults()
	// Fold λ₂ into the quadratic term: f(β) = ½‖Xβ−y‖² + ½λ₂‖β‖².
	res, err := solveDense(x, y, lambda1, lambda2, &o)
	if err != nil {
		return nil, err
	}
	res.Objective = ElasticNetObjective(x, y, res.Beta, lambda1, lambda2, o.KernelWorkers)
	return res, nil
}

// NewFactorizationElasticWorkers inverts (XᵀX + (ρ+λ₂)I) for the
// elastic-net x-update while keeping the soft-threshold scale at ρ, with a
// kernel worker budget for the blocked Cholesky; it is the Factorization
// used when UoI's selection solves carry an ℓ2 term (rho ≤ 0 auto-scales as
// usual), and with λ₂ = 0 the LASSO's.
func NewFactorizationElasticWorkers(gram *mat.Dense, rho, lambda2 float64, workers int) (*Factorization, error) {
	if lambda2 < 0 {
		lambda2 = 0
	}
	if rho <= 0 {
		rho = MeanDiag(gram)
	}
	inv, err := mat.NewInverse(gram, rho+lambda2, workers)
	if err != nil {
		return nil, err
	}
	return &Factorization{inv: inv, rho: rho, p: gram.Cols}, nil
}

// ElasticNetObjective evaluates ½‖Xβ−y‖² + λ₁‖β‖₁ + ½λ₂‖β‖², running the
// product Xβ across at most workers goroutines (≤0 selects
// mat.DefaultWorkers).
func ElasticNetObjective(x *mat.Dense, y, beta []float64, lambda1, lambda2 float64, workers int) float64 {
	r := mat.Sub(mat.MulVecWorkers(x, beta, workers), y)
	sq := 0.0
	for _, v := range beta {
		sq += float64(v * v)
	}
	return float64(0.5*mat.Dot(r, r)) + float64(lambda1*mat.Norm1(beta)) + float64(0.5*lambda2*sq)
}
