package admm

import (
	"math"

	"uoivar/internal/mat"
)

// OLSOnSupportWorkers solves the unpenalized least-squares problem
// restricted to the given support columns and scatters the solution back
// into a length-p vector (zeros off support). This is the estimation-step
// solve of Algorithm 1 line 18: "Compute OLS estimate β̂_{S_j}^k". The Gram
// product on the support columns runs across at most workers goroutines
// (≤0 selects mat.DefaultWorkers).
//
// Rank-deficient bootstrap designs (|S| close to or above the sample count)
// are handled with a small ridge fallback.
func OLSOnSupportWorkers(x *mat.Dense, y []float64, support []int, workers int) []float64 {
	beta := make([]float64, x.Cols)
	if len(support) == 0 {
		return beta
	}
	sub := x.SelectCols(support)
	sol := OLSFromGram(mat.AtAWorkers(sub, workers), mat.AtVecWorkers(sub, y, workers))
	for i, j := range support {
		beta[j] = sol[i]
	}
	return beta
}

// OLSFromGram solves the normal equations gram·β = xty of a least-squares
// fit from its sufficient statistics (gram = XᵀX, xty = Xᵀy), so callers
// that fit many supports of one design extract sub-blocks of a Gram they
// computed once instead of rebuilding it per fit.
//
// A gram that is not numerically positive definite (|S| close to or above
// the sample count) falls down a ridge ladder: a jitter of 1e-8 × the mean
// diagonal, then a strongly regularized +1. If even that cannot be factored
// the data are non-finite and the estimate is all NaN — not a panic — so
// held-out scoring discards the support.
func OLSFromGram(gram *mat.Dense, xty []float64) []float64 {
	ch, err := mat.NewCholesky(gram)
	if err != nil {
		tr := 0.0
		for i := 0; i < gram.Rows; i++ {
			tr += gram.At(i, i)
		}
		jitter := 1e-8 * (tr/float64(gram.Rows) + 1)
		ch, err = mat.NewCholesky(mat.AddRidge(gram, jitter))
		if err != nil {
			ch, err = mat.NewCholesky(mat.AddRidge(gram, 1.0))
		}
		if err != nil {
			sol := make([]float64, len(xty))
			for i := range sol {
				sol[i] = math.NaN()
			}
			return sol
		}
	}
	return ch.Solve(xty)
}

// SupportMask converts an index support to a boolean mask of length p.
func SupportMask(p int, support []int) []bool {
	m := make([]bool, p)
	for _, j := range support {
		m[j] = true
	}
	return m
}
