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
	sol := append([]float64(nil), xty...)
	OLSOnBlock(gram, nil, sol, nil)
	return sol
}

// OLSOnBlock is OLSFromGram on the sub-block gram[idx, idx] (idx nil: the
// whole matrix) with rhs = Xᵀy on idx, solved in place: rhs becomes β. The
// block is factored in scratch, which it grows when it is short and
// returns, so a caller that fits many supports of one Gram reuses one
// buffer. Each rung of the ridge ladder re-reads the block from gram, since
// a failed factorization clobbers scratch; the arithmetic is OLSFromGram's
// on a copied block, bit for bit.
func OLSOnBlock(gram *mat.Dense, idx []int, rhs, scratch []float64) []float64 {
	k := len(rhs)
	if cap(scratch) < k*k {
		scratch = make([]float64, k*k)
	}
	l := scratch[:k*k]
	at := func(i int) int {
		if idx == nil {
			return i
		}
		return idx[i]
	}
	// solve loads the block plus ridge·I and solves in place.
	solve := func(ridge bool, shift float64) bool {
		for i := 0; i < k; i++ {
			row := gram.Row(at(i))
			for j := 0; j < k; j++ {
				l[i*k+j] = row[at(j)]
			}
			if ridge {
				l[i*k+i] += shift
			}
		}
		return mat.SolveSPDInPlace(l, k, rhs) == nil
	}
	if solve(false, 0) {
		return scratch
	}
	tr := 0.0
	for i := 0; i < k; i++ {
		tr += gram.At(at(i), at(i))
	}
	if solve(true, 1e-8*(tr/float64(k)+1)) || solve(true, 1.0) {
		return scratch
	}
	for i := range rhs {
		rhs[i] = math.NaN()
	}
	return scratch
}

// SupportMask converts an index support to a boolean mask of length p.
func SupportMask(p int, support []int) []bool {
	m := make([]bool, p)
	for _, j := range support {
		m[j] = true
	}
	return m
}
