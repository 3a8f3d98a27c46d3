package admm

import (
	"math"

	"uoivar/internal/mat"
)

// CoordinateDescentLasso solves min ½‖Xβ−y‖² + λ‖β‖₁ by cyclic coordinate
// descent. It exists as an independent reference implementation: the UoI
// algorithms use ADMM (as in the paper), and tests cross-check the two
// solvers against each other; the solver-choice ablation bench compares
// their cost profiles.
func CoordinateDescentLasso(x *mat.Dense, y []float64, lambda float64, maxIter int, tol float64) *Result {
	if maxIter <= 0 {
		maxIter = 1000
	}
	if tol <= 0 {
		tol = 1e-8
	}
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	// Residual r = y − Xβ, maintained incrementally.
	r := make([]float64, n)
	copy(r, y)
	// Column squared norms.
	colSq := make([]float64, p)
	cols := make([][]float64, p)
	for j := 0; j < p; j++ {
		col := x.Col(j, nil)
		cols[j] = col
		colSq[j] = mat.Dot(col, col)
	}
	iters := 0
	converged := false
	for it := 1; it <= maxIter; it++ {
		iters = it
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			if colSq[j] == 0 {
				continue
			}
			old := beta[j]
			// ρ_j = x_jᵀ r + β_j‖x_j‖²  (partial residual correlation)
			rho := mat.Dot(cols[j], r) + float64(old*colSq[j])
			var next float64
			if lambda > 0 {
				next = SoftThreshold(rho, lambda) / colSq[j]
			} else {
				next = rho / colSq[j]
			}
			if d := next - old; d != 0 {
				mat.Axpy(r, -d, cols[j])
				beta[j] = next
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
			}
		}
		if maxDelta < tol {
			converged = true
			break
		}
	}
	return &Result{
		Beta:      beta,
		Iters:     iters,
		Converged: converged,
		Objective: Objective(x, y, beta, lambda, 0),
	}
}

// Ridge solves min ½‖Xβ−y‖² + ½α‖β‖² in closed form via the normal
// equations; one of the dense-regression comparators referenced by the UoI
// papers (alongside LASSO).
func Ridge(x *mat.Dense, y []float64, alpha float64) ([]float64, error) {
	if alpha < 0 {
		alpha = 0
	}
	gram := mat.AtA(x)
	ch, err := mat.NewCholesky(mat.AddRidge(gram, alpha))
	if err != nil {
		return nil, err
	}
	return ch.Solve(mat.GramVec(x, y)), nil
}

// LambdaMax returns ‖Xᵀy‖∞, the smallest λ for which the LASSO solution is
// identically zero; λ grids are placed below it.
func LambdaMax(x *mat.Dense, y []float64) float64 {
	return mat.NormInf(mat.GramVec(x, y))
}

// LogSpaceLambdas builds a q-point λ grid geometrically spaced in
// [lambdaMax·ratio, lambdaMax], descending — the regularization path swept
// by the UoI model-selection loop (Algorithm 1 line 4).
func LogSpaceLambdas(lambdaMax float64, ratio float64, q int) []float64 {
	if q <= 0 {
		return nil
	}
	if lambdaMax <= 0 {
		lambdaMax = 1
	}
	if ratio <= 0 || ratio >= 1 {
		ratio = 1e-3
	}
	if q == 1 {
		return []float64{lambdaMax}
	}
	out := make([]float64, q)
	logMax := math.Log(lambdaMax)
	logMin := math.Log(lambdaMax * ratio)
	for i := 0; i < q; i++ {
		t := float64(i) / float64(q-1)
		out[i] = math.Exp(logMax + float64(t*(logMin-logMax)))
	}
	// Pin the endpoints exactly; exp(log x) can drift an ulp.
	out[0] = lambdaMax
	out[q-1] = lambdaMax * ratio
	return out
}
