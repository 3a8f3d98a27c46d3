package varsim

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
)

// DFResult reports one augmented Dickey–Fuller test.
type DFResult struct {
	Series int
	// Tau is the ADF t-statistic of the lagged-level coefficient.
	Tau float64
	// Stationary reports rejection of the unit-root null at the requested
	// level.
	Stationary bool
}

// adfCriticalValues holds the (constant-included) Dickey–Fuller tau critical
// values for large samples (MacKinnon 1991 asymptotic values).
var adfCriticalValues = map[float64]float64{
	0.01: -3.43,
	0.05: -2.86,
	0.10: -2.57,
}

// ADFTest runs the augmented Dickey–Fuller unit-root test with constant and
// `lags` augmentation lags on each column of the series:
//
//	Δx_t = α + γ·x_{t−1} + Σ_{j=1..lags} δ_j·Δx_{t−j} + ε_t
//
// rejecting the unit-root null when the t-statistic of γ is below the
// MacKinnon critical value for the given level (0.01, 0.05 or 0.10; other
// levels are rejected). The paper's finance preprocessing — first
// differences "to obtain a plausibly stationary vector time series" — is
// exactly the remedy this test motivates, so the pipeline can check its
// input instead of assuming it.
func ADFTest(series *mat.Dense, lags int, level float64) ([]DFResult, error) {
	if lags < 0 {
		return nil, fmt.Errorf("varsim: negative lag count %d", lags)
	}
	crit, ok := adfCriticalValues[level]
	if !ok {
		return nil, fmt.Errorf("varsim: unsupported ADF level %v (use 0.01, 0.05 or 0.10)", level)
	}
	n, p := series.Rows, series.Cols
	m := n - 1 - lags // usable Δx observations
	k := 2 + lags     // constant + level + augmentation terms
	if m < k+3 {
		return nil, fmt.Errorf("varsim: %d samples insufficient for ADF with %d lags", n, lags)
	}
	out := make([]DFResult, p)
	x := make([]float64, n)
	design := mat.NewDense(m, k)
	dy := make([]float64, m)
	for s := 0; s < p; s++ {
		series.Col(s, x)
		for t := 0; t < m; t++ {
			tt := t + 1 + lags // current time index of Δx_t
			dy[t] = x[tt] - x[tt-1]
			row := design.Row(t)
			row[0] = 1
			row[1] = x[tt-1]
			for j := 1; j <= lags; j++ {
				row[1+j] = x[tt-j] - x[tt-j-1]
			}
		}
		gram := mat.AtA(design)
		ch, err := mat.NewCholesky(mat.AddRidge(gram, 1e-10*(mat.NormInf(gram.Data)+1)))
		if err != nil {
			return nil, err
		}
		beta := ch.Solve(mat.GramVec(design, dy))
		// Residual variance and the standard error of γ (coefficient 1).
		r := mat.Sub(mat.MulVec(design, beta), dy)
		sigma2 := mat.Dot(r, r) / float64(m-k)
		// Var(β) = σ²·(XᵀX)⁻¹; extract entry (1,1) by solving for e₁.
		e1 := make([]float64, k)
		e1[1] = 1
		invCol := ch.Solve(e1)
		se := sqrtPos(sigma2 * invCol[1])
		tau := 0.0
		if se > 0 {
			tau = beta[1] / se
		}
		out[s] = DFResult{Series: s, Tau: tau, Stationary: tau < crit}
	}
	return out, nil
}

func sqrtPos(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
