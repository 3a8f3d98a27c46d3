package varsim

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
)

// OrderCriterion names an information criterion for order selection.
type OrderCriterion int

const (
	// BIC is the Bayesian (Schwarz) information criterion.
	BIC OrderCriterion = iota
	// AIC is the Akaike information criterion.
	AIC
)

// OrderScore reports one candidate order's fit.
type OrderScore struct {
	Order int
	Score float64 // criterion value (lower is better)
	RSS   float64 // total residual sum of squares across equations
}

// SelectOrder chooses the VAR order d ∈ [1, maxOrder] by OLS-fitting every
// candidate on the series and minimizing the chosen information criterion:
//
//	BIC: m·p·log(RSS/(m·p)) + k·log(m)
//	AIC: m·p·log(RSS/(m·p)) + 2k
//
// where m is the effective sample count at maxOrder (held fixed across
// candidates so criteria are comparable) and k = d·p² + p parameters. This
// is the standard Lütkepohl procedure; UoI_VAR users run it ahead of the
// sparse fit when d is unknown.
func SelectOrder(series *mat.Dense, maxOrder int, criterion OrderCriterion) (int, []OrderScore, error) {
	n, p := series.Rows, series.Cols
	if maxOrder <= 0 {
		return 0, nil, fmt.Errorf("varsim: maxOrder %d", maxOrder)
	}
	m := n - maxOrder
	if m < maxOrder*p+p+2 {
		return 0, nil, fmt.Errorf("varsim: %d samples insufficient to compare orders up to %d (p=%d)", n, maxOrder, p)
	}
	// Common target rows: times maxOrder..n−1, so all candidates predict the
	// same m observations.
	targets := make([]int, m)
	for i := range targets {
		targets[i] = maxOrder + i
	}
	scores := make([]OrderScore, 0, maxOrder)
	best := 1
	bestScore := math.Inf(1)
	for d := 1; d <= maxOrder; d++ {
		des := NewDesignFromRows(series, d, true, targets)
		rssTotal := 0.0
		gram := mat.AtA(des.X)
		ch, err := mat.NewCholesky(mat.AddRidge(gram, 1e-10*(mat.NormInf(gram.Data)+1)))
		if err != nil {
			return 0, nil, err
		}
		yCol := make([]float64, des.X.Rows)
		for eq := 0; eq < p; eq++ {
			des.Y.Col(eq, yCol)
			beta := ch.Solve(mat.GramVec(des.X, yCol))
			r := mat.Sub(mat.MulVec(des.X, beta), yCol)
			rssTotal += mat.Dot(r, r)
		}
		if rssTotal <= 0 {
			rssTotal = 1e-300
		}
		k := float64(d*p*p + p)
		mp := float64(m * p)
		var score float64
		switch criterion {
		case AIC:
			score = float64(mp*math.Log(rssTotal/mp)) + float64(2*k)
		default:
			score = float64(mp*math.Log(rssTotal/mp)) + float64(k*math.Log(float64(m)))
		}
		scores = append(scores, OrderScore{Order: d, Score: score, RSS: rssTotal})
		if score < bestScore {
			bestScore = score
			best = d
		}
	}
	return best, scores, nil
}
