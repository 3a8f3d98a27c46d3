package varsim

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
)

// FTestResult reports one pairwise Granger causality test k → i.
type FTestResult struct {
	Source, Target int
	F              float64 // F statistic
	PValue         float64
	Significant    bool
}

// PairwiseGrangerF runs the classical bivariate Granger causality test for
// every ordered pair (k → i): it compares the restricted autoregression of
// series i on its own d lags against the unrestricted regression that adds
// d lags of series k, via the standard F statistic
//
//	F = ((RSS_r − RSS_u)/d) / (RSS_u/(n − 2d − 1))
//
// with significance at level alpha. This is the textbook Granger (1969)
// procedure the paper's framing builds on, provided as the classical
// baseline to compare UoI_VAR's network against: pairwise testing ignores
// conditioning on the remaining series and requires p·(p−1) separate
// regressions with multiple-testing corrections, which is exactly why
// sparse joint VAR estimation is preferable at scale.
func PairwiseGrangerF(series *mat.Dense, d int, alpha float64) ([]FTestResult, error) {
	n, p := series.Rows, series.Cols
	if d <= 0 {
		return nil, fmt.Errorf("varsim: order %d", d)
	}
	m := n - d
	dfDen := m - 2*d - 1
	if dfDen <= 2 {
		return nil, fmt.Errorf("varsim: %d samples insufficient for order-%d F test", n, d)
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}

	// Precompute lag columns: lag[j] is the (n−d)-vector of series values at
	// lag j+1 for each variable.
	colAt := func(v, lag int) []float64 {
		out := make([]float64, m)
		for t := 0; t < m; t++ {
			out[t] = series.At(d+t-lag, v)
		}
		return out
	}
	var results []FTestResult
	for i := 0; i < p; i++ {
		yi := colAt(i, 0)
		// Restricted design: own lags + intercept.
		restricted := mat.NewDense(m, d+1)
		for j := 0; j < d; j++ {
			restricted.SetCol(j, colAt(i, j+1))
		}
		ones := make([]float64, m)
		for t := range ones {
			ones[t] = 1
		}
		restricted.SetCol(d, ones)
		rssR, err := rss(restricted, yi)
		if err != nil {
			return nil, err
		}
		for k := 0; k < p; k++ {
			if k == i {
				continue
			}
			unrestricted := mat.NewDense(m, 2*d+1)
			for j := 0; j < d; j++ {
				unrestricted.SetCol(j, colAt(i, j+1))
				unrestricted.SetCol(d+j, colAt(k, j+1))
			}
			unrestricted.SetCol(2*d, ones)
			rssU, err := rss(unrestricted, yi)
			if err != nil {
				return nil, err
			}
			f := 0.0
			if rssU > 0 {
				f = ((rssR - rssU) / float64(d)) / (rssU / float64(dfDen))
			}
			if f < 0 {
				f = 0
			}
			pv := FSurvival(f, float64(d), float64(dfDen))
			results = append(results, FTestResult{
				Source: k, Target: i, F: f, PValue: pv, Significant: pv < alpha,
			})
		}
	}
	return results, nil
}

// rss fits OLS of y on x (with a ridge fallback for collinearity) and
// returns the residual sum of squares.
func rss(x *mat.Dense, y []float64) (float64, error) {
	gram := mat.AtA(x)
	ch, err := mat.NewCholesky(gram)
	if err != nil {
		ch, err = mat.NewCholesky(mat.AddRidge(gram, 1e-8*(mat.NormInf(gram.Data)+1)))
		if err != nil {
			return 0, err
		}
	}
	beta := ch.Solve(mat.GramVec(x, y))
	r := mat.Sub(mat.MulVec(x, beta), y)
	return mat.Dot(r, r), nil
}

// GrangerFEdges filters the test results to the significant directed edges,
// optionally applying a Bonferroni correction for the p·(p−1) tests.
func GrangerFEdges(results []FTestResult, alpha float64, bonferroni bool) []GrangerEdge {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	if bonferroni && len(results) > 0 {
		alpha /= float64(len(results))
	}
	var edges []GrangerEdge
	for _, r := range results {
		if r.PValue < alpha {
			edges = append(edges, GrangerEdge{Source: r.Source, Target: r.Target, Weight: r.F})
		}
	}
	return edges
}

// FSurvival returns P(F_{d1,d2} > x), the upper tail of the F distribution,
// via the regularized incomplete beta function.
func FSurvival(x, d1, d2 float64) float64 {
	if x <= 0 {
		return 1
	}
	// P(F > x) = I_{d2/(d2 + d1 x)}(d2/2, d1/2)
	return RegIncBeta(d2/2, d1/2, d2/(d2+float64(d1*x)))
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the Lentz continued-fraction expansion (Numerical Recipes §6.4).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + float64(a*math.Log(x)) + float64(b*math.Log(1-x))
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
