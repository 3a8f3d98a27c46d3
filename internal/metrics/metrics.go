// Package metrics provides the statistical evaluation measures used to
// assess UoI against its baselines: selection accuracy (false positives /
// false negatives, the quantities UoI is designed to keep low), estimation
// error (bias and variance), and prediction quality (R²).
package metrics

import (
	"math"

	"uoivar/internal/mat"
)

// Selection summarizes support recovery against ground truth.
type Selection struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	TrueNegatives  int
}

// CompareSupports scores an estimated coefficient vector against the true
// one, treating |v| > tol as selected.
func CompareSupports(trueBeta, estBeta []float64, tol float64) Selection {
	if len(trueBeta) != len(estBeta) {
		panic("metrics: length mismatch")
	}
	var s Selection
	for i := range trueBeta {
		tr := math.Abs(trueBeta[i]) > tol
		es := math.Abs(estBeta[i]) > tol
		switch {
		case tr && es:
			s.TruePositives++
		case !tr && es:
			s.FalsePositives++
		case tr && !es:
			s.FalseNegatives++
		default:
			s.TrueNegatives++
		}
	}
	return s
}

// Precision returns TP / (TP + FP), or 1 when nothing was selected.
func (s Selection) Precision() float64 {
	d := s.TruePositives + s.FalsePositives
	if d == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(d)
}

// Recall returns TP / (TP + FN), or 1 when the true support is empty.
func (s Selection) Recall() float64 {
	d := s.TruePositives + s.FalseNegatives
	if d == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (s Selection) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// EstimationError summarizes coefficient estimation quality.
type EstimationError struct {
	// Bias is the mean signed error over the true support.
	Bias float64
	// RMSE is the root mean squared error over all coefficients.
	RMSE float64
	// SupportRMSE restricts the RMSE to the true support.
	SupportRMSE float64
}

// CompareEstimates measures estimation error of estBeta against trueBeta.
func CompareEstimates(trueBeta, estBeta []float64, tol float64) EstimationError {
	if len(trueBeta) != len(estBeta) {
		panic("metrics: length mismatch")
	}
	var e EstimationError
	var sumSq, supSumSq, biasSum float64
	nSup := 0
	for i := range trueBeta {
		d := estBeta[i] - trueBeta[i]
		sumSq += float64(d * d)
		if math.Abs(trueBeta[i]) > tol {
			nSup++
			supSumSq += float64(d * d)
			biasSum += d
		}
	}
	e.RMSE = math.Sqrt(sumSq / float64(len(trueBeta)))
	if nSup > 0 {
		e.SupportRMSE = math.Sqrt(supSumSq / float64(nSup))
		e.Bias = biasSum / float64(nSup)
	}
	return e
}

// R2 returns the coefficient of determination of predictions yHat against
// observations y: 1 − SS_res/SS_tot. Degenerate (constant) y gives 0 unless
// the fit is exact.
func R2(y, yHat []float64) float64 {
	if len(y) != len(yHat) {
		panic("metrics: length mismatch")
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yHat[i]
		ssRes += float64(d * d)
		m := y[i] - mean
		ssTot += float64(m * m)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// PredictionLoss is the squared-error loss L(β, E) = ½‖y − Xβ‖² that
// Algorithm 1 (line 19) evaluates on held-out bootstrap data to pick the
// best support per estimation bootstrap.
func PredictionLoss(x *mat.Dense, y, beta []float64) float64 {
	r := mat.Sub(mat.MulVec(x, beta), y)
	return 0.5 * mat.Dot(r, r)
}
