// Package preprocess provides the design-matrix standardization used ahead
// of penalized regression: centering and unit-variance scaling of features
// (and optional centering of the response), plus the inverse transform that
// maps coefficients fitted in standardized space back to the original
// units. LASSO penalties are scale-sensitive, so comparing or fixing λ
// grids across datasets is only meaningful after standardization.
package preprocess

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
)

// Scaler records the per-column affine transform applied to a design.
type Scaler struct {
	Mean  []float64
	Scale []float64 // standard deviation (1 for constant columns)
	// YMean is the response offset when FitXY was used (0 otherwise).
	YMean float64
}

// Fit computes column means and standard deviations of x.
func Fit(x *mat.Dense) *Scaler {
	n, p := x.Rows, x.Cols
	if n == 0 {
		panic("preprocess: empty design")
	}
	s := &Scaler{Mean: make([]float64, p), Scale: make([]float64, p)}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += float64(d * d)
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / float64(n))
		if s.Scale[j] == 0 {
			s.Scale[j] = 1
		}
	}
	return s
}

// FitXY fits the design scaler and records the response mean.
func FitXY(x *mat.Dense, y []float64) *Scaler {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("preprocess: %d rows vs %d responses", x.Rows, len(y)))
	}
	s := Fit(x)
	for _, v := range y {
		s.YMean += v
	}
	s.YMean /= float64(len(y))
	return s
}

// Transform returns the standardized copy (x − mean)/scale.
func (s *Scaler) Transform(x *mat.Dense) *mat.Dense {
	if x.Cols != len(s.Mean) {
		panic(mat.ErrShape)
	}
	out := mat.NewDense(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		for j, v := range src {
			dst[j] = (v - s.Mean[j]) / s.Scale[j]
		}
	}
	return out
}

// TransformY returns the centered response copy.
func (s *Scaler) TransformY(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v - s.YMean
	}
	return out
}

// InverseBeta maps coefficients fitted on standardized (X, y) back to the
// original units, returning the rescaled coefficients and the intercept
// β₀ = ȳ − Σ_j β_j·mean_j.
func (s *Scaler) InverseBeta(betaStd []float64) (beta []float64, intercept float64) {
	if len(betaStd) != len(s.Scale) {
		panic(mat.ErrShape)
	}
	beta = make([]float64, len(betaStd))
	intercept = s.YMean
	for j, b := range betaStd {
		beta[j] = b / s.Scale[j]
		intercept -= float64(beta[j] * s.Mean[j])
	}
	return beta, intercept
}
