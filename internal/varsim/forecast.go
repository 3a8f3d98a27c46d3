package varsim

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
	"uoivar/internal/metrics"
)

// Forecast iterates the model forward h steps from the end of history
// (an n×p series with n ≥ d), returning the h×p point forecasts (noise-free
// conditional means).
func (m *Model) Forecast(history *mat.Dense, h int) *mat.Dense {
	p, d := m.P(), m.D()
	if history.Cols != p {
		panic(mat.ErrShape)
	}
	if history.Rows < d {
		panic(fmt.Sprintf("varsim: need at least %d history rows, have %d", d, history.Rows))
	}
	if h <= 0 {
		return mat.NewDense(0, p)
	}
	// Working buffer: last d observations followed by the forecasts.
	buf := mat.NewDense(d+h, p)
	for j := 0; j < d; j++ {
		copy(buf.Row(j), history.Row(history.Rows-d+j))
	}
	for t := d; t < d+h; t++ {
		row := buf.Row(t)
		copy(row, m.Mu)
		for j := 0; j < d; j++ {
			mat.Axpy(row, 1, mat.MulVec(m.A[j], buf.Row(t-j-1)))
		}
	}
	return buf.SubRows(d, d+h)
}

// OneStepPredictions computes the in-sample one-step-ahead predictions for
// rows d..n−1 of the series, returning an (n−d)×p matrix aligned with the
// lag design's responses.
func (m *Model) OneStepPredictions(series *mat.Dense) *mat.Dense {
	p, d := m.P(), m.D()
	if series.Cols != p {
		panic(mat.ErrShape)
	}
	n := series.Rows
	out := mat.NewDense(n-d, p)
	for t := d; t < n; t++ {
		row := out.Row(t - d)
		copy(row, m.Mu)
		for j := 0; j < d; j++ {
			mat.Axpy(row, 1, mat.MulVec(m.A[j], series.Row(t-j-1)))
		}
	}
	return out
}

// PredictionScore evaluates one-step predictive quality of the model on a
// series: per-variable R² plus the overall RMSE.
func (m *Model) PredictionScore(series *mat.Dense) (r2 []float64, rmse float64) {
	d := m.D()
	pred := m.OneStepPredictions(series)
	p := m.P()
	r2 = make([]float64, p)
	var sumSq float64
	count := 0
	yCol := make([]float64, pred.Rows)
	pCol := make([]float64, pred.Rows)
	for j := 0; j < p; j++ {
		for t := 0; t < pred.Rows; t++ {
			yCol[t] = series.At(d+t, j)
			pCol[t] = pred.At(t, j)
			dlt := yCol[t] - pCol[t]
			sumSq += float64(dlt * dlt)
			count++
		}
		r2[j] = metrics.R2(yCol, pCol)
	}
	if count > 0 {
		rmse = math.Sqrt(sumSq / float64(count))
	}
	return r2, rmse
}

// ModelFromEstimate packages estimated lag matrices and intercept into a
// Model (with unit noise) so the forecasting helpers apply to fitted
// coefficients.
func ModelFromEstimate(a []*mat.Dense, mu []float64) *Model {
	p := a[0].Rows
	noise := make([]float64, p)
	for i := range noise {
		noise[i] = 1
	}
	if mu == nil {
		mu = make([]float64, p)
	}
	return &Model{A: a, Mu: mu, NoiseStd: noise}
}
