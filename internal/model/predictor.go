package model

import (
	"errors"
	"fmt"

	"uoivar/internal/mat"
	"uoivar/internal/varsim"
)

// ErrKind reports a query the artifact's model kind does not support
// (forecasting a lasso model, edge queries on a regression).
var ErrKind = errors.New("model: operation not supported by this model kind")

// Predictor answers forecast and network queries from an artifact without
// refitting. It is immutable after construction and safe for concurrent use
// — the serving layer shares one Predictor across every in-flight request
// for a model version.
//
// The forecast kernel is the batched one: Forecast(h) is ForecastBatch of a
// single history, and ForecastBatch computes each step as one GEMM per lag
// over the whole batch (mat.MulABtWorkers, whose output rows are
// bit-independent of the batch composition). A forecast is therefore bit-identical whether
// it was answered alone or coalesced into a batch of any size — the
// guarantee the inference server's micro-batching relies on.
type Predictor struct {
	meta Meta
	// a holds the lag matrices; mu the intercept (zeros when absent).
	a  []*mat.Dense
	mu []float64
	// beta/intercept are the lasso coefficients.
	beta      []float64
	intercept float64
}

// NewPredictor derives a predictor from an artifact. The artifact's
// coefficient slices are shared, not copied; artifacts are treated as
// immutable once built.
func NewPredictor(a *Artifact) (*Predictor, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{meta: a.Meta}
	switch a.Meta.Kind {
	case KindVAR:
		p.a = a.A
		p.mu = a.Mu
		if p.mu == nil {
			p.mu = make([]float64, a.Meta.P)
		}
	case KindLasso:
		p.beta = a.Beta
		p.intercept = a.Intercept
	}
	return p, nil
}

// Order returns the VAR lag order d (0 for lasso).
func (p *Predictor) Order() int { return p.meta.Order }

// P returns the series dimension (VAR) or feature count (lasso).
func (p *Predictor) P() int { return p.meta.P }

// Forecast iterates the model h steps forward from the end of history (an
// n×p series with n ≥ d), returning the h×p noise-free conditional means.
func (p *Predictor) Forecast(history *mat.Dense, h int) (*mat.Dense, error) {
	out, err := p.ForecastBatch([]*mat.Dense{history}, h)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ForecastBatch forecasts h steps for every history in one pass: at each
// step the batch's lag-j rows are stacked into a B×p matrix and multiplied
// against A_jᵀ as a single GEMM, so B coalesced requests cost d GEMMs per
// step instead of B·d GEMVs. Row b of every product depends only on history
// b, so each returned forecast is bit-identical to the batch-of-one result.
func (p *Predictor) ForecastBatch(histories []*mat.Dense, h int) ([]*mat.Dense, error) {
	if p.meta.Kind != KindVAR {
		return nil, fmt.Errorf("%w: forecast on a %q model", ErrKind, p.meta.Kind)
	}
	d, pp := p.meta.Order, p.meta.P
	nb := len(histories)
	if nb == 0 {
		return nil, nil
	}
	for i, hist := range histories {
		if hist == nil || hist.Cols != pp {
			return nil, fmt.Errorf("model: history %d has %d columns, model has %d", i, histCols(hist), pp)
		}
		if hist.Rows < d {
			return nil, fmt.Errorf("model: history %d has %d rows, order-%d model needs at least %d", i, hist.Rows, d, d)
		}
	}
	if h <= 0 {
		out := make([]*mat.Dense, nb)
		for i := range out {
			out[i] = mat.NewDense(0, pp)
		}
		return out, nil
	}
	// Per-history working buffer: the last d observations, then the
	// forecasts, exactly as varsim.Model.Forecast lays them out. All nb
	// buffers share one allocation, and each returned forecast is a row
	// view of its buffer's last h rows, not a copy.
	rows := d + h
	slab := make([]float64, nb*rows*pp)
	bufs := make([]*mat.Dense, nb)
	for b, hist := range histories {
		buf := mat.NewDenseData(rows, pp, slab[b*rows*pp:(b+1)*rows*pp])
		copy(buf.Data[:d*pp], hist.Data[(hist.Rows-d)*pp:hist.Rows*pp])
		bufs[b] = buf
	}
	lag := mat.NewDense(nb, pp)
	prod := mat.NewDense(nb, pp)
	for t := d; t < rows; t++ {
		for b := 0; b < nb; b++ {
			copy(bufs[b].Row(t), p.mu)
		}
		for j := 0; j < d; j++ {
			for b := 0; b < nb; b++ {
				copy(lag.Row(b), bufs[b].Row(t-j-1))
			}
			mat.MulABtTo(prod, lag, p.a[j], 0)
			for b := 0; b < nb; b++ {
				mat.Axpy(bufs[b].Row(t), 1, prod.Row(b))
			}
		}
	}
	out := make([]*mat.Dense, nb)
	for b, buf := range bufs {
		out[b] = mat.NewDenseData(h, pp, buf.Data[d*pp:])
	}
	return out, nil
}

func histCols(m *mat.Dense) int {
	if m == nil {
		return 0
	}
	return m.Cols
}

// Edges extracts the directed Granger network encoded by the fitted lag
// matrices: k → i iff some (A_j)_{i,k} exceeds tol in magnitude.
func (p *Predictor) Edges(tol float64, selfLoops bool) ([]varsim.GrangerEdge, error) {
	if p.meta.Kind != KindVAR {
		return nil, fmt.Errorf("%w: edge query on a %q model", ErrKind, p.meta.Kind)
	}
	return varsim.GrangerEdges(p.a, tol, selfLoops), nil
}

// Predict evaluates the lasso model on new inputs: Xβ + intercept. The
// product is the same row-batched kernel as the forecast path, so a stacked
// request batch returns bit-identical rows to one-at-a-time evaluation.
func (p *Predictor) Predict(x *mat.Dense) ([]float64, error) {
	if p.meta.Kind != KindLasso {
		return nil, fmt.Errorf("%w: predict on a %q model", ErrKind, p.meta.Kind)
	}
	if x.Cols != p.meta.P {
		return nil, fmt.Errorf("model: %d columns, model has %d features", x.Cols, p.meta.P)
	}
	bm := mat.NewDenseData(1, len(p.beta), p.beta)
	prod := mat.MulABtWorkers(x, bm, 0)
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = prod.At(i, 0) + p.intercept
	}
	return out, nil
}
