// Package varsim provides the vector autoregression substrate for UoI_VAR:
// generation of stable sparse VAR(d) processes, simulation of observation
// series, construction of the multivariate least-squares design (paper
// eqs. 7–8), the vec/Kronecker correspondence (eq. 9), and the partition of
// the estimated coefficient vector back into (A_1..A_d, μ) (Algorithm 2,
// line 31).
package varsim

import (
	"fmt"
	"math"

	"uoivar/internal/mat"
	"uoivar/internal/resample"
)

// Model is a VAR(d) process X_t = μ + Σ_j A_j X_{t−j} + U_t with diagonal
// Gaussian noise.
type Model struct {
	// A holds the lag coefficient matrices A_1..A_d, each p×p; A[j].At(i,k)
	// is the influence of series k at lag j+1 on series i.
	A []*mat.Dense
	// Mu is the p-vector intercept.
	Mu []float64
	// NoiseStd is the per-component disturbance standard deviation.
	NoiseStd []float64
}

// P returns the process dimension.
func (m *Model) P() int {
	if len(m.A) == 0 {
		return 0
	}
	return m.A[0].Rows
}

// D returns the order (number of lags).
func (m *Model) D() int { return len(m.A) }

// GenOptions configures GenerateStable.
type GenOptions struct {
	// Density is the expected fraction of nonzero entries per A_j
	// (default 3/p, a sparse Granger network).
	Density float64
	// SpectralTarget is the companion-matrix spectral radius the
	// coefficients are rescaled to (default 0.7; must be < 1 for
	// stability, paper eq. 6 constraint).
	SpectralTarget float64
	// CoefScale is the magnitude scale of nonzero coefficients before
	// stabilization (default 1).
	CoefScale float64
	// NoiseStd is the disturbance standard deviation (default 1).
	NoiseStd float64
}

func (o *GenOptions) defaults(p int) GenOptions {
	out := GenOptions{Density: 3 / float64(p), SpectralTarget: 0.7, CoefScale: 1, NoiseStd: 1}
	if o == nil {
		return out
	}
	if o.Density > 0 {
		out.Density = o.Density
	}
	if o.SpectralTarget > 0 {
		out.SpectralTarget = o.SpectralTarget
	}
	if o.CoefScale > 0 {
		out.CoefScale = o.CoefScale
	}
	if o.NoiseStd > 0 {
		out.NoiseStd = o.NoiseStd
	}
	return out
}

// GenerateStable draws a random sparse VAR(d) model of dimension p whose
// companion matrix has spectral radius SpectralTarget, so the process is
// stationary (det(I − ΣA_j z^j) ≠ 0 for |z| ≤ 1).
func GenerateStable(rng *resample.RNG, p, d int, opts *GenOptions) *Model {
	if p <= 0 || d <= 0 {
		panic(fmt.Sprintf("varsim: invalid dimensions p=%d d=%d", p, d))
	}
	o := opts.defaults(p)
	m := &Model{A: make([]*mat.Dense, d), Mu: make([]float64, p), NoiseStd: make([]float64, p)}
	for i := range m.NoiseStd {
		m.NoiseStd[i] = o.NoiseStd
	}
	for j := 0; j < d; j++ {
		a := mat.NewDense(p, p)
		for i := 0; i < p; i++ {
			for k := 0; k < p; k++ {
				if rng.Float64() < o.Density {
					v := o.CoefScale * (0.5 + float64(rng.Float64()))
					if rng.Float64() < 0.5 {
						v = -v
					}
					a.Set(i, k, v)
				}
			}
		}
		// Guarantee at least a weak diagonal so no series is pure noise.
		for i := 0; i < p; i++ {
			if a.At(i, i) == 0 && j == 0 {
				a.Set(i, i, 0.3*o.CoefScale)
			}
		}
		m.A[j] = a
	}
	radius := m.SpectralRadius()
	if radius > 0 {
		for j := 0; j < d; j++ {
			scale := math.Pow(o.SpectralTarget/radius, float64(j+1))
			m.A[j].Scale(scale)
		}
	}
	return m
}

// SpectralRadius estimates the spectral radius of the dp×dp companion matrix
// by power iteration (matrix-free: one companion multiply is d small GEMVs).
func (m *Model) SpectralRadius() float64 {
	p, d := m.P(), m.D()
	n := p * d
	rng := resample.NewRNG(12345)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize := func(x []float64) float64 {
		nrm := mat.Norm2(x)
		if nrm == 0 {
			return 0
		}
		inv := 1 / nrm
		for i := range x {
			x[i] *= inv
		}
		return nrm
	}
	normalize(v)
	w := make([]float64, n)
	var lastNorm float64
	for iter := 0; iter < 200; iter++ {
		// Companion multiply: top block row is Σ_j A_j v_j; the rest shift.
		top := make([]float64, p)
		for j := 0; j < d; j++ {
			seg := v[j*p : (j+1)*p]
			tj := mat.MulVec(m.A[j], seg)
			mat.Axpy(top, 1, tj)
		}
		copy(w[:p], top)
		copy(w[p:], v[:n-p])
		copy(v, w)
		nrm := normalize(v)
		if iter > 20 && math.Abs(nrm-lastNorm) < 1e-10*(1+nrm) {
			return nrm
		}
		lastNorm = nrm
	}
	return lastNorm
}

// Simulate draws a length-n series from the model after discarding burnIn
// initial steps. The result is n×p, row t = X_t.
func (m *Model) Simulate(rng *resample.RNG, n, burnIn int) *mat.Dense {
	p, d := m.P(), m.D()
	total := n + burnIn + d
	buf := mat.NewDense(total, p)
	// Initialize the first d rows with pure noise.
	for t := 0; t < d; t++ {
		row := buf.Row(t)
		for i := range row {
			row[i] = m.Mu[i] + float64(m.NoiseStd[i]*rng.NormFloat64())
		}
	}
	for t := d; t < total; t++ {
		row := buf.Row(t)
		copy(row, m.Mu)
		for j := 0; j < d; j++ {
			prev := buf.Row(t - j - 1)
			contrib := mat.MulVec(m.A[j], prev)
			mat.Axpy(row, 1, contrib)
		}
		for i := range row {
			row[i] += float64(m.NoiseStd[i] * rng.NormFloat64())
		}
	}
	return buf.SubRows(burnIn+d, total)
}

// Design holds the multivariate least-squares arrangement Y = X·B + E of
// eqs. 7–8: Y is (N−d)×p, X is (N−d)×(dp [+1 with intercept]).
type Design struct {
	Y *mat.Dense
	X *mat.Dense
	// P is the process dimension, D the order.
	P, D int
	// Intercept records whether X carries a trailing all-ones column.
	Intercept bool
}

// NewDesign builds the lag design from an N×p series. Row i of the design
// targets time t = d+i: Y row = X_t, X row = [X_{t−1}, …, X_{t−d}] (+1).
func NewDesign(series *mat.Dense, d int, intercept bool) *Design {
	nTotal, p := series.Rows, series.Cols
	if d <= 0 || nTotal <= d {
		panic(fmt.Sprintf("varsim: cannot build order-%d design from %d samples", d, nTotal))
	}
	m := nTotal - d
	cols := d * p
	if intercept {
		cols++
	}
	y := mat.NewDense(m, p)
	x := mat.NewDense(m, cols)
	for i := 0; i < m; i++ {
		t := d + i
		copy(y.Row(i), series.Row(t))
		xr := x.Row(i)
		for j := 0; j < d; j++ {
			copy(xr[j*p:(j+1)*p], series.Row(t-j-1))
		}
		if intercept {
			xr[cols-1] = 1
		}
	}
	return &Design{Y: y, X: x, P: p, D: d, Intercept: intercept}
}

// NewDesignFromRows builds a design whose rows are the given target-time
// subset of the full design (targets must be in [d, N)); used for block
// bootstrap samples, which resample design rows while keeping each row's
// internal lag structure intact.
func NewDesignFromRows(series *mat.Dense, d int, intercept bool, targets []int) *Design {
	nTotal, p := series.Rows, series.Cols
	cols := d * p
	if intercept {
		cols++
	}
	y := mat.NewDense(len(targets), p)
	x := mat.NewDense(len(targets), cols)
	for i, t := range targets {
		if t < d || t >= nTotal {
			panic(fmt.Sprintf("varsim: target time %d outside [%d,%d)", t, d, nTotal))
		}
		copy(y.Row(i), series.Row(t))
		xr := x.Row(i)
		for j := 0; j < d; j++ {
			copy(xr[j*p:(j+1)*p], series.Row(t-j-1))
		}
		if intercept {
			xr[cols-1] = 1
		}
	}
	return &Design{Y: y, X: x, P: p, D: d, Intercept: intercept}
}

// VecY returns vec(Y): columns of Y stacked (column-major), the response of
// the vectorized problem (eq. 9).
func (d *Design) VecY() []float64 {
	m, p := d.Y.Rows, d.Y.Cols
	out := make([]float64, m*p)
	for j := 0; j < p; j++ {
		for i := 0; i < m; i++ {
			out[j*m+i] = d.Y.At(i, j)
		}
	}
	return out
}

// PartitionBeta rearranges the vectorized coefficient estimate vec(B) into
// lag matrices (A_1..A_d) and the intercept μ (Algorithm 2, line 31).
// beta must have length X.Cols · p.
func (d *Design) PartitionBeta(beta []float64) (a []*mat.Dense, mu []float64) {
	return PartitionVec(beta, d.P, d.D, d.Intercept)
}

// PartitionVec is PartitionBeta without a Design: it rearranges vec(B) for
// a p-dimensional order-d model with the given intercept convention.
func PartitionVec(beta []float64, p, ord int, intercept bool) (a []*mat.Dense, mu []float64) {
	rowsB := ord * p
	if intercept {
		rowsB++
	}
	if len(beta) != rowsB*p {
		panic(fmt.Sprintf("varsim: beta length %d, want %d", len(beta), rowsB*p))
	}
	a = make([]*mat.Dense, ord)
	for j := range a {
		a[j] = mat.NewDense(p, p)
	}
	mu = make([]float64, p)
	for i := 0; i < p; i++ { // target series = column i of B
		col := beta[i*rowsB : (i+1)*rowsB]
		for j := 0; j < ord; j++ {
			for k := 0; k < p; k++ {
				a[j].Set(i, k, col[j*p+k])
			}
		}
		if intercept {
			mu[i] = col[rowsB-1]
		}
	}
	return a, mu
}

// FlattenModel is the inverse of PartitionBeta: it packs (A_1..A_d, μ) into
// vec(B) for a design with the given intercept convention.
func FlattenModel(a []*mat.Dense, mu []float64, intercept bool) []float64 {
	ord := len(a)
	p := a[0].Rows
	rowsB := ord * p
	if intercept {
		rowsB++
	}
	beta := make([]float64, rowsB*p)
	for i := 0; i < p; i++ {
		col := beta[i*rowsB : (i+1)*rowsB]
		for j := 0; j < ord; j++ {
			for k := 0; k < p; k++ {
				col[j*p+k] = a[j].At(i, k)
			}
		}
		if intercept && mu != nil {
			col[rowsB-1] = mu[i]
		}
	}
	return beta
}
