// Package datagen builds the synthetic workloads of the paper's evaluation:
// linear-regression datasets for UoI_LASSO (16 GB–8 TB scale in the paper;
// parameterized here), VAR series for UoI_VAR, and the two real-data
// substitutes — an S&P-500-like sector-structured financial series and a
// neurophysiology-like multichannel spike-count series (see DESIGN.md §1
// for the substitution rationale).
package datagen

import (
	"fmt"
	"math"

	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// Regression holds a synthetic linear-model dataset y = Xβ + ε.
type Regression struct {
	X        *mat.Dense
	Y        []float64
	TrueBeta []float64
}

// RegressionOptions configures MakeRegression.
type RegressionOptions struct {
	// NNZ is the number of nonzero coefficients (default max(3, p/20)).
	NNZ int
	// NoiseStd is ε's standard deviation (default 0.5).
	NoiseStd float64
	// CoefScale bounds nonzero |β| in [CoefScale/2, 3·CoefScale/2]
	// (default 1).
	CoefScale float64
}

// MakeRegression draws an n×p standard-normal design with a sparse β.
func MakeRegression(seed uint64, n, p int, opts *RegressionOptions) *Regression {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("datagen: invalid shape %dx%d", n, p))
	}
	nnz := 0
	noise := 0.5
	scale := 1.0
	if opts != nil {
		nnz = opts.NNZ
		if opts.NoiseStd > 0 {
			noise = opts.NoiseStd
		}
		if opts.CoefScale > 0 {
			scale = opts.CoefScale
		}
	}
	if nnz <= 0 {
		nnz = p / 20
		if nnz < 3 {
			nnz = 3
		}
	}
	if nnz > p {
		nnz = p
	}
	rng := resample.NewRNG(seed)
	x := mat.NewDense(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	beta := make([]float64, p)
	perm := rng.Perm(p)
	for _, j := range perm[:nnz] {
		v := scale * (0.5 + rng.Float64())
		if rng.Float64() < 0.5 {
			v = -v
		}
		beta[j] = v
	}
	y := mat.MulVec(x, beta)
	for i := range y {
		y[i] += float64(noise * rng.NormFloat64())
	}
	return &Regression{X: x, Y: y, TrueBeta: beta}
}

// WriteHBF stores the dataset as an [X | y] matrix (response in the final
// column, the InputData(X, y) ∈ R^{n×(p+1)} layout of Algorithm 1).
func (r *Regression) WriteHBF(path string, opts hbf.CreateOptions) (hbf.Meta, error) {
	n, p := r.X.Rows, r.X.Cols
	data := make([]float64, n*(p+1))
	for i := 0; i < n; i++ {
		copy(data[i*(p+1):i*(p+1)+p], r.X.Row(i))
		data[i*(p+1)+p] = r.Y[i]
	}
	return hbf.Create(path, n, p+1, data, opts)
}

// Finance mimics the paper's S&P 500 workload: p companies grouped into
// sectors, with dense-ish intra-sector Granger influence, sparse
// cross-sector links, and a handful of high-in-degree hub companies (the
// "dependence of Google on a variety of other companies spanning several
// industry sectors" structure of Fig. 11). Returned series are already
// first-difference-stationary (the model is a stable VAR on returns).
type Finance struct {
	Model   *varsim.Model
	Series  *mat.Dense // n×p "weekly first differences of closes"
	Tickers []string
	Sectors []int // sector id per company
}

// FinanceOptions configures MakeFinance.
type FinanceOptions struct {
	// Sectors is the number of industry sectors (default 8).
	Sectors int
	// IntraDensity is the within-sector edge probability (default 0.12).
	IntraDensity float64
	// InterDensity is the cross-sector edge probability (default 0.004).
	InterDensity float64
	// Hubs is the number of high-in-degree companies (default 2).
	Hubs int
}

// MakeFinance generates p companies over n periods.
func MakeFinance(seed uint64, p, n int, opts *FinanceOptions) *Finance {
	sectors := 8
	intra := 0.12
	inter := 0.004
	hubs := 2
	if opts != nil {
		if opts.Sectors > 0 {
			sectors = opts.Sectors
		}
		if opts.IntraDensity > 0 {
			intra = opts.IntraDensity
		}
		if opts.InterDensity > 0 {
			inter = opts.InterDensity
		}
		if opts.Hubs >= 0 && opts != nil {
			hubs = opts.Hubs
		}
	}
	if sectors > p {
		sectors = p
	}
	rng := resample.NewRNG(seed)
	sector := make([]int, p)
	for i := range sector {
		sector[i] = i % sectors
	}
	a := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		for k := 0; k < p; k++ {
			if i == k {
				continue
			}
			prob := inter
			if sector[i] == sector[k] {
				prob = intra
			}
			if rng.Float64() < prob {
				v := 0.3 + float64(0.7*rng.Float64())
				if rng.Float64() < 0.35 {
					v = -v
				}
				a.Set(i, k, v)
			}
		}
		// Mild momentum on the diagonal.
		a.Set(i, i, 0.2+float64(0.2*rng.Float64()))
	}
	// Hubs: first `hubs` companies receive influence from many sectors.
	for h := 0; h < hubs && h < p; h++ {
		for s := 0; s < sectors; s++ {
			src := s + sectors*(1+rng.Intn(maxInt(1, p/sectors-1)))
			if src < p && src != h {
				a.Set(h, src, 0.4+float64(0.5*rng.Float64()))
			}
		}
	}
	model := &varsim.Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: make([]float64, p)}
	for i := range model.NoiseStd {
		model.NoiseStd[i] = 0.8 + float64(0.4*rng.Float64()) // heteroskedastic returns
	}
	// Stabilize to a target spectral radius.
	if r := model.SpectralRadius(); r > 0 {
		a.Scale(0.65 / r)
	}
	series := model.Simulate(rng.Derive(7), n, 200)
	return &Finance{
		Model:   model,
		Series:  series,
		Tickers: MakeTickers(p),
		Sectors: sector,
	}
}

// MakeTickers deterministically generates p distinct ticker-like labels,
// with a few familiar ones first for readable figures.
func MakeTickers(p int) []string {
	known := []string{"GOOG", "AAPL", "MSFT", "XOM", "JPM", "PFE", "KO", "BA", "GE", "WMT", "T", "CVX", "MRK", "IBM", "ORCL", "INTC"}
	out := make([]string, p)
	for i := 0; i < p; i++ {
		if i < len(known) {
			out[i] = known[i]
			continue
		}
		n := i - len(known)
		out[i] = fmt.Sprintf("%c%c%c", 'A'+(n/676)%26, 'A'+(n/26)%26, 'A'+n%26) + "X"
	}
	return out
}

// Neuro mimics the paper's neurophysiology workload (O'Doherty et al.
// monkey M1/S1 reach data): p electrode channels whose spike counts follow
// linear dynamics with local (nearby-channel) excitation and global
// inhibition, square-root transformed to a roughly Gaussian scale.
type Neuro struct {
	Model  *varsim.Model
	Series *mat.Dense // n×p transformed spike counts
}

// MakeNeuro generates p channels over n time bins.
func MakeNeuro(seed uint64, p, n int) *Neuro {
	rng := resample.NewRNG(seed)
	a := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		// Local excitatory neighbourhood (array-adjacent electrodes).
		for off := -3; off <= 3; off++ {
			j := i + off
			if j < 0 || j >= p || off == 0 {
				continue
			}
			if rng.Float64() < 0.5 {
				a.Set(i, j, (0.2+float64(0.5*rng.Float64()))/float64(1+absInt(off)))
			}
		}
		// Sparse long-range connections (M1 ↔ S1 style).
		for k := 0; k < 2; k++ {
			j := rng.Intn(p)
			if j != i {
				v := 0.2 + float64(0.4*rng.Float64())
				if rng.Float64() < 0.5 {
					v = -v
				}
				a.Set(i, j, v)
			}
		}
		a.Set(i, i, 0.35)
	}
	model := &varsim.Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: make([]float64, p)}
	for i := range model.NoiseStd {
		model.NoiseStd[i] = 1
	}
	if r := model.SpectralRadius(); r > 0 {
		a.Scale(0.7 / r)
	}
	latent := model.Simulate(rng.Derive(3), n, 150)
	// Spike counts: Poisson-like via exponential rate + sqrt transform back
	// to a stabilized scale.
	series := mat.NewDense(n, p)
	for t := 0; t < n; t++ {
		lrow := latent.Row(t)
		srow := series.Row(t)
		for j := 0; j < p; j++ {
			rate := math.Exp(0.3 * lrow[j])
			count := poisson(rng, rate)
			srow[j] = math.Sqrt(count + 0.25)
		}
	}
	return &Neuro{Model: model, Series: series}
}

// poisson draws a Poisson variate by inversion (small rates) or normal
// approximation (large rates).
func poisson(rng *resample.RNG, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + float64(math.Sqrt(lambda)*rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return math.Round(v)
	}
	l := math.Exp(-lambda)
	k := 0
	pAcc := 1.0
	for {
		pAcc *= rng.Float64()
		if pAcc <= l {
			return float64(k)
		}
		k++
		if k > 10000 {
			return float64(k)
		}
	}
}

// SparseVAR is the whole-network all-pairs workload: a ≥1024-channel
// sparse stable VAR(1) system in the style of the whole-brain follow-on
// (arXiv 2011.11082) — each channel is driven by a handful of others, so
// the true Granger graph has bounded in-degree and all-pairs inference
// has a sparse answer to recover.
type SparseVAR struct {
	// Model is the generating VAR; Model.A[0] holds the true coefficients
	// (rows = targets, columns = sources).
	Model *varsim.Model
	// Series is the simulated n×p observation matrix.
	Series *mat.Dense
}

// SparseVAROptions configures MakeSparseVAR.
type SparseVAROptions struct {
	// Degree is the number of nonzero cross-channel coefficients per
	// target row (default 3); total edges ≈ Degree·p, so density shrinks
	// as 1/p and 1024 channels stay sparse.
	Degree int
	// CoefScale bounds nonzero cross coefficients in
	// [CoefScale/2, CoefScale] before stabilization (default 0.5).
	CoefScale float64
	// NoiseStd is the innovation standard deviation (default 1).
	NoiseStd float64
	// BurnIn is the number of discarded warm-up steps (default 100).
	BurnIn int
}

// MakeSparseVAR generates p channels over n steps with bounded in-degree
// and spectral radius 0.7 (stable), deterministically from seed.
func MakeSparseVAR(seed uint64, p, n int, opts *SparseVAROptions) *SparseVAR {
	if p <= 0 || n <= 0 {
		panic(fmt.Sprintf("datagen: invalid sparse VAR shape %dx%d", n, p))
	}
	degree := 3
	scale := 0.5
	noise := 1.0
	burnIn := 100
	if opts != nil {
		if opts.Degree > 0 {
			degree = opts.Degree
		}
		if opts.CoefScale > 0 {
			scale = opts.CoefScale
		}
		if opts.NoiseStd > 0 {
			noise = opts.NoiseStd
		}
		if opts.BurnIn > 0 {
			burnIn = opts.BurnIn
		}
	}
	if degree > p-1 {
		degree = p - 1
	}
	rng := resample.NewRNG(seed)
	a := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		// Degree distinct sources per target, drawn without replacement.
		chosen := map[int]bool{i: true}
		for len(chosen) < degree+1 {
			src := rng.Intn(p)
			if chosen[src] {
				continue
			}
			chosen[src] = true
			v := scale * (0.5 + float64(0.5*rng.Float64()))
			if rng.Float64() < 0.4 {
				v = -v
			}
			a.Set(i, src, v)
		}
		a.Set(i, i, 0.25+float64(0.15*rng.Float64())) // mild self-persistence
	}
	model := &varsim.Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: make([]float64, p)}
	for i := range model.NoiseStd {
		model.NoiseStd[i] = noise
	}
	if r := model.SpectralRadius(); r > 0 {
		a.Scale(0.7 / r)
	}
	series := model.Simulate(rng.Derive(11), n, burnIn)
	return &SparseVAR{Model: model, Series: series}
}

// WriteSeriesHBF stores an n×p series matrix.
func WriteSeriesHBF(path string, series *mat.Dense, opts hbf.CreateOptions) (hbf.Meta, error) {
	return hbf.Create(path, series.Rows, series.Cols, series.Data, opts)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
