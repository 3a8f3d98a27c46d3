package datagen

import (
	"math"
	"testing"

	"uoivar/internal/hbf"
	"uoivar/internal/metrics"
	"uoivar/internal/resample"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

func TestMakeRegressionShapeAndSignal(t *testing.T) {
	reg := MakeRegression(1, 500, 40, &RegressionOptions{NNZ: 6, NoiseStd: 0.3})
	if reg.X.Rows != 500 || reg.X.Cols != 40 || len(reg.Y) != 500 {
		t.Fatalf("shapes wrong: %dx%d, %d", reg.X.Rows, reg.X.Cols, len(reg.Y))
	}
	nnz := 0
	for _, v := range reg.TrueBeta {
		if v != 0 {
			nnz++
			if math.Abs(v) < 0.5 || math.Abs(v) > 1.5 {
				t.Fatalf("coefficient %v outside [0.5, 1.5] magnitude band", v)
			}
		}
	}
	if nnz != 6 {
		t.Fatalf("nnz = %d, want 6", nnz)
	}
	// Signal present: y correlates with Xβ.
	var yVar, noiseVar float64
	for i, y := range reg.Y {
		pred := 0.0
		for j, b := range reg.TrueBeta {
			pred += reg.X.At(i, j) * b
		}
		yVar += y * y
		d := y - pred
		noiseVar += d * d
	}
	if noiseVar/yVar > 0.2 {
		t.Fatalf("noise fraction %v too high for σ=0.3", noiseVar/yVar)
	}
}

func TestMakeRegressionDefaults(t *testing.T) {
	reg := MakeRegression(2, 100, 200, nil)
	nnz := 0
	for _, v := range reg.TrueBeta {
		if v != 0 {
			nnz++
		}
	}
	if nnz != 10 { // p/20
		t.Fatalf("default nnz = %d, want 10", nnz)
	}
}

func TestRegressionWriteHBFRoundTrip(t *testing.T) {
	reg := MakeRegression(3, 50, 7, nil)
	path := hbf.TempPath(t.TempDir(), "reg")
	meta, err := reg.WriteHBF(path, hbf.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 50 || meta.Cols != 8 {
		t.Fatalf("meta = %+v", meta)
	}
	f, err := hbf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row, err := f.ReadRows(10, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 7; j++ {
		if row[j] != reg.X.At(10, j) {
			t.Fatalf("X round trip mismatch at col %d", j)
		}
	}
	if row[7] != reg.Y[10] {
		t.Fatal("y column mismatch")
	}
}

func TestMakeFinanceStructure(t *testing.T) {
	fin := MakeFinance(4, 60, 300, &FinanceOptions{Sectors: 6, Hubs: 2})
	if fin.Series.Rows != 300 || fin.Series.Cols != 60 {
		t.Fatalf("series shape %dx%d", fin.Series.Rows, fin.Series.Cols)
	}
	if fin.Model.SpectralRadius() >= 1 {
		t.Fatal("finance VAR must be stable")
	}
	if len(fin.Tickers) != 60 || fin.Tickers[0] != "GOOG" {
		t.Fatalf("tickers wrong: %v", fin.Tickers[:3])
	}
	// Sector assignment covers all sectors.
	seen := map[int]bool{}
	for _, s := range fin.Sectors {
		seen[s] = true
	}
	if len(seen) != 6 {
		t.Fatalf("sectors seen = %d, want 6", len(seen))
	}
	// Intra-sector edges outnumber inter-sector edges per possible pair.
	a := fin.Model.A[0]
	var intra, inter, intraPairs, interPairs float64
	for i := 0; i < 60; i++ {
		for k := 0; k < 60; k++ {
			if i == k {
				continue
			}
			if fin.Sectors[i] == fin.Sectors[k] {
				intraPairs++
				if a.At(i, k) != 0 {
					intra++
				}
			} else {
				interPairs++
				if a.At(i, k) != 0 {
					inter++
				}
			}
		}
	}
	if intra/intraPairs <= 2*inter/interPairs {
		t.Fatalf("sector structure missing: intra rate %v vs inter rate %v", intra/intraPairs, inter/interPairs)
	}
	// Hubs have above-average in-degree.
	hubIn := 0
	for k := 0; k < 60; k++ {
		if a.At(0, k) != 0 {
			hubIn++
		}
	}
	if hubIn < 4 {
		t.Fatalf("hub 0 in-degree %d too low", hubIn)
	}
}

func TestMakeTickersDistinct(t *testing.T) {
	ts := MakeTickers(600)
	seen := map[string]bool{}
	for _, s := range ts {
		if seen[s] {
			t.Fatalf("duplicate ticker %q", s)
		}
		seen[s] = true
	}
}

func TestMakeNeuroStructure(t *testing.T) {
	neu := MakeNeuro(5, 32, 500)
	if neu.Series.Rows != 500 || neu.Series.Cols != 32 {
		t.Fatalf("series shape %dx%d", neu.Series.Rows, neu.Series.Cols)
	}
	if neu.Model.SpectralRadius() >= 1 {
		t.Fatal("neuro VAR must be stable")
	}
	// Transformed counts are nonnegative (sqrt of count + 0.25 ≥ 0.5).
	for _, v := range neu.Series.Data {
		if v < 0.49 {
			t.Fatalf("transformed count %v below sqrt(0.25)", v)
		}
	}
	// Local connectivity: |i−j| ≤ 3 links must be much more common than
	// random long-range ones.
	a := neu.Model.A[0]
	local, far := 0, 0
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if i == j || a.At(i, j) == 0 {
				continue
			}
			if d := i - j; d >= -3 && d <= 3 {
				local++
			} else {
				far++
			}
		}
	}
	if local <= far {
		t.Fatalf("local links %d must exceed long-range %d", local, far)
	}
}

// End-to-end: UoI_VAR on the finance generator recovers a sparse network
// whose edges are mostly true edges of the generating model.
func TestFinanceRecovery(t *testing.T) {
	fin := MakeFinance(6, 20, 1200, &FinanceOptions{Sectors: 4, Hubs: 1})
	res, err := uoi.VAR(fin.Series, &uoi.VARConfig{Order: 1, B1: 15, B2: 5, Q: 12, LambdaRatio: 3e-3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	trueBeta := varsim.FlattenModel(fin.Model.A, fin.Model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.Precision() < 0.6 {
		t.Fatalf("finance precision %v: %+v", sel.Precision(), sel)
	}
	// Strong-edge recall: weak edges drown in the heteroskedastic return
	// noise at this sample size; the relevant claim (as in the paper's
	// Fig. 11) is a sparse, high-precision network containing the strong
	// dependencies.
	maxC := 0.0
	for _, v := range trueBeta {
		if math.Abs(v) > maxC {
			maxC = math.Abs(v)
		}
	}
	var strongTot, strongHit int
	for i, v := range trueBeta {
		if math.Abs(v) >= 0.4*maxC {
			strongTot++
			if math.Abs(res.Beta[i]) > 1e-6 {
				strongHit++
			}
		}
	}
	if strongTot == 0 {
		t.Fatal("degenerate model: no strong edges")
	}
	if frac := float64(strongHit) / float64(strongTot); frac < 0.75 {
		t.Fatalf("strong-edge recall %.2f (%d/%d)", frac, strongHit, strongTot)
	}
}

func TestPoissonMoments(t *testing.T) {
	// Small rate: inversion sampler.
	rng := newTestRNG(7)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3.0)
	}
	if mean := sum / float64(n); math.Abs(mean-3.0) > 0.1 {
		t.Fatalf("poisson(3) mean = %v", mean)
	}
	// Large rate: normal approximation.
	sum = 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 100)
	}
	if mean := sum / float64(n); math.Abs(mean-100) > 1 {
		t.Fatalf("poisson(100) mean = %v", mean)
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("poisson(0) must be 0")
	}
}

// newTestRNG adapts the package RNG for tests.
func newTestRNG(seed uint64) *resample.RNG { return resample.NewRNG(seed) }
