package varsim

import (
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/resample"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.5, 0.5},     // uniform CDF
		{1, 1, 0.25, 0.25},   // uniform CDF
		{2, 2, 0.5, 0.5},     // symmetric
		{0.5, 0.5, 0.5, 0.5}, // arcsine distribution median
		{2, 1, 0.5, 0.25},    // I_x(2,1) = x²
		{1, 2, 0.5, 0.75},    // I_x(1,2) = 1-(1-x)² = 0.75
		{5, 3, 1, 1},
		{5, 3, 0, 0},
	}
	for _, c := range cases {
		if got := RegIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-10 {
			t.Fatalf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestFSurvivalKnownValues(t *testing.T) {
	// F(1,1): P(F > 1) = 0.5 (median of F(1,1) is 1).
	if got := FSurvival(1, 1, 1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P(F(1,1)>1) = %v, want 0.5", got)
	}
	// Critical value: P(F(1,10) > 4.965) ≈ 0.05 (standard table).
	if got := FSurvival(4.965, 1, 10); math.Abs(got-0.05) > 2e-3 {
		t.Fatalf("P(F(1,10)>4.965) = %v, want ≈0.05", got)
	}
	// P(F(2,20) > 3.49) ≈ 0.05.
	if got := FSurvival(3.49, 2, 20); math.Abs(got-0.05) > 2e-3 {
		t.Fatalf("P(F(2,20)>3.49) = %v, want ≈0.05", got)
	}
	if FSurvival(0, 2, 10) != 1 {
		t.Fatal("P(F > 0) must be 1")
	}
	// Monotone decreasing in x.
	prev := 1.0
	for _, x := range []float64{0.5, 1, 2, 4, 8} {
		v := FSurvival(x, 3, 30)
		if v >= prev {
			t.Fatalf("FSurvival not decreasing at %v", x)
		}
		prev = v
	}
}

func TestPairwiseGrangerFRecoversEdges(t *testing.T) {
	// Strong planted edges: 1 → 0 and 2 → 1 in a 3-variable VAR(1).
	p := 3
	a := mat.NewDense(p, p)
	a.Set(0, 0, 0.3)
	a.Set(1, 1, 0.3)
	a.Set(2, 2, 0.3)
	a.Set(0, 1, 0.6) // 1 → 0
	a.Set(1, 2, 0.6) // 2 → 1
	model := &Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: []float64{1, 1, 1}}
	if model.SpectralRadius() >= 1 {
		t.Fatal("test model unstable")
	}
	series := model.Simulate(resample.NewRNG(11), 800, 100)

	results, err := PairwiseGrangerF(series, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != p*(p-1) {
		t.Fatalf("got %d results, want %d", len(results), p*(p-1))
	}
	sig := map[[2]int]bool{}
	for _, r := range results {
		if r.Significant {
			sig[[2]int{r.Source, r.Target}] = true
		}
		if r.PValue < 0 || r.PValue > 1 {
			t.Fatalf("p-value %v out of range", r.PValue)
		}
	}
	if !sig[[2]int{1, 0}] || !sig[[2]int{2, 1}] {
		t.Fatalf("planted edges not detected: %v", sig)
	}
	// The reverse edges carry no signal and should mostly be absent.
	if sig[[2]int{0, 1}] && sig[[2]int{1, 2}] && sig[[2]int{0, 2}] && sig[[2]int{2, 0}] {
		t.Fatal("all spurious edges significant — test has no specificity")
	}
}

func TestGrangerFEdgesBonferroni(t *testing.T) {
	results := []FTestResult{
		{Source: 0, Target: 1, F: 30, PValue: 1e-6},
		{Source: 1, Target: 0, F: 4, PValue: 0.03},
		{Source: 2, Target: 0, F: 1, PValue: 0.4},
	}
	plain := GrangerFEdges(results, 0.05, false)
	if len(plain) != 2 {
		t.Fatalf("plain edges = %d", len(plain))
	}
	bonf := GrangerFEdges(results, 0.05, true)
	// 0.05/3 ≈ 0.0167: only the 1e-6 edge survives.
	if len(bonf) != 1 || bonf[0].Source != 0 {
		t.Fatalf("bonferroni edges = %v", bonf)
	}
}

func TestPairwiseGrangerFValidation(t *testing.T) {
	series := mat.NewDense(8, 2)
	if _, err := PairwiseGrangerF(series, 0, 0.05); err == nil {
		t.Fatal("order 0 must fail")
	}
	if _, err := PairwiseGrangerF(series, 3, 0.05); err == nil {
		t.Fatal("insufficient samples must fail")
	}
}

func TestForecastNoiselessExact(t *testing.T) {
	rng := resample.NewRNG(12)
	model := GenerateStable(rng, 4, 2, nil)
	model.NoiseStd = make([]float64, 4)
	for i := range model.Mu {
		model.Mu[i] = 0.2 * rng.NormFloat64()
	}
	series := model.Simulate(rng.Derive(1), 40, 30)
	// Forecast the last 5 points from the first 35.
	history := series.SubRows(0, 35)
	fc := model.Forecast(history, 5)
	for h := 0; h < 5; h++ {
		for j := 0; j < 4; j++ {
			if math.Abs(fc.At(h, j)-series.At(35+h, j)) > 1e-9 {
				t.Fatalf("noiseless forecast mismatch at h=%d j=%d", h, j)
			}
		}
	}
	if fc := model.Forecast(history, 0); fc.Rows != 0 {
		t.Fatal("h=0 must produce empty forecast")
	}
}

func TestPredictionScore(t *testing.T) {
	rng := resample.NewRNG(13)
	model := GenerateStable(rng, 5, 1, &GenOptions{SpectralTarget: 0.8, NoiseStd: 0.3})
	series := model.Simulate(rng.Derive(2), 1500, 100)
	r2, rmse := model.PredictionScore(series)
	if len(r2) != 5 {
		t.Fatalf("r2 length %d", len(r2))
	}
	// The true model must have positive predictive R² on its own data.
	for j, v := range r2 {
		if v <= 0.05 {
			t.Fatalf("series %d R² = %v too low for the generating model", j, v)
		}
	}
	if rmse < 0.2 || rmse > 0.5 {
		t.Fatalf("one-step RMSE %v should be near the noise level 0.3", rmse)
	}
	// A zero model must predict worse.
	zero := &Model{A: []*mat.Dense{mat.NewDense(5, 5)}, Mu: make([]float64, 5), NoiseStd: model.NoiseStd}
	_, zeroRMSE := zero.PredictionScore(series)
	if zeroRMSE <= rmse {
		t.Fatalf("zero model RMSE %v must exceed true model %v", zeroRMSE, rmse)
	}
}

func TestModelFromEstimate(t *testing.T) {
	a := []*mat.Dense{mat.NewDenseData(2, 2, []float64{0.5, 0, 0, 0.5})}
	m := ModelFromEstimate(a, nil)
	if m.P() != 2 || m.D() != 1 || m.Mu[0] != 0 || m.NoiseStd[0] != 1 {
		t.Fatalf("ModelFromEstimate wrong: %+v", m)
	}
	hist := mat.NewDenseData(1, 2, []float64{4, 8})
	fc := m.Forecast(hist, 2)
	if fc.At(0, 0) != 2 || fc.At(1, 0) != 1 || fc.At(0, 1) != 4 {
		t.Fatalf("forecast = %v", fc.Data)
	}
}
