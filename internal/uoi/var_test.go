package uoi

import (
	"reflect"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

func makeVARData(seed uint64, p, d, n int) (*varsim.Model, *mat.Dense) {
	rng := resample.NewRNG(seed)
	model := varsim.GenerateStable(rng, p, d, &varsim.GenOptions{Density: 2.5 / float64(p), SpectralTarget: 0.6, NoiseStd: 0.5})
	series := model.Simulate(rng.Derive(99), n, 100)
	return model, series
}

func TestVARRecoversNetwork(t *testing.T) {
	model, series := makeVARData(21, 8, 1, 600)
	// B1 high and B2 low, "selected to create a strong pressure toward
	// sparse parameter estimates" as in the paper's §VI analysis.
	res, err := VAR(series, &VARConfig{Order: 1, B1: 25, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.A) != 1 || res.A[0].Rows != 8 {
		t.Fatalf("A shape wrong")
	}
	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.Recall() < 0.9 {
		t.Fatalf("VAR selection recall %v too low: %+v", sel.Recall(), sel)
	}
	if fpr := float64(sel.FalsePositives) / float64(sel.FalsePositives+sel.TrueNegatives); fpr > 0.25 {
		t.Fatalf("VAR false positive rate %v too high: %+v", fpr, sel)
	}
	est := metrics.CompareEstimates(trueBeta, res.Beta, 1e-6)
	if est.SupportRMSE > 0.15 {
		t.Fatalf("VAR estimation error %+v", est)
	}
}

func TestVARHigherOrder(t *testing.T) {
	model, series := makeVARData(22, 5, 2, 800)
	res, err := VAR(series, &VARConfig{Order: 2, B1: 8, B2: 5, Q: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.A) != 2 {
		t.Fatalf("expected 2 lag matrices, got %d", len(res.A))
	}
	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.Recall() < 0.75 {
		t.Fatalf("order-2 recall %v: %+v", sel.Recall(), sel)
	}
}

func TestVARDeterministic(t *testing.T) {
	_, series := makeVARData(23, 5, 1, 300)
	cfg := &VARConfig{Order: 1, B1: 5, B2: 3, Q: 6, Seed: 9}
	a, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Beta {
		if a.Beta[i] != b.Beta[i] {
			t.Fatal("VAR must be deterministic in seed")
		}
	}
}

func TestVARPartitionConsistency(t *testing.T) {
	_, series := makeVARData(24, 4, 1, 300)
	res, err := VAR(series, &VARConfig{Order: 1, B1: 5, B2: 3, Q: 6, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: flatten(A, mu) must reproduce Beta.
	flat := varsim.FlattenModel(res.A, res.Mu, true)
	for i := range flat {
		if flat[i] != res.Beta[i] {
			t.Fatal("partition/flatten inconsistency")
		}
	}
}

func TestVARTooShortSeries(t *testing.T) {
	series := mat.NewDense(4, 3)
	if _, err := VAR(series, &VARConfig{Order: 2}); err == nil {
		t.Fatal("short series must fail")
	}
	_, long := makeVARData(29, 4, 1, 100)
	if _, err := VAR(long, &VARConfig{Order: 1, BlockLen: 100, Workers: 1}); err == nil {
		t.Fatal("a block longer than the 99 design rows must fail")
	}
}

func TestVARSparserThanBaseline(t *testing.T) {
	// The headline Fig. 11 property: UoI_VAR yields a much sparser network
	// than a plain cross-validated LASSO at comparable recall.
	model, series := makeVARData(25, 10, 1, 500)
	res, err := VAR(series, &VARConfig{Order: 1, B1: 12, B2: 5, Q: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base, _, _, err := VARLassoCV(series, 1, true, 4, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	nnzUoI := 0
	for _, v := range res.Beta {
		if v != 0 {
			nnzUoI++
		}
	}
	nnzBase := 0
	for _, v := range base.Beta {
		if v != 0 {
			nnzBase++
		}
	}
	if nnzUoI > nnzBase {
		t.Fatalf("UoI (%d nonzeros) should be at most as dense as LassoCV (%d)", nnzUoI, nnzBase)
	}
	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.Recall() < 0.8 {
		t.Fatalf("sparsity must not cost recall: %+v", sel)
	}
}

func TestVARGrangerEdgesFromResult(t *testing.T) {
	model, series := makeVARData(26, 6, 1, 500)
	res, err := VAR(series, &VARConfig{Order: 1, B1: 8, B2: 4, Q: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	edges := varsim.GrangerEdges(res.A, 1e-6, false)
	trueEdges := varsim.GrangerEdges(model.A, 1e-9, false)
	// Estimated edge count should be in the ballpark of the truth, not the
	// dense p(p−1) everything-connected graph.
	if len(edges) > 3*len(trueEdges)+6 {
		t.Fatalf("estimated %d edges vs %d true — not sparse", len(edges), len(trueEdges))
	}
}

func TestVARResultModelForecast(t *testing.T) {
	_, series := makeVARData(27, 5, 1, 300)
	res, err := VAR(series, &VARConfig{Order: 1, B1: 5, B2: 3, Q: 6, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	m := varsim.ModelFromEstimate(res.A, res.Mu)
	fc := m.Forecast(series, 4)
	if fc.Rows != 4 || fc.Cols != 5 {
		t.Fatalf("forecast shape %dx%d", fc.Rows, fc.Cols)
	}
	// One-step predictive R² of the fitted model should beat the zero model.
	_, fitted := m.PredictionScore(series)
	zero := varsim.ModelFromEstimate([]*mat.Dense{mat.NewDense(5, 5)}, nil)
	_, zeroRMSE := zero.PredictionScore(series)
	if fitted >= zeroRMSE {
		t.Fatalf("fitted RMSE %v must beat zero model %v", fitted, zeroRMSE)
	}
}

// TestVARWarmBetaDeterministic: WarmBeta is part of the fit's identity —
// two fits with the same seed, series, and WarmBeta are bit-identical, and
// the warm sweep spends fewer ADMM iterations than the cold one when the
// seed comes from an overlapping window's model.
func TestVARWarmBetaDeterministic(t *testing.T) {
	rng := resample.NewRNG(8)
	m := varsim.GenerateStable(rng, 4, 1, nil)
	long := m.Simulate(rng.Derive(1), 300, 60)
	w1 := long.SubRows(0, 250)
	w2 := long.SubRows(50, 300)

	prev, err := VAR(w1, &VARConfig{Order: 1, B1: 6, B2: 4, Q: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := &VARConfig{Order: 1, B1: 6, B2: 4, Q: 5, Seed: 17, WarmBeta: prev.Beta}
	warm1, err := VAR(w2, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := VAR(w2, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm1.Beta, warm2.Beta) {
		t.Fatal("two warm fits with identical WarmBeta are not bit-identical")
	}
	cold, err := VAR(w2, &VARConfig{Order: 1, B1: 6, B2: 4, Q: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if warm1.Diag.ADMMIters >= cold.Diag.ADMMIters {
		t.Fatalf("warm sweep used %d ADMM iterations, cold %d — warm start saved nothing",
			warm1.Diag.ADMMIters, cold.Diag.ADMMIters)
	}
	t.Logf("ADMM iterations: cold=%d warm=%d", cold.Diag.ADMMIters, warm1.Diag.ADMMIters)
}
