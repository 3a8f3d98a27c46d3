package model

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/resample"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// fitVAR fits a small seeded UoI_VAR model on a simulated series and
// returns the series, config, and result. Deterministic across runs.
func fitVAR(t *testing.T) (*mat.Dense, *uoi.VARConfig, *uoi.VARResult) {
	t.Helper()
	rng := resample.NewRNG(9)
	vm := varsim.GenerateStable(rng, 8, 1, nil)
	series := vm.Simulate(rng, 400, 50)
	cfg := &uoi.VARConfig{Order: 1, B1: 6, B2: 3, Q: 5, Seed: 3}
	res, err := uoi.VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return series, cfg, res
}

func fitLasso(t *testing.T) (*datagen.Regression, *uoi.LassoConfig, *uoi.Result) {
	t.Helper()
	reg := datagen.MakeRegression(5, 500, 24, &datagen.RegressionOptions{NNZ: 4, NoiseStd: 0.3})
	cfg := &uoi.LassoConfig{B1: 6, B2: 3, Q: 5, Seed: 2}
	res, err := uoi.Lasso(reg.X, reg.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, cfg, res
}

// TestGoldenVARRoundTrip is the golden round-trip of the PR: fit on a
// seeded dataset, Save→Load, and assert bit-identical forecasts and
// identical Edges() output between the in-memory result and the loaded
// predictor.
func TestGoldenVARRoundTrip(t *testing.T) {
	series, cfg, res := fitVAR(t)
	art := FromVAR(res, cfg)
	path := filepath.Join(t.TempDir(), "var"+Ext)
	if err := Save(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every coefficient bit must survive the trip.
	if loaded.Meta != art.Meta {
		t.Fatalf("meta changed: %+v -> %+v", art.Meta, loaded.Meta)
	}
	for j := range res.A {
		for i, v := range res.A[j].Data {
			if loaded.A[j].Data[i] != v {
				t.Fatalf("lag %d coefficient %d: %v -> %v", j, i, v, loaded.A[j].Data[i])
			}
		}
	}
	for i, v := range res.Mu {
		if loaded.Mu[i] != v {
			t.Fatalf("mu[%d]: %v -> %v", i, v, loaded.Mu[i])
		}
	}

	memPred, err := NewPredictor(FromVAR(res, cfg))
	if err != nil {
		t.Fatal(err)
	}
	loadPred, err := NewPredictor(loaded)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical forecasts between in-memory and loaded predictors.
	const h = 12
	fMem, err := memPred.Forecast(series, h)
	if err != nil {
		t.Fatal(err)
	}
	fLoad, err := loadPred.Forecast(series, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fMem.Data {
		if fLoad.Data[i] != v {
			t.Fatalf("forecast element %d differs: %v vs %v", i, v, fLoad.Data[i])
		}
	}

	// The predictor kernel must agree with the reference varsim forecast to
	// numerical accuracy (different accumulation order, same math).
	fRef := varsim.ModelFromEstimate(res.A, res.Mu).Forecast(series, h)
	for i := range fMem.Data {
		if d := fMem.Data[i] - fRef.Data[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("forecast element %d drifts from reference by %v", i, d)
		}
	}

	// Identical Edges() output.
	wantEdges := varsim.GrangerEdges(res.A, 1e-7, false)
	gotEdges, err := loadPred.Edges(1e-7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEdges) != len(wantEdges) {
		t.Fatalf("edge count %d, want %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if gotEdges[i] != wantEdges[i] {
			t.Fatalf("edge %d: %+v, want %+v", i, gotEdges[i], wantEdges[i])
		}
	}
}

func TestGoldenLassoRoundTrip(t *testing.T) {
	reg, cfg, res := fitLasso(t)
	art := FromLasso(res, cfg)
	path := filepath.Join(t.TempDir(), "lasso"+Ext)
	if err := Save(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Beta {
		if loaded.Beta[i] != v {
			t.Fatalf("beta[%d]: %v -> %v", i, v, loaded.Beta[i])
		}
	}
	if loaded.Intercept != res.Intercept {
		t.Fatalf("intercept: %v -> %v", res.Intercept, loaded.Intercept)
	}
	if loaded.Meta.Stats.SupportSize != len(res.SelectedSupport) {
		t.Fatalf("support size %d, want %d", loaded.Meta.Stats.SupportSize, len(res.SelectedSupport))
	}
	pred, err := NewPredictor(loaded)
	if err != nil {
		t.Fatal(err)
	}
	memPred, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pred.Predict(reg.X)
	if err != nil {
		t.Fatal(err)
	}
	want, err := memPred.Predict(reg.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestForecastBatchBitIdentical asserts the serving guarantee: a forecast
// answered inside a coalesced batch is bit-identical to the same forecast
// answered alone, including when batch members want different horizons.
func TestForecastBatchBitIdentical(t *testing.T) {
	_, cfg, res := fitVAR(t)
	pred, err := NewPredictor(FromVAR(res, cfg))
	if err != nil {
		t.Fatal(err)
	}
	rng := resample.NewRNG(77)
	const nb = 9
	histories := make([]*mat.Dense, nb)
	for b := range histories {
		h := mat.NewDense(3+b%3, pred.P())
		for i := range h.Data {
			h.Data[i] = rng.NormFloat64()
		}
		histories[b] = h
	}
	const h = 7
	batch, err := pred.ForecastBatch(histories, h)
	if err != nil {
		t.Fatal(err)
	}
	for b, hist := range histories {
		solo, err := pred.Forecast(hist, h)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range solo.Data {
			if batch[b].Data[i] != v {
				t.Fatalf("history %d element %d: batch %v != solo %v", b, i, batch[b].Data[i], v)
			}
		}
		// A shorter-horizon forecast is the prefix of a longer one.
		short, err := pred.Forecast(hist, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range short.Data {
			if solo.Data[i] != v {
				t.Fatalf("history %d: horizon-3 prefix differs at %d", b, i)
			}
		}
	}
}

func TestPredictorErrors(t *testing.T) {
	_, cfg, res := fitVAR(t)
	pred, err := NewPredictor(FromVAR(res, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Forecast(mat.NewDense(4, pred.P()+1), 2); err == nil {
		t.Fatal("wrong column count must fail")
	}
	if _, err := pred.Forecast(mat.NewDense(0, pred.P()), 2); err == nil {
		t.Fatal("history shorter than the order must fail")
	}
	if _, err := pred.Predict(mat.NewDense(2, pred.P())); !errors.Is(err, ErrKind) {
		t.Fatalf("lasso predict on a var model: %v, want ErrKind", err)
	}
	fs, err := pred.Forecast(mat.NewDense(3, pred.P()), 0)
	if err != nil || fs.Rows != 0 {
		t.Fatalf("zero horizon: %v rows=%d", err, fs.Rows)
	}

	_, lcfg, lres := fitLasso(t)
	lpred, err := NewPredictor(FromLasso(lres, lcfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lpred.Forecast(mat.NewDense(3, 3), 2); !errors.Is(err, ErrKind) {
		t.Fatalf("forecast on a lasso model: %v, want ErrKind", err)
	}
	if _, err := lpred.Edges(1e-7, false); !errors.Is(err, ErrKind) {
		t.Fatalf("edges on a lasso model: %v, want ErrKind", err)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	_, cfg, res := fitVAR(t)
	art := FromVAR(res, cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "m"+Ext)
	if err := Save(path, art); err != nil {
		t.Fatal(err)
	}
	// Overwriting an existing artifact must go through the same temp+rename.
	if err := Save(path, art); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}
