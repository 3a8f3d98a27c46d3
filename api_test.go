package uoivar_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"uoivar"
)

// TestPublicAPISerial exercises the exported facade end to end the way a
// downstream user would, without touching internal packages.
func TestPublicAPISerial(t *testing.T) {
	reg := uoivar.MakeRegression(11, 800, 30, nil)
	res, err := uoivar.FitLasso(reg.X, reg.Y, &uoivar.LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sel := uoivar.CompareSupports(reg.TrueBeta, res.Beta, 0.05)
	if sel.FalseNegatives > 0 {
		t.Fatalf("public API lasso missed features: %+v", sel)
	}

	fin := uoivar.MakeFinance(12, 10, 600, nil)
	model, err := uoivar.FitVAR(fin.Series, &uoivar.VARConfig{Order: 1, B1: 8, B2: 4, Q: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := uoivar.Edges(model.A, 1e-7, false)
	if len(edges) == 0 || len(edges) >= 10*9 {
		t.Fatalf("public API VAR network has %d edges", len(edges))
	}

	// Graph export.
	g, err := uoivar.BuildGraph(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != len(edges) {
		t.Fatal("graph edge count mismatch")
	}

	// Forecasting from the fitted model.
	est := uoivar.EstimatedModel(model.A, model.Mu)
	fc := est.Forecast(fin.Series, 5)
	if fc.Rows != 5 || fc.Cols != 10 {
		t.Fatalf("forecast shape %dx%d", fc.Rows, fc.Cols)
	}

	// Order selection.
	d, scores, err := uoivar.SelectOrder(fin.Series, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d < 1 || d > 3 || len(scores) != 3 {
		t.Fatalf("order selection: d=%d scores=%d", d, len(scores))
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	reg := uoivar.MakeRegression(13, 1200, 24, nil)
	path := filepath.Join(t.TempDir(), "api.hbf")
	flat := make([]float64, 1200*25)
	for i := 0; i < 1200; i++ {
		copy(flat[i*25:i*25+24], reg.X.Row(i))
		flat[i*25+24] = reg.Y[i]
	}
	if err := uoivar.WriteHBF(path, 1200, 25, flat, uoivar.HBFCreateOptions{Stripes: 2}); err != nil {
		t.Fatal(err)
	}
	var supportSize int
	var beta []float64
	err := uoivar.Run(4, func(c *uoivar.Comm) error {
		block, err := uoivar.RandomizedDistribute(c, path, 3)
		if err != nil {
			return err
		}
		x, y := block.XY()
		res, err := uoivar.FitLassoDistributed(c, x, y, &uoivar.LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 4}, uoivar.Grid{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			supportSize = len(res.SelectedSupport)
			beta = res.Beta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if supportSize == 0 || beta == nil {
		t.Fatal("distributed public API returned nothing")
	}
	sel := uoivar.CompareSupports(reg.TrueBeta, beta, 0.05)
	if sel.FalseNegatives > 0 {
		t.Fatalf("missed features: %+v", sel)
	}
}

func TestPublicAPIPerfModel(t *testing.T) {
	m := uoivar.CoriKNL()
	b := m.UoILasso(uoivar.LassoScale{DataBytes: 16e9, Features: 20101, Cores: 68, B1: 5, B2: 5, Q: 8})
	if b.Computation <= 0 || b.Total() <= b.Computation {
		t.Fatalf("perf model breakdown implausible: %+v", b)
	}
	v := m.UoIVAR(uoivar.VARScale{Features: 356, Cores: 2176, B1: 30, B2: 20, Q: 20})
	if v.Distribution <= 0 {
		t.Fatalf("VAR model breakdown implausible: %+v", v)
	}
}

// TestPublicAPIModelArtifacts exercises the save/load/predict surface: fit,
// snapshot, round-trip through disk, and forecast bit-identically.
func TestPublicAPIModelArtifacts(t *testing.T) {
	fin := uoivar.MakeFinance(21, 8, 500, nil)
	res, err := uoivar.FitVAR(fin.Series, &uoivar.VARConfig{Order: 1, B1: 6, B2: 3, Q: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	art := uoivar.VARArtifact(res, &uoivar.VARConfig{Order: 1, B1: 6, B2: 3, Q: 6, Seed: 4})
	path := filepath.Join(t.TempDir(), "fin.uoim")
	if err := uoivar.SaveModel(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := uoivar.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta.Kind != "var" || loaded.Meta.P != 8 || loaded.Meta.Seed != 4 {
		t.Fatalf("loaded meta: %+v", loaded.Meta)
	}
	memPred, err := uoivar.NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	diskPred, err := uoivar.NewPredictor(loaded)
	if err != nil {
		t.Fatal(err)
	}
	fMem, err := memPred.Forecast(fin.Series, 6)
	if err != nil {
		t.Fatal(err)
	}
	fDisk, err := diskPred.Forecast(fin.Series, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fMem.Data {
		if fDisk.Data[i] != v {
			t.Fatalf("forecast element %d: %v != %v after round-trip", i, fDisk.Data[i], v)
		}
	}
	edges, err := diskPred.Edges(1e-7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(uoivar.Edges(res.A, 1e-7, false)) {
		t.Fatal("edge set changed across save/load")
	}

	// Corrupt files report the typed error.
	if err := corruptFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := uoivar.LoadModel(path); !errors.Is(err, uoivar.ErrModelCorrupt) {
		t.Fatalf("corrupt artifact: %v, want ErrModelCorrupt", err)
	}
}

// corruptFile flips a byte in the middle of a file.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}
