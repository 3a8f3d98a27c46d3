package uoi

import (
	"reflect"
	"testing"

	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// TestVARCellCacheReuse: an unchanged window must hit on every cell — the
// second fit does zero solver work and returns bit-identical results.
func TestVARCellCacheReuse(t *testing.T) {
	rng := resample.NewRNG(5)
	m := varsim.GenerateStable(rng, 4, 1, nil)
	series := m.Simulate(rng.Derive(1), 220, 60)
	cache := NewCellCache()
	tr := trace.New()
	cfg := &VARConfig{Order: 1, B1: 6, B2: 4, Q: 5, Seed: 11, Cells: cache, Trace: tr}
	r1, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache.Rotate()
	r2, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Beta, r2.Beta) {
		t.Fatal("cached refit on an unchanged window is not bit-identical")
	}
	if r2.Diag.LassoFits != 0 || r2.Diag.ADMMIters != 0 || r2.Diag.OLSFits != 0 {
		t.Fatalf("unchanged window should skip all solver work, did %d lasso / %d OLS fits",
			r2.Diag.LassoFits, r2.Diag.OLSFits)
	}
	c := tr.Counters()
	if c["uoi/sel_cells_reused"] != 6 || c["uoi/est_cells_reused"] != 4 {
		t.Fatalf("reuse counters = sel %d est %d, want 6/4", c["uoi/sel_cells_reused"], c["uoi/est_cells_reused"])
	}
}

// TestVARCellCacheNeverCorrupts: on a *changed* window the cached fit must
// equal a cache-less fit exactly — content-hashed keys make stale hits
// impossible.
func TestVARCellCacheNeverCorrupts(t *testing.T) {
	rng := resample.NewRNG(6)
	m := varsim.GenerateStable(rng, 4, 1, nil)
	series := m.Simulate(rng.Derive(1), 200, 60)
	cache := NewCellCache()
	cfg := &VARConfig{Order: 1, B1: 5, B2: 3, Q: 4, Seed: 13, Cells: cache}
	if _, err := VAR(series, cfg); err != nil {
		t.Fatal(err)
	}
	// Slide the window: drop the oldest 40 rows, append 40 fresh ones.
	next := m.Simulate(rng.Derive(2), 200, 0)
	cache.Rotate()
	cached, err := VAR(next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := VAR(next, &VARConfig{Order: 1, B1: 5, B2: 3, Q: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Beta, cold.Beta) {
		t.Fatal("cached fit on a changed window differs from the cache-less fit")
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
