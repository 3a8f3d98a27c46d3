package uoi

import (
	"reflect"
	"strings"
	"testing"

	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// TestAnchoredMatchesDeclaredIdentity: (Anchored, Anchor) is part of the
// fit's identity — the same window fitted at two different declared
// offsets that select different blocks yields different models, and the
// same offset reproduces bit-identically.
func TestAnchoredFitIdentity(t *testing.T) {
	rng := resample.NewRNG(23)
	m := varsim.GenerateStable(rng, 3, 1, nil)
	series := m.Simulate(rng.Derive(1), 256, 60)

	base := VARConfig{Order: 1, B1: 4, B2: 2, BlockLen: 16, Seed: 5, Q: 4}
	a1 := base
	a1.Anchored = true
	r1, err := VAR(series, &a1)
	if err != nil {
		t.Fatal(err)
	}
	a2 := base
	a2.Anchored = true
	r2, err := VAR(series, &a2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Beta, r2.Beta) {
		t.Fatal("anchored fits with identical configs differ")
	}
	// Different anchor → different window-relative draws (the same
	// absolute blocks land on different window rows). The final model may
	// still coincide — selection is designed to be stable — so assert on
	// the draw itself.
	a3 := base
	a3.Anchored = true
	a3.Anchor = 8
	root := resample.NewRNG(base.Seed)
	t0 := varSelTargets(root, 0, 255, 16, &a1)
	t3 := varSelTargets(root, 0, 255, 16, &a3)
	if reflect.DeepEqual(t0, t3) {
		t.Fatal("different anchors produced identical draws — anchor ignored")
	}
	if _, err := VAR(series, &a3); err != nil {
		t.Fatal(err)
	}
}

// TestAnchoredShortWindowRejected: an anchored fit whose design is shorter
// than 2·BlockLen−1 rows is an error, never a panic — on the caller's
// goroutine (Workers 1) or a pool's (Workers 0) — while one row more fits.
func TestAnchoredShortWindowRejected(t *testing.T) {
	_, series := makeVARData(29, 4, 1, 160)
	cfg := VARConfig{Order: 1, B1: 3, B2: 2, Q: 4, Seed: 5, BlockLen: 80, Anchored: true}
	for _, workers := range []int{0, 1} {
		c := cfg
		c.Workers = workers
		_, err := VAR(series.SubRows(0, 100), &c)
		if err == nil || !strings.Contains(err.Error(), "anchored fit needs at least 159 design rows") {
			t.Fatalf("Workers %d: 99 design rows at block length 80: err = %v", workers, err)
		}
	}
	if _, err := VAR(series, &cfg); err != nil {
		t.Fatalf("159 design rows at block length 80: %v", err)
	}
}
