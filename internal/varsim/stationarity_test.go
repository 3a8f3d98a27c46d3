package varsim

import (
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/resample"
)

// randomWalk builds p independent unit-root series.
func randomWalk(rng *resample.RNG, n, p int) *mat.Dense {
	s := mat.NewDense(n, p)
	for j := 0; j < p; j++ {
		acc := 0.0
		for t := 0; t < n; t++ {
			acc += rng.NormFloat64()
			s.Set(t, j, acc)
		}
	}
	return s
}

func TestADFRejectsStationaryAR(t *testing.T) {
	rng := resample.NewRNG(41)
	model := GenerateStable(rng, 4, 1, &GenOptions{SpectralTarget: 0.5})
	series := model.Simulate(rng.Derive(1), 1200, 100)
	res, err := ADFTest(series, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if !r.Stationary {
			t.Fatalf("stationary AR not detected: %+v", r)
		}
		if r.Tau >= 0 {
			t.Fatalf("tau should be strongly negative: %+v", r)
		}
	}
	if !allStationary(res) {
		t.Fatal("AllStationary must be true")
	}
}

func TestADFAcceptsUnitRoot(t *testing.T) {
	rng := resample.NewRNG(42)
	rw := randomWalk(rng, 1200, 3)
	res, err := ADFTest(rw, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, r := range res {
		if r.Stationary {
			rejected++
		}
	}
	// Under the null, ~5% false rejections; 3 series should essentially
	// never all reject.
	if rejected == len(res) {
		t.Fatal("all unit-root series rejected — test has no size control")
	}
	if allStationary(res) {
		t.Fatal("AllStationary must be false for random walks")
	}
}

func TestADFDifferencingFixesUnitRoot(t *testing.T) {
	// The paper's pipeline: a nonstationary price series becomes stationary
	// after first differences.
	rng := resample.NewRNG(43)
	rw := randomWalk(rng, 1500, 2)
	before, err := ADFTest(rw, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ADFTest(FirstDifferences(rw), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if allStationary(before) {
		t.Fatal("raw walks should not all be stationary")
	}
	if !allStationary(after) {
		t.Fatalf("first differences must be stationary: %+v", after)
	}
}

func TestADFValidation(t *testing.T) {
	s := mat.NewDense(10, 1)
	if _, err := ADFTest(s, -1, 0.05); err == nil {
		t.Fatal("negative lags must fail")
	}
	if _, err := ADFTest(s, 0, 0.03); err == nil {
		t.Fatal("unsupported level must fail")
	}
	if _, err := ADFTest(s, 8, 0.05); err == nil {
		t.Fatal("insufficient samples must fail")
	}
}

// allStationary reports whether every series rejects the unit root.
func allStationary(results []DFResult) bool {
	for _, r := range results {
		if !r.Stationary {
			return false
		}
	}
	return true
}
