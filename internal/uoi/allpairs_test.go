package uoi

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// sparseTestSeries simulates a small sparse VAR(1) for the all-pairs
// tests: each channel driven by itself plus two fixed neighbors.
func sparseTestSeries(p, n int) (*varsim.Model, *mat.Dense) {
	a := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		a.Set(i, i, 0.3)
		a.Set(i, (i+1)%p, 0.35)
		a.Set(i, (i+3)%p, -0.3)
	}
	m := &varsim.Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: make([]float64, p)}
	for i := range m.NoiseStd {
		m.NoiseStd[i] = 1
		m.Mu[i] = 0.5
	}
	if r := m.SpectralRadius(); r > 0.9 {
		a.Scale(0.9 / r)
	}
	return m, m.Simulate(resample.NewRNG(42), n, 100)
}

// bitsEqual compares two results bit-for-bit (Float64bits, so −0.0 and
// NaN payloads count) across Mu and every lag matrix.
func bitsEqual(t *testing.T, label string, a, b *AllPairsResult) {
	t.Helper()
	if len(a.A) != len(b.A) || len(a.Mu) != len(b.Mu) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for i := range a.Mu {
		if math.Float64bits(a.Mu[i]) != math.Float64bits(b.Mu[i]) {
			t.Fatalf("%s: Mu[%d] %v != %v", label, i, a.Mu[i], b.Mu[i])
		}
	}
	for l := range a.A {
		for k := range a.A[l].Data {
			if math.Float64bits(a.A[l].Data[k]) != math.Float64bits(b.A[l].Data[k]) {
				t.Fatalf("%s: A[%d].Data[%d] %v != %v", label, l, k, a.A[l].Data[k], b.A[l].Data[k])
			}
		}
	}
	if a.Edges != b.Edges {
		t.Fatalf("%s: edges %d != %d", label, a.Edges, b.Edges)
	}
}

// TestAllPairsDistributedBitIdentical is the acceptance-criteria test:
// the rank-sharded all-pairs fit must be bit-identical to the serial
// loop at 1, 3, and 4 ranks, including a worker-parallel serial run.
func TestAllPairsDistributedBitIdentical(t *testing.T) {
	_, series := sparseTestSeries(11, 400)
	cfg := &AllPairsConfig{NB: 3, Q: 5, Screen: 8, Seed: 7}
	serial, err := AllPairs(series, cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Edges == 0 {
		t.Fatal("serial fit found no edges; test signal too weak")
	}

	workered, err := AllPairs(series, &AllPairsConfig{NB: 3, Q: 5, Screen: 8, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatalf("workers: %v", err)
	}
	bitsEqual(t, "workers=4", serial, workered)

	for _, ranks := range []int{1, 3, 4} {
		results := make([]*AllPairsResult, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			r, err := AllPairs(series, allPairsOn(cfg, c))
			if err != nil {
				return err
			}
			results[c.Rank()] = r
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for rank, r := range results {
			if rank == 0 {
				bitsEqual(t, "dist-vs-serial", serial, r)
			}
			bitsEqual(t, "rank-vs-rank0", results[0], r)
		}
	}
}

// TestAllPairsRecoversSparseSupport checks the statistics, not just the
// plumbing: on a well-conditioned sparse VAR the driver should recover
// most true edges with few false positives.
func TestAllPairsRecoversSparseSupport(t *testing.T) {
	model, series := sparseTestSeries(10, 1500)
	res, err := AllPairs(series, &AllPairsConfig{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	truth := model.A[0]
	p := truth.Rows
	var tp, fn, fp int
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			trueEdge := math.Abs(truth.At(i, j)) > 1e-9
			gotEdge := math.Abs(res.A[0].At(i, j)) > 1e-9
			switch {
			case trueEdge && gotEdge:
				tp++
			case trueEdge && !gotEdge:
				fn++
			case !trueEdge && gotEdge:
				fp++
			}
		}
	}
	if tp < (tp+fn)*3/4 {
		t.Fatalf("recall too low: tp=%d fn=%d fp=%d", tp, fn, fp)
	}
	if fp > (tp+fn)/2 {
		t.Fatalf("too many false edges: tp=%d fn=%d fp=%d", tp, fn, fp)
	}
	// Intercepts should land near the true per-channel mean μ/(1−ρ) —
	// just check they are finite and not wildly off zero-mean inputs.
	for i, mu := range res.Mu {
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			t.Fatalf("Mu[%d] = %v", i, mu)
		}
	}
	if res.Diag.LassoFits == 0 || res.Diag.Targets != p {
		t.Fatalf("diag not populated: %+v", res.Diag)
	}
}

// TestAllPairsShortSeriesError verifies the error path is collective:
// every rank sees the same failure.
func TestAllPairsShortSeriesError(t *testing.T) {
	series := mat.NewDense(4, 3)
	if _, err := AllPairs(series, nil); err == nil {
		t.Fatal("short series must fail")
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := AllPairs(series, allPairsOn(nil, c))
		if err == nil {
			return nil
		}
		return nil // error expected on every rank; Run must not deadlock
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllPairsWorkersResolve pins the zero-value rule of
// AllPairsConfig.Workers: positive as given, 0 GOMAXPROCS divided by the
// placement's ranks (1 in process), negative the full machine, each ≥ 1.
func TestAllPairsWorkersResolve(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, ranks, want int }{
		{2, 1, 2}, {2, 3, 2}, {0, 1, procs}, {0, 3, max(procs/3, 1)}, {-1, 1, procs}, {-1, 3, procs},
	} {
		err := mpi.Run(tc.ranks, func(c *mpi.Comm) error {
			at := &AllPairsConfig{Workers: tc.workers}
			if tc.ranks > 1 {
				at = allPairsOn(at, c)
			}
			if got := at.defaults().Workers; got != tc.want {
				return fmt.Errorf("Workers %d on %d ranks: %d, want %d", tc.workers, tc.ranks, got, tc.want)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// TestAllPairsVARResultBridge checks the artifact bridge shape.
func TestAllPairsVARResultBridge(t *testing.T) {
	_, series := sparseTestSeries(6, 300)
	res, err := AllPairs(series, &AllPairsConfig{NB: 2, Q: 4, Screen: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vr := res.VARResult()
	if len(vr.A) != 1 || vr.A[0].Rows != 6 || vr.A[0].Cols != 6 || len(vr.Mu) != 6 {
		t.Fatalf("bridge shape: %d lags, %v mu", len(vr.A), vr.Mu)
	}
}

// allPairsGolden is the FNV-1a hash (betaHash) of each fixture's Mu followed
// by its lag matrices, captured while the all-pairs selection bootstraps
// still gathered their screened rows and columns into copies.
var allPairsGolden = map[string]uint64{
	"order2":  0xd11d6fe946ea7554,
	"p10":     0x2375ee4153afb8bf,
	"p11":     0x6c322f9b66d3c7fe,
	"rho-cap": 0x52a22a4a71fce8b5,
}

// TestAllPairsGolden pins the all-pairs fit's bits across changes to the
// selection cell it shares with UoI_LASSO and UoI_VAR.
func TestAllPairsGolden(t *testing.T) {
	for name, fx := range map[string]struct {
		p, n int
		cfg  AllPairsConfig
	}{
		"p11":     {11, 400, AllPairsConfig{NB: 3, Q: 5, Screen: 8, Seed: 7}},
		"p10":     {10, 1500, AllPairsConfig{Seed: 3}},
		"order2":  {8, 600, AllPairsConfig{Order: 2, NB: 4, Q: 6, Screen: 10, Seed: 5, SelectionFrac: 0.75}},
		"rho-cap": {9, 500, AllPairsConfig{NB: 2, Q: 4, Screen: 6, Seed: 9, ADMM: admm.Options{Rho: 2, MaxIter: 15}}},
	} {
		_, series := sparseTestSeries(fx.p, fx.n)
		res, err := AllPairs(series, &fx.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat := append([]float64(nil), res.Mu...)
		for _, a := range res.A {
			flat = append(flat, a.Data...)
		}
		if got := betaHash(flat); got != allPairsGolden[name] {
			t.Errorf("%s: Beta hash %#x, golden %#x", name, got, allPairsGolden[name])
		}
	}
}
