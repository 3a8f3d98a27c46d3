package varsim

import (
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/resample"
)

func TestGenerateStableIsStable(t *testing.T) {
	rng := resample.NewRNG(1)
	for _, c := range []struct{ p, d int }{{5, 1}, {10, 2}, {30, 1}, {8, 3}} {
		m := GenerateStable(rng.Derive(uint64(c.p*10+c.d)), c.p, c.d, nil)
		if m.P() != c.p || m.D() != c.d {
			t.Fatalf("dims = (%d,%d)", m.P(), m.D())
		}
		r := m.SpectralRadius()
		if r >= 1 {
			t.Fatalf("p=%d d=%d: spectral radius %v not stable", c.p, c.d, r)
		}
		if math.Abs(r-0.7) > 0.05 {
			t.Fatalf("p=%d d=%d: radius %v, want ≈0.7 target", c.p, c.d, r)
		}
	}
}

func TestGenerateStableSparsity(t *testing.T) {
	rng := resample.NewRNG(2)
	p := 40
	m := GenerateStable(rng, p, 1, &GenOptions{Density: 0.05})
	nnz := 0
	for _, v := range m.A[0].Data {
		if v != 0 {
			nnz++
		}
	}
	frac := float64(nnz) / float64(p*p)
	// Density 0.05 plus forced diagonal: allow generous bounds.
	if frac < 0.02 || frac > 0.12 {
		t.Fatalf("nnz fraction %v implausible for density 0.05", frac)
	}
}

func TestSimulateStationaryMoments(t *testing.T) {
	rng := resample.NewRNG(3)
	m := GenerateStable(rng, 6, 1, &GenOptions{SpectralTarget: 0.5})
	series := m.Simulate(rng.Derive(1), 5000, 200)
	if series.Rows != 5000 || series.Cols != 6 {
		t.Fatalf("series shape %dx%d", series.Rows, series.Cols)
	}
	// A stable zero-mean VAR must have bounded sample mean and variance.
	for j := 0; j < 6; j++ {
		var sum, sumSq float64
		for i := 0; i < series.Rows; i++ {
			v := series.At(i, j)
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(series.Rows)
		if math.Abs(mean) > 0.25 {
			t.Fatalf("series %d mean %v too large for stationary process", j, mean)
		}
		variance := sumSq/float64(series.Rows) - mean*mean
		if variance < 0.5 || variance > 20 {
			t.Fatalf("series %d variance %v implausible", j, variance)
		}
	}
}

func TestSimulateExplodesWhenUnstable(t *testing.T) {
	// Manually build an unstable VAR(1): A = 1.2·I.
	p := 3
	a := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		a.Set(i, i, 1.2)
	}
	m := &Model{A: []*mat.Dense{a}, Mu: make([]float64, p), NoiseStd: []float64{1, 1, 1}}
	if m.SpectralRadius() < 1 {
		t.Fatal("1.2·I must be unstable")
	}
	if r := m.SpectralRadius(); math.Abs(r-1.2) > 0.01 {
		t.Fatalf("spectral radius %v, want 1.2", r)
	}
	series := m.Simulate(resample.NewRNG(4), 200, 0)
	if mat.NormInf(series.Data) < 1e3 {
		t.Fatalf("unstable process should diverge, max |x| = %v", mat.NormInf(series.Data))
	}
}

func TestNewDesignShapesAndContent(t *testing.T) {
	rng := resample.NewRNG(5)
	p, d, n := 4, 2, 30
	m := GenerateStable(rng, p, d, nil)
	series := m.Simulate(rng.Derive(1), n, 50)
	des := NewDesign(series, d, true)
	if des.Y.Rows != n-d || des.Y.Cols != p {
		t.Fatalf("Y shape %dx%d", des.Y.Rows, des.Y.Cols)
	}
	if des.X.Rows != n-d || des.X.Cols != d*p+1 {
		t.Fatalf("X shape %dx%d", des.X.Rows, des.X.Cols)
	}
	// Row i targets time d+i; lag blocks must match the series.
	for i := 0; i < 5; i++ {
		tt := d + i
		for j := 0; j < p; j++ {
			if des.Y.At(i, j) != series.At(tt, j) {
				t.Fatalf("Y row %d mismatch", i)
			}
			if des.X.At(i, j) != series.At(tt-1, j) {
				t.Fatalf("X lag-1 block row %d mismatch", i)
			}
			if des.X.At(i, p+j) != series.At(tt-2, j) {
				t.Fatalf("X lag-2 block row %d mismatch", i)
			}
		}
		if des.X.At(i, d*p) != 1 {
			t.Fatal("intercept column missing")
		}
	}
}

func TestNewDesignFromRowsMatchesSubset(t *testing.T) {
	rng := resample.NewRNG(6)
	m := GenerateStable(rng, 3, 1, nil)
	series := m.Simulate(rng.Derive(1), 20, 10)
	full := NewDesign(series, 1, false)
	targets := []int{3, 7, 7, 15}
	sub := NewDesignFromRows(series, 1, false, targets)
	for i, tt := range targets {
		for j := 0; j < 3; j++ {
			if sub.Y.At(i, j) != full.Y.At(tt-1, j) {
				t.Fatalf("row %d Y mismatch", i)
			}
			if sub.X.At(i, j) != full.X.At(tt-1, j) {
				t.Fatalf("row %d X mismatch", i)
			}
		}
	}
}

func TestVecYColumnMajor(t *testing.T) {
	y := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	d := &Design{Y: y, X: mat.NewDense(2, 1), P: 3, D: 1}
	v := d.VecY()
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("VecY = %v, want %v", v, want)
		}
	}
}

func TestPartitionFlattenRoundTrip(t *testing.T) {
	rng := resample.NewRNG(7)
	p, d := 5, 2
	m := GenerateStable(rng, p, d, nil)
	mu := make([]float64, p)
	for i := range mu {
		mu[i] = rng.NormFloat64()
	}
	beta := FlattenModel(m.A, mu, true)
	series := m.Simulate(rng.Derive(2), 30, 10)
	des := NewDesign(series, d, true)
	if len(beta) != des.X.Cols*p {
		t.Fatalf("beta length %d, want %d", len(beta), des.X.Cols*p)
	}
	a2, mu2 := des.PartitionBeta(beta)
	for j := 0; j < d; j++ {
		if !a2[j].Equal(m.A[j], 0) {
			t.Fatalf("A_%d round trip failed", j+1)
		}
	}
	for i := range mu {
		if mu2[i] != mu[i] {
			t.Fatal("mu round trip failed")
		}
	}
}

// The critical correspondence: vec(Y) = (I⊗X)·vec(B) for noiseless data
// (eq. 9). Validates the column-stacking/partition conventions end to end
// against the explicit Kronecker operator.
func TestVectorizedCorrespondence(t *testing.T) {
	rng := resample.NewRNG(8)
	p, d, n := 4, 2, 16
	m := GenerateStable(rng, p, d, nil)
	m.NoiseStd = make([]float64, p) // noiseless
	for i := range m.Mu {
		m.Mu[i] = 0.5 * rng.NormFloat64()
	}
	series := m.Simulate(rng.Derive(3), n, 20)
	des := NewDesign(series, d, true)
	beta := FlattenModel(m.A, m.Mu, true)

	// Explicit (I⊗X)·beta against vec(Y): the noiseless residual is ~0.
	kron := mat.NewDense(p*des.X.Rows, p*des.X.Cols)
	for e := 0; e < p; e++ {
		for i := 0; i < des.X.Rows; i++ {
			copy(kron.Row(e*des.X.Rows + i)[e*des.X.Cols:], des.X.Row(i))
		}
	}
	pred := mat.MulVec(kron, beta)
	vy := des.VecY()
	for i := range vy {
		if math.Abs(pred[i]-vy[i]) > 1e-9 {
			t.Fatalf("Kronecker correspondence broken at %d: %v vs %v", i, pred[i], vy[i])
		}
	}
}

func TestGrangerEdges(t *testing.T) {
	a := mat.NewDense(3, 3)
	a.Set(0, 1, 0.5)  // 1 → 0
	a.Set(2, 0, -0.2) // 0 → 2
	a.Set(1, 1, 0.9)  // self loop
	edges := GrangerEdges([]*mat.Dense{a}, 1e-8, false)
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	withSelf := GrangerEdges([]*mat.Dense{a}, 1e-8, true)
	if len(withSelf) != 3 {
		t.Fatalf("with self loops: %v", withSelf)
	}
	// Weight is max across lags.
	a2 := mat.NewDense(3, 3)
	a2.Set(0, 1, -0.9)
	edges2 := GrangerEdges([]*mat.Dense{a, a2}, 1e-8, false)
	for _, e := range edges2 {
		if e.Source == 1 && e.Target == 0 && e.Weight != 0.9 {
			t.Fatalf("weight = %v, want 0.9", e.Weight)
		}
	}
}

func TestTrueSupport(t *testing.T) {
	rng := resample.NewRNG(9)
	m := GenerateStable(rng, 10, 2, nil)
	adj := m.TrueSupport(0)
	count := 0
	for i := range adj {
		for k := range adj[i] {
			has := false
			for _, a := range m.A {
				if a.At(i, k) != 0 {
					has = true
				}
			}
			if adj[i][k] != has {
				t.Fatalf("support mismatch at (%d,%d)", i, k)
			}
			if adj[i][k] {
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("empty support")
	}
}

func TestFirstDifferences(t *testing.T) {
	s := mat.NewDenseData(3, 2, []float64{1, 10, 4, 14, 9, 20})
	d := FirstDifferences(s)
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if d.Data[i] != want[i] {
			t.Fatalf("FirstDifferences = %v", d.Data)
		}
	}
}

func TestAggregateEvery(t *testing.T) {
	s := mat.NewDenseData(5, 1, []float64{1, 3, 5, 7, 100})
	a := AggregateEvery(s, 2)
	if a.Rows != 2 || a.At(0, 0) != 2 || a.At(1, 0) != 6 {
		t.Fatalf("AggregateEvery = %v", a.Data)
	}
}
