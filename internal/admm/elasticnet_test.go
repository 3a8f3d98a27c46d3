package admm

import (
	"math"
	"runtime"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/trace"
)

func TestElasticNetMatchesCD(t *testing.T) {
	x, y, _ := makeRegression(81, 150, 18, 5, 0.3)
	for _, c := range []struct{ l1, l2 float64 }{{2, 0.5}, {5, 2}, {0.5, 10}} {
		a, err := ElasticNet(x, y, c.l1, c.l2, &Options{MaxIter: 5000, AbsTol: 1e-9, RelTol: 1e-7})
		if err != nil {
			t.Fatal(err)
		}
		cd := CoordinateDescentElasticNet(x, y, c.l1, c.l2, 5000, 1e-10)
		if math.Abs(a.Objective-cd.Objective) > 1e-3*(1+cd.Objective) {
			t.Fatalf("λ1=%v λ2=%v: ADMM obj %v vs CD %v", c.l1, c.l2, a.Objective, cd.Objective)
		}
		for i := range a.Beta {
			if math.Abs(a.Beta[i]-cd.Beta[i]) > 2e-3 {
				t.Fatalf("λ1=%v λ2=%v: beta[%d] %v vs %v", c.l1, c.l2, i, a.Beta[i], cd.Beta[i])
			}
		}
	}
}

// TestElasticNetKernelWorkers: ElasticNet runs its Gram product and its
// factorization under Options.KernelWorkers and books the factorization, as
// Lasso does. The shape crosses the kernels' parallel gate, so a default
// budget would run GOMAXPROCS streams.
func TestElasticNetKernelWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x, y, _ := makeRegression(84, 600, 64, 5, 0.3)
	for _, solve := range []struct {
		name string
		fit  func(*Options) (*Result, error)
	}{
		{"ElasticNet", func(o *Options) (*Result, error) { return ElasticNet(x, y, 1, 0.5, o) }},
		{"Lasso", func(o *Options) (*Result, error) { return Lasso(x, y, 1, o) }},
	} {
		tr := trace.New()
		mat.ResetPeakWorkers()
		if _, err := solve.fit(&Options{KernelWorkers: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > 1 {
			t.Errorf("%s with KernelWorkers 1: peak kernel workers %d", solve.name, peak)
		}
		if n := tr.Counter("admm/factorizations"); n != 1 {
			t.Errorf("%s booked %d factorizations, want 1", solve.name, n)
		}
	}
}

func TestElasticNetReducesToLasso(t *testing.T) {
	x, y, _ := makeRegression(82, 100, 10, 3, 0.2)
	en, err := ElasticNet(x, y, 3, 0, &Options{MaxIter: 4000})
	if err != nil {
		t.Fatal(err)
	}
	las, err := Lasso(x, y, 3, &Options{MaxIter: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range en.Beta {
		if math.Abs(en.Beta[i]-las.Beta[i]) > 1e-4 {
			t.Fatalf("λ2=0 elastic net differs from lasso at %d: %v vs %v", i, en.Beta[i], las.Beta[i])
		}
	}
}

func TestElasticNetReducesToRidge(t *testing.T) {
	x, y, _ := makeRegression(83, 120, 8, 8, 0.1)
	lambda2 := 5.0
	en, err := ElasticNet(x, y, 0, lambda2, &Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Closed-form ridge: (XᵀX + λ₂I)⁻¹Xᵀy.
	want, err := Ridge(x, y, lambda2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(en.Beta[i]-want[i]) > 1e-4 {
			t.Fatalf("λ1=0 elastic net differs from ridge at %d: %v vs %v", i, en.Beta[i], want[i])
		}
	}
}

func TestElasticNetGroupingEffect(t *testing.T) {
	// Duplicate (perfectly correlated) predictors: lasso picks one
	// arbitrarily; elastic net splits the weight — the grouping effect.
	x, y, _ := makeRegression(84, 200, 6, 2, 0.1)
	// Make column 5 a copy of column 0.
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 5, x.At(i, 0))
	}
	// Regenerate y so column 0 (and its twin) matter.
	beta := []float64{2, 0, 0, 0, 0, 0}
	y = mat.MulVec(x, beta)
	en := CoordinateDescentElasticNet(x, y, 1, 50, 8000, 1e-12)
	b0, b5 := en.Beta[0], en.Beta[5]
	if b0 <= 0 || b5 <= 0 {
		t.Fatalf("grouping effect missing: beta0=%v beta5=%v", b0, b5)
	}
	if math.Abs(b0-b5) > 0.05*(b0+b5) {
		t.Fatalf("correlated twins should share weight: %v vs %v", b0, b5)
	}
}

// CoordinateDescentElasticNet is the independent reference solver for the
// elastic net, extending the LASSO CD update with the ℓ2 denominator:
//
//	β_j ← S(ρ_j, λ₁) / (‖x_j‖² + λ₂)
func CoordinateDescentElasticNet(x *mat.Dense, y []float64, lambda1, lambda2 float64, maxIter int, tol float64) *Result {
	if maxIter <= 0 {
		maxIter = 1000
	}
	if tol <= 0 {
		tol = 1e-8
	}
	if lambda2 < 0 {
		lambda2 = 0
	}
	n, p := x.Rows, x.Cols
	beta := make([]float64, p)
	r := make([]float64, n)
	copy(r, y)
	colSq := make([]float64, p)
	cols := make([][]float64, p)
	for j := 0; j < p; j++ {
		col := x.Col(j, nil)
		cols[j] = col
		colSq[j] = mat.Dot(col, col)
	}
	iters := 0
	converged := false
	for it := 1; it <= maxIter; it++ {
		iters = it
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			denom := colSq[j] + lambda2
			if denom == 0 {
				continue
			}
			old := beta[j]
			rho := mat.Dot(cols[j], r) + old*colSq[j]
			next := SoftThreshold(rho, lambda1) / denom
			if d := next - old; d != 0 {
				mat.Axpy(r, -d, cols[j])
				beta[j] = next
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
			}
		}
		if maxDelta < tol {
			converged = true
			break
		}
	}
	return &Result{
		Beta:      beta,
		Iters:     iters,
		Converged: converged,
		Objective: ElasticNetObjective(x, y, beta, lambda1, lambda2, 0),
	}
}
