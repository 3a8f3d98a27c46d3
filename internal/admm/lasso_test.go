package admm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uoivar/internal/mat"
)

// solveSPD is the tests' closed-form reference: factor a and solve a·x = b.
func solveSPD(a *mat.Dense, b []float64) ([]float64, error) {
	ch, err := mat.NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b), nil
}

// makeRegression builds y = Xβ + σε with a sparse β.
func makeRegression(seed int64, n, p, nnz int, sigma float64) (*mat.Dense, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	beta := make([]float64, p)
	perm := rng.Perm(p)
	for _, j := range perm[:nnz] {
		beta[j] = 1 + rng.Float64()*2
		if rng.Intn(2) == 0 {
			beta[j] = -beta[j]
		}
	}
	y := mat.MulVec(x, beta)
	for i := range y {
		y[i] += sigma * rng.NormFloat64()
	}
	return x, y, beta
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ a, k, want float64 }{
		{3, 1, 2}, {-3, 1, -2}, {0.5, 1, 0}, {-0.5, 1, 0}, {1, 1, 0}, {2, 0, 2},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.a, c.k); got != c.want {
			t.Fatalf("SoftThreshold(%v,%v) = %v, want %v", c.a, c.k, got, c.want)
		}
	}
}

func TestLassoZeroLambdaIsOLS(t *testing.T) {
	x, y, _ := makeRegression(1, 60, 10, 10, 0.1)
	res, err := Lasso(x, y, 0, &Options{MaxIter: 2000, AbsTol: 1e-10, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("OLS-via-ADMM did not converge")
	}
	// Closed-form OLS.
	want, err := solveSPD(mat.AtA(x), mat.GramVec(x, y))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.Beta[i]-want[i]) > 1e-5 {
			t.Fatalf("beta[%d] = %v, want %v", i, res.Beta[i], want[i])
		}
	}
}

func TestOLSWrapper(t *testing.T) {
	x, y, _ := makeRegression(2, 40, 5, 5, 0.05)
	res, err := Lasso(x, y, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solveSPD(mat.AtA(x), mat.GramVec(x, y))
	for i := range want {
		if math.Abs(res.Beta[i]-want[i]) > 1e-4 {
			t.Fatalf("OLS beta[%d] = %v, want %v", i, res.Beta[i], want[i])
		}
	}
}

func TestLassoMatchesCoordinateDescent(t *testing.T) {
	x, y, _ := makeRegression(3, 80, 15, 4, 0.2)
	for _, lambda := range []float64{0.5, 2, 8} {
		a, err := Lasso(x, y, lambda, &Options{MaxIter: 5000, AbsTol: 1e-9, RelTol: 1e-7})
		if err != nil {
			t.Fatal(err)
		}
		cd := CoordinateDescentLasso(x, y, lambda, 5000, 1e-10)
		// Objectives must agree closely (solutions may differ slightly in
		// near-degenerate directions).
		if math.Abs(a.Objective-cd.Objective) > 1e-3*(1+cd.Objective) {
			t.Fatalf("λ=%v: ADMM obj %v vs CD obj %v", lambda, a.Objective, cd.Objective)
		}
		for i := range a.Beta {
			if math.Abs(a.Beta[i]-cd.Beta[i]) > 1e-3 {
				t.Fatalf("λ=%v: beta[%d] ADMM %v vs CD %v", lambda, i, a.Beta[i], cd.Beta[i])
			}
		}
	}
}

func TestLassoLargeLambdaGivesZero(t *testing.T) {
	x, y, _ := makeRegression(4, 50, 8, 3, 0.1)
	lmax := LambdaMax(x, y)
	res, err := Lasso(x, y, lmax*1.01, &Options{MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Beta {
		if math.Abs(v) > 1e-6 {
			t.Fatalf("beta[%d] = %v, want 0 above λmax", i, v)
		}
	}
}

func TestLassoRecoversSupport(t *testing.T) {
	x, y, beta := makeRegression(5, 200, 20, 4, 0.05)
	res, err := Lasso(x, y, 3.0, &Options{MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, j := range Support(res.Beta, 1e-4) {
		got[j] = true
	}
	for j, v := range beta {
		if v != 0 && !got[j] {
			t.Fatalf("true support %d missed (beta=%v)", j, res.Beta[j])
		}
	}
}

func TestLassoShrinksVersusOLS(t *testing.T) {
	x, y, _ := makeRegression(6, 60, 10, 10, 0.3)
	ols, _ := Lasso(x, y, 0, nil)
	las, _ := Lasso(x, y, 5, nil)
	if mat.Norm1(las.Beta) >= mat.Norm1(ols.Beta) {
		t.Fatalf("LASSO ℓ1 %v must be below OLS ℓ1 %v", mat.Norm1(las.Beta), mat.Norm1(ols.Beta))
	}
}

func TestFactorizationReuseAcrossLambdaPath(t *testing.T) {
	x, y, _ := makeRegression(7, 70, 12, 5, 0.2)
	f, err := NewFactorizationWorkers(x, y, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lams := LogSpaceLambdas(LambdaMax(x, y), 1e-3, 6)
	var warmZ, warmU []float64
	prevNNZ := -1
	for _, l := range lams {
		res := f.Solve(l, &Options{MaxIter: 3000, WarmZ: warmZ, WarmU: warmU})
		warmZ, warmU = res.Beta, nil
		direct, err := Lasso(x, y, l, &Options{MaxIter: 3000})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Beta {
			if math.Abs(res.Beta[i]-direct.Beta[i]) > 2e-3 {
				t.Fatalf("λ=%v: path beta[%d]=%v vs direct %v", l, i, res.Beta[i], direct.Beta[i])
			}
		}
		nnz := len(Support(res.Beta, 1e-6))
		if prevNNZ >= 0 && nnz+3 < prevNNZ {
			t.Fatalf("support should not shrink sharply as λ decreases: %d -> %d", prevNNZ, nnz)
		}
		prevNNZ = nnz
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := (*Options)(nil).defaults()
	if o.Rho != 0 || o.MaxIter != 500 || o.AbsTol != 1e-6 || o.RelTol != 1e-4 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := (&Options{Rho: 2, MaxIter: 7}).defaults()
	if o2.Rho != 2 || o2.MaxIter != 7 || o2.AbsTol != 1e-6 {
		t.Fatalf("partial defaults = %+v", o2)
	}
}

func TestRhoAutoScaling(t *testing.T) {
	// A badly scaled problem (large n, large variance) must still converge
	// quickly under the auto-scaled ρ.
	x, y, _ := makeRegression(99, 400, 12, 4, 0.2)
	// Blow up the scale by 20×.
	for i := range x.Data {
		x.Data[i] *= 20
	}
	for i := range y {
		y[i] *= 20
	}
	f, err := NewFactorizationWorkers(x, y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.rho < 100 {
		t.Fatalf("auto ρ = %v, expected to track the Gram scale", f.rho)
	}
	lmax := LambdaMax(x, y)
	r := f.Solve(lmax/50, nil)
	if !r.Converged {
		t.Fatalf("auto-scaled solve did not converge in %d iters", r.Iters)
	}
	// Cross-check the solution against coordinate descent.
	cd := CoordinateDescentLasso(x, y, lmax/50, 5000, 1e-10)
	if math.Abs(r.Objective-cd.Objective) > 1e-3*(1+cd.Objective) {
		// Objective field is unset by Solve; compute it.
		obj := Objective(x, y, r.Beta, lmax/50, 0)
		if math.Abs(obj-cd.Objective) > 1e-3*(1+cd.Objective) {
			t.Fatalf("objective %v vs CD %v", obj, cd.Objective)
		}
	}
	if MeanDiag(mat.NewDense(0, 0)) != 1 {
		t.Fatal("MeanDiag of empty must be 1")
	}
}

func TestSupportTolerance(t *testing.T) {
	s := Support([]float64{0, 1e-9, -0.5, 2}, 1e-6)
	if len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Fatalf("Support = %v", s)
	}
}

func TestLambdaGrid(t *testing.T) {
	g := LogSpaceLambdas(10, 1e-2, 5)
	if len(g) != 5 || g[0] != 10 {
		t.Fatalf("grid = %v", g)
	}
	if math.Abs(g[4]-0.1) > 1e-12 {
		t.Fatalf("grid min = %v", g[4])
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Fatalf("grid not descending: %v", g)
		}
	}
	if got := LogSpaceLambdas(10, 1e-2, 1); len(got) != 1 || got[0] != 10 {
		t.Fatalf("q=1 grid = %v", got)
	}
	if LogSpaceLambdas(10, 1e-2, 0) != nil {
		t.Fatal("q=0 must be nil")
	}
}

func TestRidge(t *testing.T) {
	x, y, _ := makeRegression(8, 50, 6, 6, 0.1)
	b0, err := Ridge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	ols, _ := solveSPD(mat.AtA(x), mat.GramVec(x, y))
	for i := range ols {
		if math.Abs(b0[i]-ols[i]) > 1e-8 {
			t.Fatal("Ridge(0) must equal OLS")
		}
	}
	b1, _ := Ridge(x, y, 100)
	if mat.Norm2(b1) >= mat.Norm2(b0) {
		t.Fatal("ridge must shrink")
	}
}

// Property: the ADMM solution's objective never beats the CD solution's by
// more than tolerance, and vice versa (both near-optimal for the same convex
// problem).
func TestLassoOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := seed%1000 + 1
		x, y, _ := makeRegression(s, 40, 8, 3, 0.2)
		lambda := 1 + float64(s%5)
		a, err := Lasso(x, y, lambda, &Options{MaxIter: 4000})
		if err != nil {
			return false
		}
		cd := CoordinateDescentLasso(x, y, lambda, 4000, 1e-10)
		tol := 1e-3 * (1 + math.Abs(cd.Objective))
		return a.Objective <= cd.Objective+tol && cd.Objective <= a.Objective+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
