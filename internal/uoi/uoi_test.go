package uoi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// makeRegression builds y = Xβ + σε with a known sparse β.
func makeRegression(seed int64, n, p, nnz int, sigma float64) (*mat.Dense, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	beta := make([]float64, p)
	perm := rng.Perm(p)
	for _, j := range perm[:nnz] {
		beta[j] = 1.5 + rng.Float64()
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

func TestLassoRecoversSparseModel(t *testing.T) {
	x, y, trueBeta := makeRegression(1, 150, 25, 5, 0.3)
	res, err := Lasso(x, y, &LassoConfig{B1: 12, B2: 8, Q: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.FalseNegatives != 0 {
		t.Fatalf("UoI missed true features: %+v (beta %v)", sel, res.Beta)
	}
	// The union (averaging) step can reintroduce features with near-zero
	// magnitude; what matters is that any false positive is tiny while true
	// coefficients (|β| ≥ 1.5 here) are fully retained.
	selMag := metrics.CompareSupports(trueBeta, res.Beta, 0.05)
	if selMag.FalsePositives > 2 {
		t.Fatalf("UoI selected too many material false positives: %+v", selMag)
	}
	est := metrics.CompareEstimates(trueBeta, res.Beta, 1e-6)
	if est.SupportRMSE > 0.2 {
		t.Fatalf("estimation error too large: %+v", est)
	}
}

func TestLassoFewerFalsePositivesThanPlainLasso(t *testing.T) {
	// UoI's selling point: the intersection step suppresses the LASSO's
	// false positives. Averaged over several problem draws, UoI must select
	// no more false positives than cross-validated LASSO while keeping the
	// true features.
	var uoiFP, cvFP, uoiFN int
	for seed := int64(2); seed < 5; seed++ {
		x, y, trueBeta := makeRegression(seed, 100, 30, 4, 0.5)
		uoiRes, err := Lasso(x, y, &LassoConfig{B1: 20, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		cv, err := LassoCV(x, y, 5, 10, uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		uoiSel := metrics.CompareSupports(trueBeta, uoiRes.Beta, 1e-6)
		cvSel := metrics.CompareSupports(trueBeta, cv.Beta, 1e-6)
		uoiFP += uoiSel.FalsePositives
		cvFP += cvSel.FalsePositives
		uoiFN += uoiSel.FalseNegatives
	}
	if uoiFP > cvFP {
		t.Fatalf("UoI total FP %d > LassoCV total FP %d", uoiFP, cvFP)
	}
	if uoiFN > 0 {
		t.Fatalf("UoI dropped %d true features", uoiFN)
	}
}

func TestLassoDeterministicInSeed(t *testing.T) {
	x, y, _ := makeRegression(3, 80, 15, 3, 0.2)
	a, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Beta {
		if a.Beta[i] != b.Beta[i] {
			t.Fatal("same seed must give identical results")
		}
	}
	c, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 4, Q: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Beta {
		if a.Beta[i] != c.Beta[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should perturb the estimate")
	}
}

func TestLassoSupportsAreNested(t *testing.T) {
	// Smaller λ admits more features into each bootstrap support, and after
	// intersection the per-λ supports should broadly grow as λ decreases.
	x, y, _ := makeRegression(4, 120, 20, 4, 0.2)
	res, err := Lasso(x, y, &LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Supports) != 8 {
		t.Fatalf("supports per λ = %d", len(res.Supports))
	}
	first := len(res.Supports[0])
	last := len(res.Supports[len(res.Supports)-1])
	if last < first {
		t.Fatalf("support size should not shrink along the path: %d -> %d", first, last)
	}
	// Largest λ (index 0) is at λmax: support must be empty.
	if first != 0 {
		t.Fatalf("support at λmax should be empty, got %v", res.Supports[0])
	}
}

func TestLassoDiagnosticsCounts(t *testing.T) {
	x, y, _ := makeRegression(5, 60, 10, 3, 0.2)
	cfg := &LassoConfig{B1: 4, B2: 3, Q: 5, Seed: 1}
	res, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.LassoFits != 4*5 {
		t.Fatalf("LassoFits = %d, want 20", res.Diag.LassoFits)
	}
	// OLS fits = B2 × #distinct supports ≤ B2 × q.
	if res.Diag.OLSFits == 0 || res.Diag.OLSFits > 3*5 {
		t.Fatalf("OLSFits = %d", res.Diag.OLSFits)
	}
	if res.Diag.SelectionTime <= 0 || res.Diag.EstimationTime <= 0 {
		t.Fatal("phase timings must be positive")
	}
}

func TestLassoInputValidation(t *testing.T) {
	x := mat.NewDense(3, 2)
	if _, err := Lasso(x, []float64{1, 2}, nil); err == nil {
		t.Fatal("row/response mismatch must fail")
	}
	if _, err := Lasso(x, []float64{1, 2, 3}, nil); err == nil {
		t.Fatal("too few samples must fail")
	}
}

func TestLassoExplicitLambdas(t *testing.T) {
	x, y, _ := makeRegression(6, 70, 8, 2, 0.1)
	lams := []float64{5, 1, 0.1}
	res, err := Lasso(x, y, &LassoConfig{B1: 4, B2: 3, Lambdas: lams, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lambdas) != 3 || res.Lambdas[0] != 5 {
		t.Fatalf("Lambdas = %v", res.Lambdas)
	}
	if len(res.Supports) != 3 {
		t.Fatalf("Supports = %d", len(res.Supports))
	}
}

func TestLassoPredictionQuality(t *testing.T) {
	x, y, _ := makeRegression(7, 200, 15, 5, 0.5)
	res, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 6, Q: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	yHat := mat.MulVec(x, res.Beta)
	if r2 := metrics.R2(y, yHat); r2 < 0.8 {
		t.Fatalf("in-sample R² = %v too low", r2)
	}
}

func TestDedupeSupports(t *testing.T) {
	sup := [][]int{{1, 2}, {2, 1}, {1, 2}, {}, {3}}
	out := dedupeSupports(sup)
	// {1,2} and {2,1} hash differently pre-sort? supportKey uses the raw
	// order, so {2,1} is kept then sorted; dedupe is by exact sequence.
	if len(out) < 3 || len(out) > 4 {
		t.Fatalf("dedupe kept %d supports: %v", len(out), out)
	}
	for _, s := range out {
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				t.Fatal("deduped supports must be sorted")
			}
		}
	}
}

func TestLassoBIC(t *testing.T) {
	x, y, trueBeta := makeRegression(8, 150, 20, 4, 0.3)
	res, err := LassoBIC(x, y, 16)
	if err != nil {
		t.Fatal(err)
	}
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.FalseNegatives > 0 {
		t.Fatalf("BIC baseline missed features: %+v", sel)
	}
	if res.Lambda <= 0 {
		t.Fatalf("Lambda = %v", res.Lambda)
	}
}

func TestLassoCVChoosesReasonableLambda(t *testing.T) {
	x, y, _ := makeRegression(9, 120, 10, 3, 0.3)
	res, err := LassoCV(x, y, 4, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	lmax := 0.0
	for _, v := range res.Beta {
		lmax += math.Abs(v)
	}
	if lmax == 0 {
		t.Fatal("CV chose the null model on a strong-signal problem")
	}
}

func TestResultPredict(t *testing.T) {
	x, y, _ := makeRegression(10, 150, 12, 3, 0.2)
	predict := func(r *Result) []float64 {
		out := mat.MulVec(x, r.Beta)
		for i := range out {
			out[i] += r.Intercept
		}
		return out
	}
	res, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := predict(res)
	if r2 := metrics.R2(y, pred); r2 < 0.85 {
		t.Fatalf("Predict R² = %v", r2)
	}
	// With an intercept (standardized fit), Predict adds it.
	for i := range y {
		y[i] += 10
	}
	res2, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 2, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	pred2 := predict(res2)
	if r2 := metrics.R2(y, pred2); r2 < 0.85 {
		t.Fatalf("standardized Predict R² = %v", r2)
	}
}

// TestUnconvergedCounted: a solve that stops at ADMM.MaxIter without
// meeting its tolerances is counted in Diag.Unconverged and on the tracer's
// admm/unconverged counter. At MaxIter 1 that is every selection solve (and
// every estimation solve of the consensus baseline); a default fit of a
// well-posed problem has none.
func TestUnconvergedCounted(t *testing.T) {
	x, y, _ := makeRegression(97, 900, 20, 6, 0.3)
	_, series := makeVARData(21, 8, 1, 400)
	capped := admm.Options{MaxIter: 1}
	check := func(name string, d Diagnostics, tr *trace.Tracer, want int) {
		t.Helper()
		if d.Unconverged != want || tr.Counter("admm/unconverged") != int64(want) {
			t.Errorf("%s: Unconverged %d, admm/unconverged %d, want %d", name, d.Unconverged, tr.Counter("admm/unconverged"), want)
		}
	}
	for _, maxIter := range []int{1, 0} {
		tr := trace.New()
		lr, err := Lasso(x, y, &LassoConfig{B1: 5, B2: 3, Q: 5, Seed: 11, Trace: tr, ADMM: admm.Options{MaxIter: maxIter}})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if maxIter == 1 {
			want = lr.Diag.LassoFits
		}
		check(fmt.Sprintf("lasso MaxIter=%d", maxIter), lr.Diag, tr, want)

		tr = trace.New()
		vr, err := VAR(series, &VARConfig{Order: 1, B1: 3, B2: 2, Q: 4, Seed: 5, Trace: tr, ADMM: admm.Options{MaxIter: maxIter}})
		if err != nil {
			t.Fatal(err)
		}
		if want = 0; maxIter == 1 {
			want = vr.Diag.LassoFits
		}
		check(fmt.Sprintf("var MaxIter=%d", maxIter), vr.Diag, tr, want)
	}
	tr := trace.New()
	var res *Result
	err := mpi.Run(1, func(comm *mpi.Comm) (err error) {
		res, err = Lasso(x, y, lassoOn(&LassoConfig{B1: 3, B2: 2, Q: 4, Seed: 11, Trace: tr, ADMM: capped}, Placement{Comm: comm, Partitioned: true, Assembly: ConsensusADMM}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check("consensus lasso MaxIter=1", res.Diag, tr, res.Diag.LassoFits+res.Diag.OLSFits)
}
