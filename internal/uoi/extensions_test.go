package uoi

import (
	"fmt"
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
)

func TestSelectionThreshold(t *testing.T) {
	cases := []struct {
		frac float64
		b1   int
		want int
	}{
		{1.0, 10, 10}, {0.5, 10, 5}, {0.9, 10, 9}, {0.01, 10, 1},
		{0.75, 8, 6}, {1.0, 1, 1}, {0.33, 3, 1},
	}
	for _, c := range cases {
		if got := ceilCount(c.frac, c.b1); got != c.want {
			t.Fatalf("ceilCount(%v, %d) = %d, want %d", c.frac, c.b1, got, c.want)
		}
	}
}

func TestMedian64(t *testing.T) {
	if median64([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median64([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if median64(nil) != 0 {
		t.Fatal("empty median must be 0")
	}
	if median64([]float64{7}) != 7 {
		t.Fatal("singleton median wrong")
	}
}

func TestCombineWinners(t *testing.T) {
	winners := [][]float64{{1, 0}, {3, 0}, {2, 6}}
	mean := combineWinners(winners, 2, false)
	if mean[0] != 2 || mean[1] != 2 {
		t.Fatalf("mean = %v", mean)
	}
	med := combineWinners(winners, 2, true)
	if med[0] != 2 || med[1] != 0 {
		t.Fatalf("median = %v", med)
	}
	if z := combineWinners(nil, 2, true); z[0] != 0 || z[1] != 0 {
		t.Fatal("no winners must give zeros")
	}
}

// Soft intersection admits more features than the hard intersection: the
// per-λ supports with frac=0.5 must be supersets of the frac=1 supports.
func TestSoftIntersectionIsSuperset(t *testing.T) {
	x, y, _ := makeRegression(71, 90, 25, 4, 0.8)
	hard, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 4, Q: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 4, Q: 8, Seed: 2, SelectionFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	totalHard, totalSoft := 0, 0
	for j := range hard.Supports {
		hs := map[int]bool{}
		for _, i := range soft.Supports[j] {
			hs[i] = true
		}
		for _, i := range hard.Supports[j] {
			if !hs[i] {
				t.Fatalf("λ index %d: hard support member %d missing from soft support", j, i)
			}
		}
		totalHard += len(hard.Supports[j])
		totalSoft += len(soft.Supports[j])
	}
	if totalSoft <= totalHard {
		t.Fatalf("soft selection should admit more features on noisy data: %d vs %d", totalSoft, totalHard)
	}
}

// Soft intersection rescues true features on hard problems: with noisy data
// and few bootstraps, frac<1 must not lose recall relative to frac=1.
func TestSoftIntersectionRecall(t *testing.T) {
	x, y, trueBeta := makeRegression(72, 70, 30, 5, 1.2)
	hard, err := Lasso(x, y, &LassoConfig{B1: 12, B2: 5, Q: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := Lasso(x, y, &LassoConfig{B1: 12, B2: 5, Q: 10, Seed: 3, SelectionFrac: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	hardSel := metrics.CompareSupports(trueBeta, hard.Beta, 1e-6)
	softSel := metrics.CompareSupports(trueBeta, soft.Beta, 1e-6)
	if softSel.Recall() < hardSel.Recall() {
		t.Fatalf("soft recall %v < hard recall %v", softSel.Recall(), hardSel.Recall())
	}
}

func TestMedianUnionRobustness(t *testing.T) {
	// Median and mean unions agree closely on a clean problem...
	x, y, trueBeta := makeRegression(73, 200, 20, 4, 0.3)
	mean, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 7, Q: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	med, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 7, Q: 8, Seed: 4, MedianUnion: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, tv := range trueBeta {
		if tv == 0 {
			continue
		}
		if math.Abs(mean.Beta[i]-med.Beta[i]) > 0.1 {
			t.Fatalf("coef %d: mean union %v vs median union %v", i, mean.Beta[i], med.Beta[i])
		}
	}
	// ...and the median union is at least as sparse (a coefficient is
	// nonzero only if a majority of winners include it).
	if len(med.SelectedSupport) > len(mean.SelectedSupport) {
		t.Fatalf("median support %d > mean support %d", len(med.SelectedSupport), len(mean.SelectedSupport))
	}
}

func TestVARSoftIntersectionAndMedian(t *testing.T) {
	_, series := makeVARData(74, 6, 1, 400)
	base, err := VAR(series, &VARConfig{Order: 1, B1: 8, B2: 5, Q: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := VAR(series, &VARConfig{Order: 1, B1: 8, B2: 5, Q: 8, Seed: 5, SelectionFrac: 0.5, MedianUnion: true})
	if err != nil {
		t.Fatal(err)
	}
	// Soft supports ⊇ hard supports per λ.
	for j := range base.Supports {
		in := map[int]bool{}
		for _, i := range soft.Supports[j] {
			in[i] = true
		}
		for _, i := range base.Supports[j] {
			if !in[i] {
				t.Fatalf("λ %d: soft support lost %d", j, i)
			}
		}
	}
	if len(soft.Beta) != len(base.Beta) {
		t.Fatal("beta lengths differ")
	}
}

func TestDistributedSoftIntersectionMatchesSerialSemantics(t *testing.T) {
	// The distributed count/threshold machinery must behave like the serial
	// one: frac=1 keeps only features in every bootstrap support.
	x, y, trueBeta := makeRegression(75, 160, 16, 3, 0.3)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	xs, ys := shuffledBlocks(9, rows, y, x.Cols, 4)
	for _, frac := range []float64{1.0, 0.5} {
		results := make([]*Result, 4)
		err := mpi.Run(4, func(c *mpi.Comm) error {
			xl := denseFromRows(xs[c.Rank()], x.Cols)
			res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 6, SelectionFrac: frac, MedianUnion: frac < 1}, Placement{Comm: c, Partitioned: true}))
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < 4; r++ {
			for i := range results[0].Beta {
				if results[r].Beta[i] != results[0].Beta[i] {
					t.Fatalf("frac %v: ranks disagree", frac)
				}
			}
		}
		sel := metrics.CompareSupports(trueBeta, results[0].Beta, 1e-6)
		if sel.FalseNegatives != 0 {
			t.Fatalf("frac %v: missed features %+v", frac, sel)
		}
	}
}

func TestLassoStandardize(t *testing.T) {
	// Raw design with wildly different feature scales; the standardized fit
	// must recover the support that the raw fit's single λ cannot treat
	// fairly.
	x, y, trueBeta := makeRegression(91, 400, 20, 4, 0.3)
	for j := 0; j < x.Cols; j++ {
		scale := 1.0
		switch j % 3 {
		case 0:
			scale = 0.01
		case 2:
			scale = 100
		}
		for i := 0; i < x.Rows; i++ {
			x.Set(i, j, x.At(i, j)*scale)
		}
	}
	// Shift the response to exercise the intercept.
	for i := range y {
		y[i] += 7
	}
	res, err := Lasso(x, y, &LassoConfig{B1: 10, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: 6, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients are in original units: predictions must match y well.
	pred := mat.MulVec(x, res.Beta)
	var ssRes, ssTot, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i := range y {
		p := pred[i] + res.Intercept
		ssRes += (y[i] - p) * (y[i] - p)
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if r2 := 1 - ssRes/ssTot; r2 < 0.9 {
		t.Fatalf("standardized fit R² = %v", r2)
	}
	if res.Intercept < 5 || res.Intercept > 9 {
		t.Fatalf("intercept %v, want ≈7", res.Intercept)
	}
	// Support recovery across scales: original-unit coefficients match the
	// (rescaled) truth for the big-scale columns too.
	for j, tv := range trueBeta {
		if tv == 0 {
			continue
		}
		scale := 1.0
		switch j % 3 {
		case 0:
			scale = 0.01
		case 2:
			scale = 100
		}
		want := tv / scale
		if d := res.Beta[j] - want; d > 0.25*absF(want)+0.05 || d < -0.25*absF(want)-0.05 {
			t.Fatalf("coef %d: got %v want ≈%v", j, res.Beta[j], want)
		}
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestUoIElasticNetStabilizesCorrelatedDesign(t *testing.T) {
	// Build a design with two highly correlated informative features; pure
	// LASSO selection flips between them across bootstraps (so the
	// intersection can lose both), while the elastic-net selection keeps
	// them jointly.
	x, y, _ := makeRegression(92, 250, 15, 0, 0.2)
	rng := resample.NewRNG(17)
	// Feature 1 = feature 0 + tiny noise; response driven by their sum.
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 1, x.At(i, 0)+0.05*rng.NormFloat64())
	}
	for i := range y {
		y[i] = 1.5*(x.At(i, 0)+x.At(i, 1)) + 0.2*rng.NormFloat64()
	}
	en, err := Lasso(x, y, &LassoConfig{B1: 12, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: 7, L2: 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(en.Beta[0]) < 1e-6 || math.Abs(en.Beta[1]) < 1e-6 {
		t.Fatalf("elastic-net UoI should keep both twins: %v, %v", en.Beta[0], en.Beta[1])
	}
	// Both twins carry comparable weight (grouping effect through UoI).
	ratio := en.Beta[0] / en.Beta[1]
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("twin weights unbalanced: %v vs %v", en.Beta[0], en.Beta[1])
	}
}

func TestLassoDistributedStandardizeAndL2(t *testing.T) {
	x, y, trueBeta := makeRegression(93, 240, 18, 4, 0.3)
	// Bad scaling plus an offset.
	for j := 0; j < x.Cols; j++ {
		scale := []float64{0.02, 1, 50}[j%3]
		for i := 0; i < x.Rows; i++ {
			x.Set(i, j, x.At(i, j)*scale)
		}
	}
	for i := range y {
		y[i] += 3
	}
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	xs, ys := shuffledBlocks(13, rows, y, x.Cols, 4)
	var res *Result
	err := mpi.Run(4, func(c *mpi.Comm) error {
		xl := denseFromRows(xs[c.Rank()], x.Cols)
		r, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 8, Standardize: true, L2: 5}, Placement{Comm: c, Partitioned: true}))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intercept < 1 || res.Intercept > 5 {
		t.Fatalf("intercept %v, want ≈3", res.Intercept)
	}
	// Support recovery in original units.
	for j, tv := range trueBeta {
		if tv == 0 {
			continue
		}
		scale := []float64{0.02, 1, 50}[j%3]
		want := tv / scale
		got := res.Beta[j]
		if d := got - want; d > 0.3*absF(want)+0.1 || d < -0.3*absF(want)-0.1 {
			t.Fatalf("coef %d: got %v want ≈%v", j, got, want)
		}
	}
}

func TestLassoWorkersIdenticalResults(t *testing.T) {
	x, y, _ := makeRegression(94, 300, 20, 4, 0.3)
	cfgSeq := &LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 7}
	cfgPar := &LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 7, Workers: 4}
	seq, err := Lasso(x, y, cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Lasso(x, y, cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Beta {
		if seq.Beta[i] != par.Beta[i] {
			t.Fatalf("parallel bootstraps changed the result at %d: %v vs %v", i, seq.Beta[i], par.Beta[i])
		}
	}
	if seq.Diag.LassoFits != par.Diag.LassoFits || seq.Diag.OLSFits != par.Diag.OLSFits {
		t.Fatalf("work counters differ: %+v vs %+v", seq.Diag, par.Diag)
	}
	// Per-λ supports identical too.
	for j := range seq.Supports {
		if len(seq.Supports[j]) != len(par.Supports[j]) {
			t.Fatalf("support %d differs", j)
		}
		for i := range seq.Supports[j] {
			if seq.Supports[j][i] != par.Supports[j][i] {
				t.Fatalf("support %d member %d differs", j, i)
			}
		}
	}
}

func TestForEachBootstrapErrors(t *testing.T) {
	err := forEachBootstrap(3, 10, func(k int) error {
		if k == 4 {
			return fmt.Errorf("boom at %d", k)
		}
		return nil
	})
	if err == nil {
		t.Fatal("error must propagate")
	}
	// Sequential path too.
	err = forEachBootstrap(1, 5, func(k int) error {
		if k == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("sequential error must propagate")
	}
	// Degenerate n.
	if err := forEachBootstrap(8, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
