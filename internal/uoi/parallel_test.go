package uoi

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uoivar/internal/datagen"
	"uoivar/internal/mat"
)

func TestForEachBootstrapFastFail(t *testing.T) {
	// An error must cancel dispatch: with 4 workers, an instant failure at
	// k=0 and slow successes elsewhere, only the in-flight bootstraps run —
	// nothing new is claimed once the error lands.
	const workers, n = 4, 100
	boom := errors.New("boom")
	var calls atomic.Int64
	err := forEachBootstrap(workers, n, func(k int) error {
		calls.Add(1)
		if k == 0 {
			return boom
		}
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c > workers {
		t.Fatalf("%d bootstraps ran after failure; cancellation broken", c)
	}
}

func TestForEachBootstrapSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	err := forEachBootstrap(1, 10, func(k int) error {
		calls++
		if k == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("err = %v after %d calls, want boom after 4", err, calls)
	}
}

func TestForEachBootstrapCollectRunsEverything(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		errs := forEachBootstrapCollect(workers, 20, func(k int) error {
			calls.Add(1)
			if k%5 == 2 {
				return boom
			}
			return nil
		})
		if calls.Load() != 20 {
			t.Fatalf("workers=%d: %d calls, want 20 (collect must not stop early)", workers, calls.Load())
		}
		for k, err := range errs {
			if k%5 == 2 && !errors.Is(err, boom) {
				t.Fatalf("workers=%d: errs[%d] = %v, want boom", workers, k, err)
			}
			if k%5 != 2 && err != nil {
				t.Fatalf("workers=%d: errs[%d] = %v, want nil", workers, k, err)
			}
		}
		if got := len(compactErrs(errs)); got != 4 {
			t.Fatalf("workers=%d: %d failures, want 4", workers, got)
		}
	}
}

// TestPoolStreamsIdentical: the in-process pool's streams and their kernel
// budget decide only who computes a cell, so every fit is bit-identical to
// the one at Workers 1, KernelWorkers 1 — at Workers 0 (one stream per
// core, up to a phase's cells, each at the cores left over), 1, 2 and 3 ×
// KernelWorkers 0, 1 and 2. At Workers 0 the fit never runs more kernel
// streams than GOMAXPROCS, or its explicit budget per stream.
func TestPoolStreamsIdentical(t *testing.T) {
	type fitFn func(workers, kw int) (placedFit, error)
	var cases []struct {
		name string
		fit  fitFn
	}
	add := func(name string, fit fitFn) {
		cases = append(cases, struct {
			name string
			fit  fitFn
		}{name, fit})
	}
	for _, lc := range lassoTableCases() {
		if lc.name != "lasso" && lc.name != "lasso-std" && lc.name != "lasso-quorum" {
			continue
		}
		lc := lc
		add(lc.name, func(workers, kw int) (placedFit, error) {
			c := lc.cfg
			c.Workers, c.KernelWorkers = workers, kw
			return lassoFit(Lasso(lc.x, lc.y, &c))
		})
	}
	_, series := makeVARData(23, 8, 1, 2100)
	base := VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, LambdaRatio: 1e-2, Seed: 5}
	add("var", func(workers, kw int) (placedFit, error) {
		c := base
		c.Workers, c.KernelWorkers = workers, kw
		return varFit(VAR(series, &c))
	})
	// A streaming refit: the window slides inside the block grid and the
	// anchored refit warm-starts from the previous model's coefficients.
	warm := make([]float64, (8+1)*8)
	for i := range warm {
		warm[i] = 0.05 * float64(i%7-3)
	}
	add("var-refit", func(workers, kw int) (placedFit, error) {
		c := base
		c.Workers, c.KernelWorkers, c.WarmBeta = workers, kw, warm
		c.Anchored, c.BlockLen, c.Lambdas, c.Anchor = true, 32, []float64{0.4, 0.2, 0.1, 0.05}, 16
		return varFit(VAR(series.SubRows(16, 2064), &c))
	})
	add("var-journal", func(workers, kw int) (placedFit, error) {
		c := base
		c.Workers, c.KernelWorkers = workers, kw
		c.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "var.uoickpt")}
		return varFit(VAR(series, &c))
	})
	procs := int64(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		oracle, err := tc.fit(1, 1)
		if err != nil {
			t.Fatalf("%s oracle: %v", tc.name, err)
		}
		for _, workers := range []int{0, 1, 2, 3} {
			for _, kw := range []int{0, 1, 2} {
				label := fmt.Sprintf("%s Workers=%d KernelWorkers=%d", tc.name, workers, kw)
				mat.ResetPeakWorkers()
				fit, err := tc.fit(workers, kw)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitsEqual(t, label+" beta", fit.beta, oracle.beta)
				assertBitsEqual(t, label+" lambdas", fit.lambdas, oracle.lambdas)
				assertBitsEqual(t, label+" intercept", []float64{fit.intercept}, []float64{oracle.intercept})
				if !reflect.DeepEqual(fit.supports, oracle.supports) || fit.boot != oracle.boot || fit.work != oracle.work {
					t.Errorf("%s: supports, bootstrap stats or work differ from the oracle's", label)
				}
				if peak, limit := mat.PeakWorkers(), procs*int64(max(kw, 1)); workers == 0 && peak > limit {
					t.Errorf("%s: peak kernel workers %d, want ≤ %d", label, peak, limit)
				}
			}
		}
	}
}

// BenchmarkFitPool times whole in-process fits at the repository
// benchmark's two fit shapes — lasso_tall's (MakeRegression 8192×256, 16
// non-zeros, noise 0.5; B1 8, B2 4, Q 12) and var_network's (MakeFinance p
// 60, n 600; B1 6, B2 3, Q 16) — with one stream at the whole machine's
// kernel budget (streams1, Workers 1) and at the default placement (auto,
// Workers 0: min(GOMAXPROCS, cells) streams, each at the cores left over).
func BenchmarkFitPool(b *testing.B) {
	reg := datagen.MakeRegression(1, 8192, 256, &datagen.RegressionOptions{NNZ: 16, NoiseStd: 0.5})
	series := datagen.MakeFinance(1000, 60, 600, nil).Series
	for _, pl := range []struct {
		name    string
		workers int
	}{{"streams1", 1}, {"auto", 0}} {
		b.Run("lasso/"+pl.name, func(b *testing.B) {
			cfg := LassoConfig{B1: 8, B2: 4, Q: 12, Seed: 7, Workers: pl.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Lasso(reg.X, reg.Y, &cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("var/"+pl.name, func(b *testing.B) {
			cfg := VARConfig{Order: 1, B1: 6, B2: 3, Q: 16, Seed: 7, Workers: pl.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := VAR(series, &cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
