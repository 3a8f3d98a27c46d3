package admm

import (
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/trace"
)

// TestLassoTraceCounters checks the solver books its work into the tracer:
// one factorization per Lasso call, one solve per SolveRHS, and chol_solves
// tracking iterations (the dense path does one back-substitution per
// iteration).
func TestLassoTraceCounters(t *testing.T) {
	reg := datagen.MakeRegression(3, 200, 24, &datagen.RegressionOptions{NNZ: 5, NoiseStd: 0.3})
	lambda := LambdaMax(reg.X, reg.Y) / 20
	tr := trace.New()
	if _, err := Lasso(reg.X, reg.Y, lambda, &Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("admm/factorizations"); got != 1 {
		t.Fatalf("factorizations = %d, want 1", got)
	}
	if got := tr.Counter("admm/solves"); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
	iters := tr.Counter("admm/iters")
	if iters < 1 {
		t.Fatalf("iters = %d, want >= 1", iters)
	}
	if got := tr.Counter("admm/chol_solves"); got != iters {
		t.Fatalf("chol_solves = %d, want one per iteration (%d)", got, iters)
	}
}

// TestLassoNilTraceIsFree: the default (untraced) path must not record and
// must return the identical solution.
func TestLassoNilTraceIsFree(t *testing.T) {
	reg := datagen.MakeRegression(4, 150, 16, &datagen.RegressionOptions{NNZ: 4, NoiseStd: 0.2})
	lambda := LambdaMax(reg.X, reg.Y) / 20
	plain, err := Lasso(reg.X, reg.Y, lambda, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Lasso(reg.X, reg.Y, lambda, &Options{Trace: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Beta {
		if plain.Beta[i] != traced.Beta[i] {
			t.Fatalf("tracing changed the solution at %d", i)
		}
	}
}

// TestWorkersVariantsMatch: the explicit-budget factorization constructors
// solve the same problem as the default-budget names, bit for bit — every
// dense kernel splits its outputs across workers, never a reduction, so the
// kernel budget cannot reach the solution (the 180×20 design crosses the
// Gram's parallel gate).
func TestWorkersVariantsMatch(t *testing.T) {
	reg := datagen.MakeRegression(5, 180, 20, &datagen.RegressionOptions{NNZ: 4, NoiseStd: 0.2})
	f0, err := NewFactorizationWorkers(reg.X, reg.Y, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lambda := LambdaMax(reg.X, reg.Y) / 20
	r0 := f0.Solve(lambda, nil)
	for _, workers := range []int{1, 2, 3, 8} {
		f1, err := NewFactorizationWorkers(reg.X, reg.Y, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		if r1 := f1.Solve(lambda, nil); r1.Iters != r0.Iters || !sameBits(r0.Beta, r1.Beta) {
			t.Fatalf("kernel budget %d changed the solution", workers)
		}
	}
}
