package admm

import (
	"reflect"
	"testing"
)

// TestWarmSweepCarriesDual is the regression test for the λ-path warm
// start: carrying both halves (z, u) of the previous solve must converge in
// no more total iterations than cold solves, and must select the same
// supports at every λ.
func TestWarmSweepCarriesDual(t *testing.T) {
	x, y, _ := makeRegression(11, 80, 15, 6, 0.3)
	f, err := NewFactorizationWorkers(x, y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lams := LogSpaceLambdas(LambdaMax(x, y), 1e-3, 8)

	coldIters := 0
	coldSup := make([][]int, len(lams))
	for j, l := range lams {
		r := f.Solve(l, &Options{MaxIter: 3000})
		coldIters += r.Iters
		coldSup[j] = Support(r.Beta, 1e-6)
	}

	warmIters := 0
	var wz, wu []float64
	for j, l := range lams {
		r := f.Solve(l, &Options{MaxIter: 3000, WarmZ: wz, WarmU: wu})
		if r.U == nil {
			t.Fatal("Result.U not populated — the dual cannot be carried to the next λ")
		}
		wz, wu = r.Beta, r.U
		warmIters += r.Iters
		if sup := Support(r.Beta, 1e-6); !reflect.DeepEqual(sup, coldSup[j]) {
			t.Fatalf("λ[%d]=%v: warm support %v differs from cold %v", j, l, sup, coldSup[j])
		}
	}
	if warmIters > coldIters {
		t.Fatalf("warm sweep took %d iterations, cold %d — warm start must not cost iterations", warmIters, coldIters)
	}
	t.Logf("λ-path iterations: cold=%d warm(z,u)=%d", coldIters, warmIters)
}
