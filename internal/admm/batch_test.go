package admm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/trace"
)

// batchProblem is one shared design with E responses: the factorization of
// its Gram and the p×E panel of Xᵀy columns, as a UoI_VAR bootstrap has.
type batchProblem struct {
	f    *Factorization
	aty  *mat.Dense  // p×E panel
	cols [][]float64 // the same right-hand sides, one vector per response
	lmax float64
}

func makeBatchProblem(t testing.TB, seed int64, n, p, e int, l2 float64) *batchProblem {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	var f *Factorization
	var err error
	if l2 > 0 {
		f, err = NewFactorizationElasticWorkers(mat.AtAWorkers(x, 1), 0, l2, 1)
	} else {
		f, err = NewFactorizationGramWorkers(mat.AtAWorkers(x, 1), 0, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	bp := &batchProblem{f: f, aty: mat.NewDense(p, e), cols: make([][]float64, e)}
	y := make([]float64, n)
	for c := 0; c < e; c++ {
		// Sparse signal plus noise, a different support per response.
		for i := range y {
			y[i] = x.At(i, (c*7)%p) - 0.5*x.At(i, (c*3+1)%p) + 0.4*rng.NormFloat64()
		}
		bp.cols[c] = mat.AtVecWorkers(x, y, 1)
		bp.aty.SetCol(c, bp.cols[c])
		bp.lmax = math.Max(bp.lmax, mat.NormInf(bp.cols[c]))
	}
	return bp
}

// sameBits reports whether two vectors agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// loopSolveRHS is the single-right-hand-side ADMM loop as it was before
// SolveRHS became the one-column case of the panel loop, kept as the oracle
// of both: one XUpdate per iteration and the exact stopping test on every
// iteration.
func loopSolveRHS(f *Factorization, aty []float64, lambda float64, opts *Options) *Result {
	o := opts.defaults()
	p := f.p
	z := make([]float64, p)
	u := make([]float64, p)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, p)
	rhs := make([]float64, p)
	zOld := make([]float64, p)
	sqrtP := math.Sqrt(float64(p))

	var primal, dual float64
	for iter := 1; iter <= o.MaxIter; iter++ {
		for i := range rhs {
			rhs[i] = aty[i] + float64(f.rho*(z[i]-u[i]))
		}
		f.XUpdate(x, rhs)

		copy(zOld, z)
		for i := range z {
			z[i] = x[i] + u[i]
			if lambda > 0 {
				z[i] = SoftThreshold(z[i], lambda/f.rho)
			}
		}
		for i := range u {
			u[i] += x[i] - z[i]
		}

		primal = 0
		for i := range x {
			d := x[i] - z[i]
			primal += float64(d * d)
		}
		primal = math.Sqrt(primal)
		dual = 0
		for i := range z {
			d := f.rho * (z[i] - zOld[i])
			dual += float64(d * d)
		}
		dual = math.Sqrt(dual)

		epsPrimal := float64(sqrtP*o.AbsTol) + float64(o.RelTol*math.Max(mat.Norm2(x), mat.Norm2(z)))
		epsDual := float64(sqrtP*o.AbsTol) + float64(o.RelTol*f.rho*mat.Norm2(u))
		if primal <= epsPrimal && dual <= epsDual {
			countSolves(o.Trace, 1, iter, iter)
			return &Result{Beta: z, U: u, Iters: iter, Converged: true, PrimalRes: primal, DualRes: dual}
		}
	}
	countSolves(o.Trace, 1, o.MaxIter, o.MaxIter)
	return &Result{Beta: z, U: u, Iters: o.MaxIter, Converged: false, PrimalRes: primal, DualRes: dual}
}

// TestSolveRHSBatchMatchesLoop is the differential test of the serial loop:
// along a warm-chained λ path (cold first step, λ = 0 last), every column of
// every batch, and SolveRHS of that column, must equal the oracle loop's
// solve of it bit for bit, at every column-group budget, and the three must
// book the same counters.
func TestSolveRHSBatchMatchesLoop(t *testing.T) {
	cases := []struct {
		name    string
		n, p, e int
		l2      float64
		opts    Options
	}{
		{"e1", 40, 7, 1, 0, Options{}},
		{"e3", 50, 9, 3, 0, Options{}},
		{"e4", 50, 12, 4, 0, Options{}},
		{"e57", 120, 23, 57, 0, Options{}},
		{"e60-var-shape", 200, 61, 60, 0, Options{}},
		{"elastic", 80, 17, 13, 0.7, Options{}},
		{"tight-tol", 60, 11, 9, 0, Options{AbsTol: 1e-10, RelTol: 1e-8, MaxIter: 4000}},
		// A cap low enough that only some columns meet the stopping test.
		{"maxiter-cap", 90, 19, 21, 0, Options{MaxIter: 21}},
	}
	for ci, c := range cases {
		bp := makeBatchProblem(t, int64(100+ci), c.n, c.p, c.e, c.l2)
		lambdas := []float64{0.6 * bp.lmax, 0.1 * bp.lmax, 0.01 * bp.lmax, 0}
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				loopTr, batchTr, rhsTr := trace.New(), trace.New(), trace.New()
				loopOpts, batchOpts, rhsOpts := c.opts, c.opts, c.opts
				loopOpts.Trace, batchOpts.Trace, rhsOpts.Trace = loopTr, batchTr, rhsTr
				warmZ, warmU := make([][]float64, c.e), make([][]float64, c.e)
				// Half the columns also start the path from a non-nil z
				// with a nil u, the shape of a WarmBeta-seeded sweep.
				for e := 0; e < c.e; e += 2 {
					warmZ[e] = make([]float64, c.p)
					warmZ[e][e%c.p] = 0.3
				}
				converged, capped := 0, 0
				for _, lam := range lambdas {
					got := bp.f.SolveRHSBatch(bp.aty, lam, warmZ, warmU, &batchOpts, workers)
					if len(got) != c.e {
						t.Fatalf("λ=%v: %d results, want %d", lam, len(got), c.e)
					}
					for e := range got {
						o, ro := loopOpts, rhsOpts
						o.WarmZ, o.WarmU = warmZ[e], warmU[e]
						ro.WarmZ, ro.WarmU = warmZ[e], warmU[e]
						want := loopSolveRHS(bp.f, bp.cols[e], lam, &o)
						g := got[e]
						if diff := diffResult(&g, want); diff != "" {
							t.Fatalf("λ=%v col %d: SolveRHSBatch %s", lam, e, diff)
						}
						if diff := diffResult(bp.f.SolveRHS(bp.cols[e], lam, &ro), want); diff != "" {
							t.Fatalf("λ=%v col %d: SolveRHS %s", lam, e, diff)
						}
						if g.Converged {
							converged++
						} else {
							capped++
						}
					}
					for e := range got {
						warmZ[e], warmU[e] = got[e].Beta, got[e].U
					}
				}
				if c.name == "maxiter-cap" && (converged == 0 || capped == 0) {
					t.Fatalf("cap case must mix outcomes: %d converged, %d capped", converged, capped)
				}
				for _, name := range []string{"admm/solves", "admm/iters", "admm/chol_solves"} {
					if batchTr.Counter(name) != loopTr.Counter(name) || rhsTr.Counter(name) != loopTr.Counter(name) {
						t.Errorf("%s: batch booked %d, SolveRHS %d, loop %d", name, batchTr.Counter(name), rhsTr.Counter(name), loopTr.Counter(name))
					}
				}
			})
		}
	}
}

// TestSolveRHSBatchToReusesPairsIdentical: a λ path that alternates two
// result sets through SolveRHSBatchTo returns SolveRHSBatch's bits at every
// step, writes each step's pairs into the set it passed once that set holds
// pairs, and leaves the previous step's pairs — its warm starts — alone.
func TestSolveRHSBatchToReusesPairsIdentical(t *testing.T) {
	const p, e = 23, 11
	bp := makeBatchProblem(t, 7, 120, p, e, 0)
	lambdas := []float64{0.6 * bp.lmax, 0.3 * bp.lmax, 0.1 * bp.lmax, 0.01 * bp.lmax, 0}
	for _, workers := range []int{1, 3} {
		outs := [2][]Result{make([]Result, e), make([]Result, e)}
		warmZ, warmU := make([][]float64, e), make([][]float64, e)
		var prev [][]float64 // copies of the previous step's pairs
		for step, lam := range lambdas {
			want := bp.f.SolveRHSBatch(bp.aty, lam, warmZ, warmU, nil, workers)
			out := outs[step%2]
			held := make([]*float64, e)
			for c := range out {
				if out[c].Beta != nil {
					held[c] = &out[c].Beta[0]
				}
			}
			bp.f.SolveRHSBatchTo(out, bp.aty, lam, warmZ, warmU, nil, workers)
			for c := range out {
				if diff := diffResult(&out[c], &want[c]); diff != "" {
					t.Fatalf("workers=%d λ=%v col %d: %s", workers, lam, c, diff)
				}
				if held[c] != nil && held[c] != &out[c].Beta[0] {
					t.Fatalf("workers=%d step %d col %d: the pair was not reused", workers, step, c)
				}
				if prev != nil && (!sameBits(warmZ[c], prev[2*c]) || !sameBits(warmU[c], prev[2*c+1])) {
					t.Fatalf("workers=%d step %d col %d: the warm start changed under the solve", workers, step, c)
				}
			}
			prev = prev[:0]
			for c := range out {
				warmZ[c], warmU[c] = out[c].Beta, out[c].U
				prev = append(prev, append([]float64(nil), out[c].Beta...), append([]float64(nil), out[c].U...))
			}
		}
	}
}

// TestSolveRHSBatchEmptyAndShape: zero columns is a no-op, a panel of the
// wrong height a programming error.
func TestSolveRHSBatchEmptyAndShape(t *testing.T) {
	bp := makeBatchProblem(t, 1, 30, 5, 2, 0)
	if got := bp.f.SolveRHSBatch(mat.NewDense(5, 0), 0.1, nil, nil, nil, 4); len(got) != 0 {
		t.Fatalf("empty panel returned %d results", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panel with the wrong row count must panic")
		}
	}()
	bp.f.SolveRHSBatch(mat.NewDense(4, 2), 0.1, nil, nil, nil, 1)
}

// BenchmarkSolveRHSBatch times one warm-chained λ path (8 values) over all
// responses of a shared design at the benchmark's two VAR shapes: the
// per-equation SolveRHS loop against the batched solve on one and two
// column groups.
func BenchmarkSolveRHSBatch(b *testing.B) {
	for _, shape := range []struct{ p, e int }{{61, 60}, {41, 40}} {
		bp := makeBatchProblem(b, 9, 540, shape.p, shape.e, 0)
		lambdas := LogSpaceLambdas(bp.lmax, 1e-3, 8)
		name := fmt.Sprintf("p%d-e%d", shape.p, shape.e)
		b.Run(name+"/loop", func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				for e := 0; e < shape.e; e++ {
					var wz, wu []float64
					for _, lam := range lambdas {
						r := bp.f.SolveRHS(bp.cols[e], lam, &Options{WarmZ: wz, WarmU: wu})
						wz, wu = r.Beta, r.U
					}
				}
			}
		})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/batch-w%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				warmZ, warmU := make([][]float64, shape.e), make([][]float64, shape.e)
				for it := 0; it < b.N; it++ {
					for e := range warmZ {
						warmZ[e], warmU[e] = nil, nil
					}
					for _, lam := range lambdas {
						for e, r := range bp.f.SolveRHSBatch(bp.aty, lam, warmZ, warmU, nil, workers) {
							warmZ[e], warmU[e] = r.Beta, r.U
						}
					}
				}
			})
		}
	}
}
