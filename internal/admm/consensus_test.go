package admm

import (
	"fmt"
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

func TestRowBlockPartition(t *testing.T) {
	for _, c := range []struct{ n, size int }{{10, 3}, {7, 7}, {100, 8}, {5, 1}, {3, 5}} {
		covered := 0
		prevHi := 0
		for r := 0; r < c.size; r++ {
			lo, hi := mpi.RowBlock(c.n, c.size, r)
			if lo != prevHi {
				t.Fatalf("n=%d size=%d: rank %d starts at %d, want %d", c.n, c.size, r, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative block")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n || prevHi != c.n {
			t.Fatalf("n=%d size=%d: covered %d rows", c.n, c.size, covered)
		}
		// Balance: blocks differ by at most one row.
		lo0, hi0 := mpi.RowBlock(c.n, c.size, 0)
		loL, hiL := mpi.RowBlock(c.n, c.size, c.size-1)
		if (hi0-lo0)-(hiL-loL) > 1 {
			t.Fatalf("imbalance: first %d last %d", hi0-lo0, hiL-loL)
		}
	}
}

// runConsensus distributes (x, y) by row blocks over nRanks and solves.
func runConsensus(t *testing.T, x *mat.Dense, y []float64, lambda float64, nRanks int, opts *Options) *Result {
	t.Helper()
	results := make([]*Result, nRanks)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		xl := x.SubRows(lo, hi)
		yl := y[lo:hi]
		s, err := NewConsensusSolverWorkers(c, xl, yl, 0, 0)
		if err != nil {
			return err
		}
		results[c.Rank()] = s.Solve(lambda, opts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestConsensusMatchesSerialLasso(t *testing.T) {
	x, y, _ := makeRegression(11, 120, 10, 4, 0.2)
	for _, nRanks := range []int{1, 2, 4, 6} {
		for _, lambda := range []float64{0, 1.5, 6} {
			dist := runConsensus(t, x, y, lambda, nRanks, &Options{MaxIter: 6000, AbsTol: 1e-9, RelTol: 1e-7})
			serial := CoordinateDescentLasso(x, y, lambda, 8000, 1e-11)
			objDist := Objective(x, y, dist.Beta, lambda, 0)
			if math.Abs(objDist-serial.Objective) > 5e-3*(1+serial.Objective) {
				t.Fatalf("ranks=%d λ=%v: dist obj %v vs serial %v", nRanks, lambda, objDist, serial.Objective)
			}
			for i := range dist.Beta {
				if math.Abs(dist.Beta[i]-serial.Beta[i]) > 5e-3 {
					t.Fatalf("ranks=%d λ=%v: beta[%d] %v vs %v", nRanks, lambda, i, dist.Beta[i], serial.Beta[i])
				}
			}
		}
	}
}

func TestConsensusAllRanksAgree(t *testing.T) {
	x, y, _ := makeRegression(12, 80, 6, 3, 0.1)
	const nRanks = 4
	betas := make([][]float64, nRanks)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		s, err := NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 0)
		if err != nil {
			return err
		}
		betas[c.Rank()] = s.Solve(2.0, nil).Beta
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nRanks; r++ {
		for i := range betas[0] {
			if betas[r][i] != betas[0][i] {
				t.Fatalf("rank %d disagrees at %d: %v vs %v", r, i, betas[r][i], betas[0][i])
			}
		}
	}
}

func TestConsensusOLS(t *testing.T) {
	x, y, _ := makeRegression(13, 90, 8, 8, 0.05)
	dist := runConsensus(t, x, y, 0, 3, &Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
	want, _ := solveSPD(mat.AtA(x), mat.GramVec(x, y))
	for i := range want {
		if math.Abs(dist.Beta[i]-want[i]) > 1e-4 {
			t.Fatalf("consensus OLS beta[%d] = %v, want %v", i, dist.Beta[i], want[i])
		}
	}
}

func TestConsensusCountsAllreduces(t *testing.T) {
	x, y, _ := makeRegression(14, 60, 5, 2, 0.1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		solver, err := NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 0)
		if err != nil {
			return err
		}
		res := solver.Solve(1.0, nil)
		if res.AllreduceN != res.Iters {
			return fmt.Errorf("AllreduceN=%d, Iters=%d", res.AllreduceN, res.Iters)
		}
		s := c.LocalStats()
		if s.Calls[mpi.CatCollective] < int64(res.Iters) {
			return fmt.Errorf("metered collectives %d < iters %d", s.Calls[mpi.CatCollective], res.Iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsensusLargeLambdaZero(t *testing.T) {
	x, y, _ := makeRegression(15, 100, 7, 3, 0.1)
	dist := runConsensus(t, x, y, LambdaMax(x, y)*1.1, 4, nil)
	for i, v := range dist.Beta {
		if math.Abs(v) > 1e-6 {
			t.Fatalf("beta[%d] = %v above λmax", i, v)
		}
	}
}

// consensusLoop is the LASSO consensus loop as it was before it became the
// one-equation case of the grouped loop, kept as the oracle of its bits: one
// XUpdate per iteration and the exact stopping test on every iteration.
// zUpdate consumes the Allreduced Σ(x+u) and the rank count.
func consensusLoop(comm *mpi.Comm, f *Factorization, aty []float64, opts *Options, zUpdate func(z, sumXU []float64, nRanks float64)) *Result {
	o := opts.defaults()
	nRanks := float64(comm.Size())
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
	buf := make([]float64, p+3)
	sqrtP := math.Sqrt(float64(p) * nRanks)

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		for i := range rhs {
			rhs[i] = aty[i] + float64(f.rho*(z[i]-u[i]))
		}
		f.XUpdate(x, rhs)

		var lp, lx, lu float64
		for i := 0; i < p; i++ {
			buf[i] = x[i] + u[i]
			d := x[i] - z[i]
			lp += float64(d * d)
			lx += float64(x[i] * x[i])
			lu += float64(u[i] * u[i])
		}
		buf[p], buf[p+1], buf[p+2] = lp, lx, lu
		comm.Allreduce(mpi.OpSum, buf)

		copy(zOld, z)
		zUpdate(z, buf[:p], nRanks)
		for i := range u {
			u[i] += x[i] - z[i]
		}

		primal = math.Sqrt(buf[p])
		dual = 0
		for i := range z {
			d := z[i] - zOld[i]
			dual += float64(d * d)
		}
		dual = f.rho * math.Sqrt(nRanks) * math.Sqrt(dual)
		normX := math.Sqrt(buf[p+1])
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		normU := math.Sqrt(buf[p+2])
		epsPrimal := float64(sqrtP*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		epsDual := float64(sqrtP*o.AbsTol) + float64(o.RelTol*f.rho*normU)
		if primal <= epsPrimal && dual <= epsDual {
			converged = true
			break
		}
	}
	countSolves(o.Trace, 1, iters, iters)
	return &Result{Beta: z, U: u, Iters: iters, Converged: converged, PrimalRes: primal, DualRes: dual, AllreduceN: iters}
}

// loopSolve and loopSolveProjected are Solve and SolveProjected of a
// one-equation ConsensusSolver on the oracle loop.
func loopSolve(s *ConsensusSolver, lambda float64, opts *Options) *Result {
	f := s.groups[0].f
	return consensusLoop(s.comm, f, s.aty[0], opts, func(z, sumXU []float64, k float64) {
		if lambda > 0 {
			kk := lambda / (f.rho * k)
			for i := range z {
				z[i] = SoftThreshold(sumXU[i]/k, kk)
			}
		} else {
			for i := range z {
				z[i] = sumXU[i] / k
			}
		}
	})
}

func loopSolveProjected(s *ConsensusSolver, support []bool, opts *Options) *Result {
	return consensusLoop(s.comm, s.groups[0].f, s.aty[0], opts, func(z, sumXU []float64, k float64) {
		for i := range z {
			if support[i] {
				z[i] = sumXU[i] / k
			} else {
				z[i] = 0
			}
		}
	})
}

// diffResult reports the first field in which two solve results differ by
// Float64bits, or "".
func diffResult(got, want *Result) string {
	switch {
	case got.Iters != want.Iters || got.Converged != want.Converged || got.AllreduceN != want.AllreduceN:
		return fmt.Sprintf("iters/converged/allreduces %d/%v/%d, want %d/%v/%d", got.Iters, got.Converged, got.AllreduceN, want.Iters, want.Converged, want.AllreduceN)
	case !sameBits([]float64{got.PrimalRes, got.DualRes}, []float64{want.PrimalRes, want.DualRes}):
		return fmt.Sprintf("residuals (%v, %v), want (%v, %v)", got.PrimalRes, got.DualRes, want.PrimalRes, want.DualRes)
	case !sameBits(got.Beta, want.Beta) || !sameBits(got.U, want.U):
		return "Beta/U differ"
	}
	return ""
}

// TestConsensusSolveMatchesLoop holds ConsensusSolver — the grouped
// consensus loop with one equation in one group, its x-update the GEMV case
// of XUpdatePanel and its stopping test screened — to the oracle loop bit
// for bit: Beta, U, Iters, Converged, AllreduceN and both residuals, and the
// solver counters, at 1–4 ranks × ρ {0.7, 31, auto} along a warm 5-λ path
// (λ ≥ λ_max first, λ = 0 last) at the default and a 3-iteration cap, then
// SolveProjected cold and warm; the auto-ρ solver also carries an
// elastic-net λ₂ through NewConsensusSolverGram.
func TestConsensusSolveMatchesLoop(t *testing.T) {
	x, y, _ := makeRegression(16, 150, 13, 4, 0.3)
	lmax := LambdaMax(x, y)
	lambdas := []float64{1.1 * lmax, 0.4 * lmax, 0.1 * lmax, 0.01 * lmax, 0}
	support := make([]bool, x.Cols)
	for i := range support {
		support[i] = i%3 != 1
	}
	converged, capped := 0, 0
	for ranks := 1; ranks <= 4; ranks++ {
		for _, rho := range []float64{0.7, 31, 0} {
			for _, maxIter := range []int{0, 3} {
				name := fmt.Sprintf("ranks%d/rho%v/maxiter%d", ranks, rho, maxIter)
				counts := make([][2]*trace.Tracer, ranks)
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
					xl, yl := x.SubRows(lo, hi), y[lo:hi]
					var s *ConsensusSolver
					var err error
					if rho > 0 {
						s, err = NewConsensusSolverWorkers(c, xl, yl, rho, 1)
					} else {
						s, err = NewConsensusSolverGram(c, mat.AtA(xl), mat.GramVec(xl, yl), 0, 3.5, 1)
					}
					if err != nil {
						return err
					}
					gotTr, wantTr := trace.New(), trace.New()
					counts[c.Rank()] = [2]*trace.Tracer{gotTr, wantTr}
					check := func(what string, got, want *Result) error {
						if diff := diffResult(got, want); diff != "" {
							return fmt.Errorf("rank %d, %s: %s", c.Rank(), what, diff)
						}
						if c.Rank() == 0 {
							if got.Converged {
								converged++
							} else {
								capped++
							}
						}
						return nil
					}
					var warm *Result
					for _, lam := range lambdas {
						o := Options{MaxIter: maxIter}
						if warm != nil {
							o.WarmZ, o.WarmU = warm.Beta, warm.U
						}
						og, ow := o, o
						og.Trace, ow.Trace = gotTr, wantTr
						got, want := s.Solve(lam, &og), loopSolve(s, lam, &ow)
						if err := check(fmt.Sprintf("Solve λ=%.3g·λmax", lam/lmax), got, want); err != nil {
							return err
						}
						warm = got
					}
					for _, o := range []Options{{MaxIter: maxIter}, {MaxIter: maxIter, WarmZ: warm.Beta, WarmU: warm.U}} {
						og, ow := o, o
						og.Trace, ow.Trace = gotTr, wantTr
						got, want := s.SolveProjected(support, &og), loopSolveProjected(s, support, &ow)
						if err := check("SolveProjected", got, want); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for r, tr := range counts {
					for _, key := range []string{"admm/solves", "admm/iters", "admm/chol_solves"} {
						if got, want := tr[0].Counter(key), tr[1].Counter(key); got != want {
							t.Errorf("%s rank %d: %s = %d, want %d", name, r, key, got, want)
						}
					}
				}
			}
		}
	}
	if converged == 0 || capped == 0 {
		t.Fatalf("cases must mix outcomes: %d converged, %d capped", converged, capped)
	}
}

// BenchmarkConsensusSolve is the consensus LASSO of dist_mix's LASSO job:
// 2 ranks over an 8192×160 design, each building its solver and sweeping a
// 10-λ warm path.
func BenchmarkConsensusSolve(b *testing.B) {
	const ranks = 2
	x, y, _ := makeRegression(17, 8192, 160, 12, 0.5)
	lambdas := LogSpaceLambdas(LambdaMax(x, y), 1e-2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
			s, err := NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 1)
			if err != nil {
				return err
			}
			var r *Result
			for _, lam := range lambdas {
				o := Options{}
				if r != nil {
					o.WarmZ, o.WarmU = r.Beta, r.U
				}
				r = s.Solve(lam, &o)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
