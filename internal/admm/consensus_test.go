package admm

import (
	"fmt"
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

func TestRowBlockPartition(t *testing.T) {
	for _, c := range []struct{ n, size int }{{10, 3}, {7, 7}, {100, 8}, {5, 1}, {3, 5}} {
		covered := 0
		prevHi := 0
		for r := 0; r < c.size; r++ {
			lo, hi := RowBlock(c.n, c.size, r)
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
		lo0, hi0 := RowBlock(c.n, c.size, 0)
		loL, hiL := RowBlock(c.n, c.size, c.size-1)
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
		lo, hi := RowBlock(x.Rows, c.Size(), c.Rank())
		xl := x.SubRows(lo, hi)
		yl := y[lo:hi]
		res, err := ConsensusLasso(c, xl, yl, lambda, opts)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
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
			objDist := Objective(x, y, dist.Beta, lambda)
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
		lo, hi := RowBlock(x.Rows, c.Size(), c.Rank())
		res, err := ConsensusLasso(c, x.SubRows(lo, hi), y[lo:hi], 2.0, nil)
		if err != nil {
			return err
		}
		betas[c.Rank()] = res.Beta
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
	want, _ := solveSPD(mat.AtA(x), mat.GramVec(x, y, mat.Sample{}))
	for i := range want {
		if math.Abs(dist.Beta[i]-want[i]) > 1e-4 {
			t.Fatalf("consensus OLS beta[%d] = %v, want %v", i, dist.Beta[i], want[i])
		}
	}
}

func TestConsensusCountsAllreduces(t *testing.T) {
	x, y, _ := makeRegression(14, 60, 5, 2, 0.1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		lo, hi := RowBlock(x.Rows, c.Size(), c.Rank())
		res, err := ConsensusLasso(c, x.SubRows(lo, hi), y[lo:hi], 1.0, nil)
		if err != nil {
			return err
		}
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
