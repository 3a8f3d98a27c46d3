package admm

import (
	"math"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

func TestOLSOnSupport(t *testing.T) {
	x, y, _ := makeRegression(51, 80, 10, 3, 0.1)
	support := []int{1, 4, 7}
	beta := OLSOnSupportWorkers(x, y, support, 0)
	// Off-support exactly zero.
	for i, v := range beta {
		onSup := i == 1 || i == 4 || i == 7
		if !onSup && v != 0 {
			t.Fatalf("off-support beta[%d] = %v", i, v)
		}
	}
	// Matches the closed-form restricted OLS.
	sub := x.SelectCols(support)
	want, err := solveSPD(mat.AtA(sub), mat.GramVec(sub, y))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range support {
		if math.Abs(beta[j]-want[i]) > 1e-10 {
			t.Fatalf("beta[%d] = %v, want %v", j, beta[j], want[i])
		}
	}
	// Empty support → zero vector.
	z := OLSOnSupportWorkers(x, y, nil, 0)
	for _, v := range z {
		if v != 0 {
			t.Fatal("empty support must give zeros")
		}
	}
}

func TestOLSOnSupportRankDeficient(t *testing.T) {
	// Duplicate columns on the support: singular Gram → ridge fallback must
	// still return a finite solution.
	x, y, _ := makeRegression(52, 40, 6, 2, 0.1)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 1, x.At(i, 0)) // exact duplicate
	}
	beta := OLSOnSupportWorkers(x, y, []int{0, 1, 3}, 0)
	for _, v := range beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite fallback solution: %v", beta)
		}
	}
}

// TestOLSFromGramLadder walks the helper's three outcomes on Gram blocks
// handed in directly: a positive-definite block solves the normal equations,
// a singular block comes back finite through the ridge ladder, and a
// non-finite block yields an all-NaN estimate rather than a panic.
func TestOLSFromGramLadder(t *testing.T) {
	x, y, _ := makeRegression(53, 50, 4, 2, 0.1)
	gram, xty := mat.AtA(x), mat.GramVec(x, y)
	want, err := solveSPD(gram, xty)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range OLSFromGram(gram, xty) {
		if v != want[i] {
			t.Fatalf("PD block: beta[%d] = %v, want %v", i, v, want[i])
		}
	}
	singular := mat.NewDenseData(2, 2, []float64{1, 1, 1, 1})
	for i, v := range OLSFromGram(singular, []float64{1, 1}) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("singular block: beta[%d] = %v", i, v)
		}
	}
	poisoned := mat.NewDenseData(2, 2, []float64{math.NaN(), 0, 0, 1})
	for i, v := range OLSFromGram(poisoned, []float64{1, 1}) {
		if !math.IsNaN(v) {
			t.Fatalf("non-finite block: beta[%d] = %v, want NaN", i, v)
		}
	}
}

// ladderOracle is the ridge ladder on a gathered block through
// mat.Cholesky, a fresh factor per rung: the arithmetic OLSOnBlock must
// reproduce.
func ladderOracle(sub *mat.Dense, rhs []float64) []float64 {
	ch, err := mat.NewCholesky(sub)
	if err != nil {
		tr := 0.0
		for i := 0; i < sub.Rows; i++ {
			tr += sub.At(i, i)
		}
		ch, err = mat.NewCholesky(mat.AddRidge(sub, 1e-8*(tr/float64(sub.Rows)+1)))
		if err != nil {
			ch, err = mat.NewCholesky(mat.AddRidge(sub, 1.0))
		}
		if err != nil {
			sol := make([]float64, len(rhs))
			for i := range sol {
				sol[i] = math.NaN()
			}
			return sol
		}
	}
	return ch.Solve(rhs)
}

// TestOLSOnBlockMatchesGathered: solving a sub-block of a Gram in reused
// scratch gives, bit for bit, the ridge ladder on the gathered block — on
// every rung: positive definite, singular (a zero column takes the jitter),
// indefinite (only +1 factors) and non-finite — as does OLSFromGram, and
// the Gram is left untouched.
func TestOLSOnBlockMatchesGathered(t *testing.T) {
	x, y, _ := makeRegression(59, 40, 9, 3, 0.1)
	gram, xty := mat.AtA(x), mat.GramVec(x, y)
	for i := 0; i < 9; i++ {
		gram.Set(i, 8, 0)
		gram.Set(8, i, 0)
	}
	gram.Set(7, 7, -0.5)
	gram.Set(6, 6, math.NaN())
	before := gram.Clone()
	var scratch []float64
	for _, idx := range [][]int{{0, 3, 5}, {1}, {2, 4, 8}, {7}, {6, 0}, {0, 1, 2, 3, 4, 5}} {
		sub, rhs := mat.NewDense(len(idx), len(idx)), make([]float64, len(idx))
		for i, r := range idx {
			rhs[i] = xty[r]
			for j, c := range idx {
				sub.Set(i, j, gram.At(r, c))
			}
		}
		want := ladderOracle(sub, rhs)
		whole := OLSFromGram(sub, rhs)
		scratch = OLSOnBlock(gram, idx, rhs, scratch)
		for i := range want {
			for _, got := range []float64{rhs[i], whole[i]} {
				if math.Float64bits(got) != math.Float64bits(want[i]) && !(math.IsNaN(got) && math.IsNaN(want[i])) {
					t.Fatalf("block %v: beta[%d] = %v, gathered ladder %v", idx, i, got, want[i])
				}
			}
		}
	}
	for i := range gram.Data {
		if math.Float64bits(gram.Data[i]) != math.Float64bits(before.Data[i]) {
			t.Fatal("OLSOnBlock modified the Gram")
		}
	}
}

func TestSupportMask(t *testing.T) {
	m := SupportMask(5, []int{0, 3})
	want := []bool{true, false, false, true, false}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("mask = %v", m)
		}
	}
}

func TestConsensusSolveProjectedMatchesRestrictedOLS(t *testing.T) {
	x, y, _ := makeRegression(53, 120, 8, 3, 0.1)
	support := []int{0, 2, 5}
	want := OLSOnSupportWorkers(x, y, support, 0)
	mask := SupportMask(8, support)
	const ranks = 3
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		s, err := NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 0)
		if err != nil {
			return err
		}
		res := s.SolveProjected(mask, &Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
		for i := range want {
			if math.Abs(res.Beta[i]-want[i]) > 1e-4 {
				t.Errorf("beta[%d] = %v, want %v", i, res.Beta[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsensusOLSWrapper(t *testing.T) {
	x, y, _ := makeRegression(54, 90, 6, 6, 0.05)
	want, _ := solveSPD(mat.AtA(x), mat.GramVec(x, y))
	err := mpi.Run(2, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		s, err := NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 0)
		if err != nil {
			return err
		}
		res := s.Solve(0, &Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
		for i := range want {
			if math.Abs(res.Beta[i]-want[i]) > 1e-4 {
				t.Errorf("consensus OLS beta[%d] = %v, want %v", i, res.Beta[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsensusElasticMatchesSerialElastic(t *testing.T) {
	x, y, _ := makeRegression(55, 100, 10, 3, 0.2)
	const lambda1, lambda2 = 2.0, 8.0
	serial := CoordinateDescentElasticNet(x, y, lambda1, lambda2, 8000, 1e-11)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		xl, yl := x.SubRows(lo, hi), y[lo:hi]
		s, err := NewConsensusSolverGram(c, mat.AtA(xl), mat.GramVec(xl, yl), 0, lambda2, 0)
		if err != nil {
			return err
		}
		res := s.Solve(lambda1, &Options{MaxIter: 8000, AbsTol: 1e-9, RelTol: 1e-7})
		for i := range serial.Beta {
			if math.Abs(res.Beta[i]-serial.Beta[i]) > 5e-3 {
				t.Errorf("beta[%d] = %v, serial %v", i, res.Beta[i], serial.Beta[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
