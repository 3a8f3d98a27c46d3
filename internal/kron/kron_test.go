package kron

import (
	"fmt"
	"math"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// buildSeries returns a small VAR series and its full design.
func buildSeries(seed uint64, p, d, n int) (*mat.Dense, *varsim.Design) {
	rng := resample.NewRNG(seed)
	model := varsim.GenerateStable(rng, p, d, nil)
	series := model.Simulate(rng.Derive(1), n, 20)
	return series, varsim.NewDesign(series, d, false)
}

// kronI is the dense oracle for the vectorized design I_p ⊗ X (eq. 9).
func kronI(x *mat.Dense, p int) *mat.Dense {
	out := mat.NewDense(p*x.Rows, p*x.Cols)
	for e := 0; e < p; e++ {
		for i := 0; i < x.Rows; i++ {
			copy(out.Row(e*x.Rows + i)[e*x.Cols:], x.Row(i))
		}
	}
	return out
}

// readerSlice builds reader r's contiguous design block from the series.
func readerSlice(series *mat.Dense, d int, m, nReaders, r int) *varsim.Design {
	lo, hi := readerBlock(m, nReaders, r)
	targets := make([]int, hi-lo)
	for i := range targets {
		targets[i] = d + lo + i
	}
	return varsim.NewDesignFromRows(series, d, false, targets)
}

func TestReaderBlockHelpers(t *testing.T) {
	for _, c := range []struct{ m, readers int }{{10, 3}, {7, 2}, {9, 9}, {4, 1}} {
		for i := 0; i < c.m; i++ {
			r := readerOfSample(c.m, c.readers, i)
			lo, hi := readerBlock(c.m, c.readers, r)
			if i < lo || i >= hi {
				t.Fatalf("m=%d readers=%d: sample %d → reader %d [%d,%d)", c.m, c.readers, i, r, lo, hi)
			}
		}
	}
}

func TestAssembleMatchesExplicitKron(t *testing.T) {
	p, d, n := 3, 1, 13
	series, full := buildSeries(41, p, d, n)
	m := full.X.Rows
	q := full.X.Cols
	explicit := kronI(full.X, p)
	vy := full.VecY()

	for _, cfg := range []struct{ ranks, readers int }{{4, 2}, {6, 1}, {3, 3}, {8, 4}} {
		blocks := make([]*VecBlock, cfg.ranks)
		err := mpi.Run(cfg.ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < cfg.readers {
				local = readerSlice(series, d, m, cfg.readers, c.Rank())
			}
			b, err := Assemble(c, local, cfg.readers)
			if err != nil {
				return err
			}
			blocks[c.Rank()] = b
			return nil
		})
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		// Stitch blocks back together and compare to the explicit operator.
		covered := 0
		for _, b := range blocks {
			if b.M != m || b.P != p || b.Q != q {
				t.Fatalf("cfg %+v: block shape %+v", cfg, b)
			}
			for r := 0; r < b.X.Rows; r++ {
				g := b.GLo + r
				j, i := g/m, g%m
				// The compact row must equal X row i.
				for cc := 0; cc < q; cc++ {
					if b.X.At(r, cc) != full.X.At(i, cc) {
						t.Fatalf("cfg %+v: row %d col %d mismatch", cfg, g, cc)
					}
					// And it must sit in column block j of the explicit operator.
					if explicit.At(g, j*q+cc) != b.X.At(r, cc) {
						t.Fatalf("cfg %+v: explicit mismatch at (%d,%d)", cfg, g, j*q+cc)
					}
				}
				if b.Y[r] != vy[g] {
					t.Fatalf("cfg %+v: vecY mismatch at %d", cfg, g)
				}
			}
			covered += b.X.Rows
		}
		if covered != m*p {
			t.Fatalf("cfg %+v: covered %d rows, want %d", cfg, covered, m*p)
		}
	}
}

func TestAssembleCommAvoidingIdenticalResult(t *testing.T) {
	p, d, n := 4, 2, 12
	series, full := buildSeries(42, p, d, n)
	m := full.X.Rows
	// Two ranks over p=4 equations: each rank's slice spans two equations,
	// so every sample row is needed twice and de-duplication halves the Gets.
	const ranks, readers = 2, 2
	var bytesNaive, bytesDedup int64
	run := func(dedup bool) []*VecBlock {
		blocks := make([]*VecBlock, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < readers {
				local = readerSlice(series, d, m, readers, c.Rank())
			}
			var b *VecBlock
			var err error
			if dedup {
				b, err = AssembleCommAvoiding(c, local, readers)
			} else {
				b, err = Assemble(c, local, readers)
			}
			if err != nil {
				return err
			}
			blocks[c.Rank()] = b
			c.Barrier()
			if c.Rank() == 0 {
				g := c.GlobalStats()
				if dedup {
					bytesDedup = g.Bytes[mpi.CatOneSided]
				} else {
					bytesNaive = g.Bytes[mpi.CatOneSided]
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	a := run(false)
	b := run(true)
	for r := range a {
		if a[r].GLo != b[r].GLo || a[r].GHi != b[r].GHi {
			t.Fatal("row ranges differ")
		}
		for i := range a[r].Y {
			if a[r].Y[i] != b[r].Y[i] {
				t.Fatal("Y differs between strategies")
			}
		}
		if !a[r].X.Equal(b[r].X, 0) {
			t.Fatal("X differs between strategies")
		}
	}
	if bytesDedup >= bytesNaive {
		t.Fatalf("comm-avoiding assembly must move fewer bytes: %d vs %d", bytesDedup, bytesNaive)
	}
}

func TestAssembleValidation(t *testing.T) {
	series, full := buildSeries(43, 2, 1, 8)
	m := full.X.Rows
	err := mpi.Run(2, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < 1 {
			local = readerSlice(series, 1, m, 1, 0)
		}
		if _, err := Assemble(c, local, 0); err == nil {
			return fmt.Errorf("nReaders=0 must fail")
		}
		if _, err := Assemble(c, local, 3); err == nil {
			return fmt.Errorf("nReaders>size must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The end-to-end check: distributed consensus LASSO on the assembled
// vectorized problem must match a serial LASSO on the explicit (I⊗X) dense
// design.
func TestVecConsensusMatchesSerial(t *testing.T) {
	p, d, n := 3, 1, 20
	series, full := buildSeries(44, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()

	for _, lambda := range []float64{0, 0.8, 3} {
		serial := admm.CoordinateDescentLasso(explicit, vy, lambda, 8000, 1e-11)
		const ranks, readers = 4, 2
		betas := make([][]float64, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < readers {
				local = readerSlice(series, d, m, readers, c.Rank())
			}
			b, err := Assemble(c, local, readers)
			if err != nil {
				return err
			}
			f, err := NewVecFactorizationWorkers(b, 1, 0)
			if err != nil {
				return err
			}
			res := f.Solve(c, lambda, &admm.Options{MaxIter: 6000, AbsTol: 1e-9, RelTol: 1e-7})
			betas[c.Rank()] = res.Beta
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Beta {
			if math.Abs(betas[0][i]-serial.Beta[i]) > 5e-3 {
				t.Fatalf("λ=%v: beta[%d] = %v, serial %v", lambda, i, betas[0][i], serial.Beta[i])
			}
		}
		// All ranks agree exactly.
		for r := 1; r < ranks; r++ {
			for i := range betas[0] {
				if betas[r][i] != betas[0][i] {
					t.Fatalf("rank %d disagrees", r)
				}
			}
		}
	}
}

func TestVecBlockHelpers(t *testing.T) {
	b := &VecBlock{GLo: 7, GHi: 12, M: 5, P: 4, Q: 3}
	if b.Equation(0) != 1 {
		t.Fatalf("Equation wrong: %d", b.Equation(0))
	}
	if b.GlobalRows() != 20 || b.GlobalCols() != 12 {
		t.Fatal("global dims wrong")
	}
}

func TestLocalSquaredError(t *testing.T) {
	p, d, n := 3, 1, 15
	series, full := buildSeries(45, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()
	beta := make([]float64, explicit.Cols)
	rng := resample.NewRNG(9)
	for i := range beta {
		beta[i] = rng.NormFloat64()
	}
	r := mat.Sub(mat.MulVec(explicit, beta), vy)
	want := 0.5 * mat.Dot(r, r)

	const ranks, readers = 3, 1
	total := 0.0
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < readers {
			local = readerSlice(series, d, m, readers, c.Rank())
		}
		b, err := Assemble(c, local, readers)
		if err != nil {
			return err
		}
		sum := c.AllreduceScalar(mpi.OpSum, b.LocalSquaredError(beta))
		if c.Rank() == 0 {
			total = sum
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-want) > 1e-8*(1+want) {
		t.Fatalf("squared error %v, want %v", total, want)
	}
}

// SolveProjected must match serial OLS restricted to the same support on
// the explicit Kronecker design.
func TestVecSolveProjectedMatchesSerialOLS(t *testing.T) {
	p, d, n := 3, 1, 18
	series, full := buildSeries(46, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()
	qTot := explicit.Cols
	// A support spanning two equations.
	support := []int{0, 2, 4, 7}
	mask := make([]bool, qTot)
	for _, j := range support {
		mask[j] = true
	}
	want := admm.OLSOnSupportWorkers(explicit, vy, support, 0)

	const ranks, readers = 3, 1
	var got []float64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < readers {
			local = readerSlice(series, d, m, readers, c.Rank())
		}
		b, err := Assemble(c, local, readers)
		if err != nil {
			return err
		}
		f, err := NewVecFactorizationWorkers(b, GlobalRho(c, b), 0)
		if err != nil {
			return err
		}
		r := f.SolveProjected(c, mask, &admm.Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
		if c.Rank() == 0 {
			got = r.Beta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-4 {
			t.Fatalf("projected OLS beta[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Off-support coordinates are exactly zero.
	for i, v := range got {
		if !mask[i] && v != 0 {
			t.Fatalf("off-support coordinate %d = %v", i, v)
		}
	}
}
