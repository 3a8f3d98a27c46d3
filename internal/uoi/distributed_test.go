package uoi

import (
	"fmt"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
)

// shuffleRows randomizes row ownership the way RandomizedDistribute does,
// so per-rank local bootstraps are valid.
func shuffledBlocks(seed uint64, x [][]float64, y []float64, cols, ranks int) ([][]float64, [][]float64) {
	rng := resample.NewRNG(seed)
	perm := rng.Perm(len(x))
	xs := make([][]float64, ranks)
	ys := make([][]float64, ranks)
	per := len(x) / ranks
	for slot, src := range perm {
		r := slot / per
		if r >= ranks {
			r = ranks - 1
		}
		xs[r] = append(xs[r], x[src]...)
		ys[r] = append(ys[r], y[src])
	}
	return xs, ys
}

func TestLassoDistributedRecoversModel(t *testing.T) {
	x, y, trueBeta := makeRegression(31, 160, 20, 4, 0.3)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	for _, grid := range []GridShape{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		const ranks = 4
		xs, ys := shuffledBlocks(7, rows, y, x.Cols, ranks)
		results := make([]*Result, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			xl := denseFromRows(xs[c.Rank()], x.Cols)
			res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 3}, Placement{Comm: c, Shape: grid, Partitioned: true}))
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			return nil
		})
		if err != nil {
			t.Fatalf("grid %+v: %v", grid, err)
		}
		// All ranks agree exactly.
		for r := 1; r < ranks; r++ {
			for i := range results[0].Beta {
				if results[r].Beta[i] != results[0].Beta[i] {
					t.Fatalf("grid %+v: rank %d disagrees at %d", grid, r, i)
				}
			}
		}
		sel := metrics.CompareSupports(trueBeta, results[0].Beta, 1e-6)
		if sel.FalseNegatives != 0 {
			t.Fatalf("grid %+v: missed features %+v", grid, sel)
		}
		selMag := metrics.CompareSupports(trueBeta, results[0].Beta, 0.05)
		if selMag.FalsePositives > 3 {
			t.Fatalf("grid %+v: material FPs %+v", grid, selMag)
		}
	}
}

func TestLassoDistributedGridValidation(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		xl := denseFromRows(make([]float64, 5*4), 4)
		_, err := Lasso(xl, make([]float64, 5), lassoOn(&LassoConfig{B1: 2, B2: 2, Q: 3}, Placement{Comm: c, Shape: GridShape{2, 1}, Partitioned: true}))
		if err == nil {
			return fmt.Errorf("indivisible grid must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLassoDistributedDeterministic(t *testing.T) {
	x, y, _ := makeRegression(32, 80, 10, 3, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	xs, ys := shuffledBlocks(5, rows, y, x.Cols, 2)
	run := func() []float64 {
		var out []float64
		err := mpi.Run(2, func(c *mpi.Comm) error {
			xl := denseFromRows(xs[c.Rank()], x.Cols)
			res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 4, B2: 3, Q: 5, Seed: 9}, Placement{Comm: c, Partitioned: true}))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = res.Beta
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("distributed UoI must be deterministic in seed")
		}
	}
}

func TestLassoDistributedMatchesSerialQuality(t *testing.T) {
	// Serial and distributed use different bootstrap realizations, but both
	// must recover the same support and comparable estimates.
	x, y, trueBeta := makeRegression(33, 200, 15, 4, 0.3)
	serial, err := Lasso(x, y, &LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	xs, ys := shuffledBlocks(11, rows, y, x.Cols, 4)
	var dist []float64
	err = mpi.Run(4, func(c *mpi.Comm) error {
		xl := denseFromRows(xs[c.Rank()], x.Cols)
		res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 5}, Placement{Comm: c, Partitioned: true}))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			dist = res.Beta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tv := range trueBeta {
		if tv != 0 {
			if diff := serial.Beta[i] - dist[i]; diff > 0.25 || diff < -0.25 {
				t.Fatalf("serial %v vs distributed %v at true coef %d", serial.Beta[i], dist[i], i)
			}
		}
	}
}

func TestLassoDistributedCommunicationDominatedByAllreduce(t *testing.T) {
	// The paper: >99% of communication time is MPI_Allreduce from
	// LASSO-ADMM. Structurally: collective calls must vastly outnumber p2p.
	x, y, _ := makeRegression(34, 60, 8, 2, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	xs, ys := shuffledBlocks(3, rows, y, x.Cols, 2)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		xl := denseFromRows(xs[c.Rank()], x.Cols)
		if _, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 3, B2: 2, Q: 4, Seed: 2}, Placement{Comm: c, Partitioned: true})); err != nil {
			return err
		}
		c.Barrier()
		s := c.GlobalStats()
		if s.Calls[mpi.CatCollective] < 100*s.Calls[mpi.CatP2P] {
			return fmt.Errorf("collective %d vs p2p %d calls", s.Calls[mpi.CatCollective], s.Calls[mpi.CatP2P])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func denseFromRows(flat []float64, cols int) *mat.Dense {
	return mat.NewDenseData(len(flat)/cols, cols, flat)
}
