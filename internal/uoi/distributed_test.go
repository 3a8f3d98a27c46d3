package uoi

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"uoivar/internal/distio"
	"uoivar/internal/fault"
	"uoivar/internal/hbf"
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
	const ranks = 4
	xs, ys := shuffledBlocks(7, rows, y, x.Cols, ranks)
	// The shared statistics take no grid shape; the consensus baseline
	// runs every P_B × P_λ decomposition of the four ranks.
	for _, assembly := range []Assembly{Shared, ConsensusADMM} {
		grids := []GridShape{{1, 1}}
		if assembly == ConsensusADMM {
			grids = []GridShape{{1, 1}, {2, 1}, {1, 2}, {2, 2}}
		}
		for _, grid := range grids {
			where := fmt.Sprintf("assembly %d grid %+v", assembly, grid)
			results := make([]*Result, ranks)
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				xl := denseFromRows(xs[c.Rank()], x.Cols)
				res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 3}, Placement{Comm: c, Shape: grid, Partitioned: true, Assembly: assembly}))
				if err != nil {
					return err
				}
				results[c.Rank()] = res
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			// All ranks agree exactly.
			for r := 1; r < ranks; r++ {
				for i := range results[0].Beta {
					if results[r].Beta[i] != results[0].Beta[i] {
						t.Fatalf("%s: rank %d disagrees at %d", where, r, i)
					}
				}
			}
			sel := metrics.CompareSupports(trueBeta, results[0].Beta, 1e-6)
			if sel.FalseNegatives != 0 {
				t.Fatalf("%s: missed features %+v", where, sel)
			}
			selMag := metrics.CompareSupports(trueBeta, results[0].Beta, 0.05)
			if selMag.FalsePositives > 3 {
				t.Fatalf("%s: material FPs %+v", where, selMag)
			}
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
		if _, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 3, B2: 2, Q: 4, Seed: 2}, Placement{Comm: c, Partitioned: true, Assembly: ConsensusADMM})); err != nil {
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

// TestLassoPartitionedMatchesSerial: a partitioned UoI_LASSO fit at the
// default Assembly is the serial fit of the rank-order concatenation of its
// row blocks — bit for bit on one rank, and on more up to the rounding of
// the statistics' cross-rank sums, with the same supports and bits that do
// not move with the kernel budget.
func TestLassoPartitionedMatchesSerial(t *testing.T) {
	x, y, _ := makeRegression(35, 240, 16, 4, 0.3)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	plan := fault.NewPlan(1, fault.Event{Kind: fault.Bootstrap, Phase: "selection", K: 2}, fault.Event{Kind: fault.Bootstrap, Phase: "estimation", K: 1})
	configs := map[string]LassoConfig{
		"plain":  {B1: 6, B2: 4, Q: 6, LambdaRatio: 1e-2, Seed: 3},
		"std":    {B1: 6, B2: 4, Q: 6, LambdaRatio: 1e-2, Seed: 3, Standardize: true},
		"quorum": {B1: 6, B2: 4, Q: 6, LambdaRatio: 1e-2, Seed: 3, MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault},
	}
	// fit runs the partitioned fit of the blocks xs, ys and checks that every
	// rank returns the same Result.
	fit := func(name string, xs [][]float64, ys [][]float64, cfg LassoConfig) *Result {
		ranks := len(xs)
		results := make([]*Result, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			res, err := Lasso(denseFromRows(xs[c.Rank()], x.Cols), ys[c.Rank()], lassoOn(&cfg, Placement{Comm: c, Partitioned: true}))
			results[c.Rank()] = res
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := 1; r < ranks; r++ {
			assertBitsEqual(t, fmt.Sprintf("%s rank %d", name, r), results[r].Beta, results[0].Beta)
		}
		return results[0]
	}
	for _, cname := range []string{"plain", "std", "quorum"} {
		cfg := configs[cname]
		serial, err := Lasso(x, y, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One rank holds the data in file order: the serial bits.
		one := fit(cname+"/r1", [][]float64{x.Data}, [][]float64{y}, cfg)
		assertBitsEqual(t, cname+"/r1 beta", one.Beta, serial.Beta)
		assertBitsEqual(t, cname+"/r1 lambdas", one.Lambdas, serial.Lambdas)
		assertBitsEqual(t, cname+"/r1 intercept", []float64{one.Intercept}, []float64{serial.Intercept})
		if !reflect.DeepEqual(one.Supports, serial.Supports) || one.Bootstrap != serial.Bootstrap || one.Diag.LassoFits != serial.Diag.LassoFits || one.Diag.OLSFits != serial.Diag.OLSFits || one.Diag.ADMMIters != serial.Diag.ADMMIters {
			t.Fatalf("%s/r1: supports, bootstrap stats or work differ from serial", cname)
		}
		for _, ranks := range []int{2, 3, 4} {
			xs, ys := shuffledBlocks(uint64(ranks), rows, y, x.Cols, ranks)
			var flat, flatY []float64
			for r := range xs {
				flat, flatY = append(flat, xs[r]...), append(flatY, ys[r]...)
			}
			ref, err := Lasso(denseFromRows(flat, x.Cols), flatY, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for _, kw := range []int{1, 2, 3} {
				c := cfg
				c.KernelWorkers = kw
				name := fmt.Sprintf("%s/r%d kw=%d", cname, ranks, kw)
				res := fit(name, xs, ys, c)
				if first == nil {
					first = res
					assertClose(t, name, res.Beta, ref.Beta, 1e-9)
					if !reflect.DeepEqual(res.Supports, ref.Supports) || res.Bootstrap != ref.Bootstrap {
						t.Fatalf("%s: supports or bootstrap stats differ from the serial fit of the concatenation", name)
					}
					continue
				}
				assertBitsEqual(t, name+" vs kw=1", res.Beta, first.Beta)
			}
		}
	}
	// Contiguous blocks in file order: the serial fit of the file itself.
	path := filepath.Join(t.TempDir(), "reg.hbf")
	data := make([]float64, 0, x.Rows*(x.Cols+1))
	for i := 0; i < x.Rows; i++ {
		data = append(append(data, x.Row(i)...), y[i])
	}
	if _, err := hbf.Create(path, x.Rows, x.Cols+1, data, hbf.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := configs["plain"]
	serial, err := Lasso(x, y, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		block, err := distio.ConventionalDistribute(c, path)
		if err != nil {
			return err
		}
		xl, yl := block.XY()
		res, err := Lasso(xl, yl, lassoOn(&cfg, Placement{Comm: c, Partitioned: true}))
		if err != nil {
			return err
		}
		assertClose(t, fmt.Sprintf("conventional rank %d", c.Rank()), res.Beta, serial.Beta, 1e-9)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertClose fails unless a and b agree to within tol everywhere.
func assertClose(t *testing.T, label string, a, b []float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			t.Fatalf("%s: coefficient %d differs by %g (%v vs %v)", label, i, a[i]-b[i], a[i], b[i])
		}
	}
}

// BenchmarkLassoPartitioned times a partitioned UoI_LASSO fit at the
// dist_mix benchmark's lasso job shape (8192×160, B1 6, B2 3, Q 10, 2 ranks,
// one kernel worker each, randomized row blocks): the default shared
// statistics against the paper's consensus ADMM. It also reports the fit's
// mpi calls and megabytes, summed over the ranks.
func BenchmarkLassoPartitioned(b *testing.B) {
	x, y, _ := makeRegression(1100, 8192, 160, 12, 0.5)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 2
	xs, ys := shuffledBlocks(11, rows, y, x.Cols, ranks)
	cfg := &LassoConfig{B1: 6, B2: 3, Q: 10, Seed: 1, KernelWorkers: 1}
	for _, a := range []struct {
		name     string
		assembly Assembly
	}{{"shared-statistics", Shared}, {"consensus-admm", ConsensusADMM}} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			var calls, bytes int64
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					xl := denseFromRows(xs[c.Rank()], x.Cols)
					if _, err := Lasso(xl, ys[c.Rank()], lassoOn(cfg, Placement{Comm: c, Partitioned: true, Assembly: a.assembly})); err != nil {
						return err
					}
					c.Barrier()
					if c.Rank() == 0 {
						st := c.GlobalStats()
						n, by, _ := st.Total()
						calls, bytes = calls+n, bytes+by
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(calls)/float64(b.N), "mpi-calls/op")
			b.ReportMetric(float64(bytes)/1e6/float64(b.N), "mpi-MB/op")
		})
	}
}
