package uoi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"uoivar/internal/fault"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// chaosDeadline bounds every chaos run: the invariant under test is that a
// faulted pipeline always terminates — typed error or degraded result —
// and never deadlocks.
const chaosDeadline = 60 * time.Second

// runBounded runs f under the chaos deadline, failing the test on a hang.
func runBounded(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(chaosDeadline):
		t.Fatal("chaos run deadlocked")
		return nil
	}
}

// typedOutcome reports whether err belongs to the fault-tolerance error
// taxonomy — every chaos failure must be attributable.
func typedOutcome(err error) bool {
	for _, sentinel := range []error{
		mpi.ErrRankFailed, mpi.ErrTimeout, ErrQuorum, fault.ErrInjected,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

func TestSerialQuorumDegradedFit(t *testing.T) {
	x, y, _ := makeRegression(40, 120, 12, 3, 0.2)
	plan := fault.NewPlan(1,
		fault.Event{Kind: fault.Bootstrap, Phase: "selection", K: 2},
		fault.Event{Kind: fault.Bootstrap, Phase: "estimation", K: 1},
	)
	cfg := &LassoConfig{B1: 8, B2: 4, Q: 6, Seed: 3, MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault}
	res, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatalf("degraded fit failed: %v", err)
	}
	want := BootstrapStats{B1Completed: 7, B1Failed: 1, B2Completed: 3, B2Failed: 1}
	if res.Bootstrap != want {
		t.Fatalf("stats = %+v, want %+v", res.Bootstrap, want)
	}
	if len(res.Beta) != x.Cols {
		t.Fatalf("degraded Beta has %d coefficients, want %d", len(res.Beta), x.Cols)
	}
	// The same schedule in strict mode fails the whole fit, typed.
	strict := *cfg
	strict.MinBootstrapFrac = 0
	if _, err := Lasso(x, y, &strict); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("strict mode: err = %v, want fault.ErrInjected", err)
	}
}

func TestSerialQuorumNotMet(t *testing.T) {
	x, y, _ := makeRegression(41, 60, 6, 2, 0.2)
	events := make([]fault.Event, 3)
	for k := range events {
		events[k] = fault.Event{Kind: fault.Bootstrap, Phase: "estimation", K: k}
	}
	plan := fault.NewPlan(1, events...)
	cfg := &LassoConfig{B1: 4, B2: 3, Q: 4, Seed: 3, MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault}
	_, err := Lasso(x, y, cfg)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal("quorum error must join the underlying bootstrap failures")
	}
}

func TestSerialQuorumDeterministicAcrossWorkers(t *testing.T) {
	x, y, _ := makeRegression(42, 80, 8, 2, 0.2)
	plan := fault.NewPlan(1, fault.Event{Kind: fault.Bootstrap, Phase: "selection", K: 1})
	run := func(workers int) *Result {
		res, err := Lasso(x, y, &LassoConfig{
			B1: 6, B2: 3, Q: 5, Seed: 7, Workers: workers,
			MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Bootstrap != b.Bootstrap {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", a.Bootstrap, b.Bootstrap)
	}
	for i := range a.Beta {
		if a.Beta[i] != b.Beta[i] {
			t.Fatalf("degraded Beta differs across worker counts at %d", i)
		}
	}
}

func TestDistributedQuorumDegradedFit(t *testing.T) {
	x, y, _ := makeRegression(43, 160, 10, 3, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(9, rows, y, x.Cols, ranks)
	plan := fault.NewPlan(ranks,
		fault.Event{Kind: fault.Bootstrap, Phase: "selection", K: 1},
		fault.Event{Kind: fault.Bootstrap, Phase: "estimation", K: 0},
	)
	for _, grid := range []GridShape{{1, 1}, {2, 1}, {2, 2}} {
		results := make([]*Result, ranks)
		err := runBounded(t, func() error {
			return mpi.Run(ranks, func(c *mpi.Comm) error {
				xl := denseFromRows(xs[c.Rank()], x.Cols)
				res, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{
					B1: 6, B2: 3, Q: 5, Seed: 11,
					MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault,
				}, Placement{Comm: c, Shape: grid, Partitioned: true, Assembly: ConsensusADMM}))
				if err != nil {
					return err
				}
				results[c.Rank()] = res
				return nil
			})
		})
		if err != nil {
			t.Fatalf("grid %+v: %v", grid, err)
		}
		want := BootstrapStats{B1Completed: 5, B1Failed: 1, B2Completed: 2, B2Failed: 1}
		for r := 0; r < ranks; r++ {
			if results[r].Bootstrap != want {
				t.Fatalf("grid %+v rank %d: stats %+v, want %+v", grid, r, results[r].Bootstrap, want)
			}
			for i := range results[0].Beta {
				if results[r].Beta[i] != results[0].Beta[i] {
					t.Fatalf("grid %+v: rank %d disagrees at %d", grid, r, i)
				}
			}
		}
	}
}

func TestDistributedQuorumNotMetIsCollectiveSafe(t *testing.T) {
	// Every rank must reach the same ErrQuorum verdict and unwind together
	// — quorum failure is a result, not a deadlock.
	x, y, _ := makeRegression(44, 80, 6, 2, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(3, rows, y, x.Cols, ranks)
	events := make([]fault.Event, 3)
	for k := range events {
		events[k] = fault.Event{Kind: fault.Bootstrap, Phase: "estimation", K: k}
	}
	plan := fault.NewPlan(ranks, events...)
	err := runBounded(t, func() error {
		return mpi.Run(ranks, func(c *mpi.Comm) error {
			xl := denseFromRows(xs[c.Rank()], x.Cols)
			_, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{
				B1: 4, B2: 3, Q: 4, Seed: 5,
				MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault,
			}, Placement{Comm: c, Shape: GridShape{2, 1}, Partitioned: true, Assembly: ConsensusADMM}))
			if !errors.Is(err, ErrQuorum) {
				return fmt.Errorf("rank %d: err = %v, want ErrQuorum", c.Rank(), err)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosSeededSchedules is the capstone: random-but-seeded fault
// schedules (crashes, stragglers, delays, bootstrap failures) run through
// the full distributed UoI pipeline. Every run must terminate within the
// deadline in either a typed error or a valid degraded result, and
// replaying a seed must reproduce the outcome bit-identically.
func TestChaosSeededSchedules(t *testing.T) {
	x, y, _ := makeRegression(50, 120, 8, 2, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(13, rows, y, x.Cols, ranks)

	nSeeds := 12
	if testing.Short() {
		nSeeds = 4
	}
	for seed := uint64(1); seed <= uint64(nSeeds); seed++ {
		newPlan := func() *fault.Plan {
			return fault.Generate(seed, ranks, fault.GenOptions{
				PCrash: 0.4, PStraggle: 0.5, PDelay: 0.5, PBootstrap: 0.6,
				MaxOp: 80, MaxDelay: 2 * time.Millisecond, MaxBootstraps: 3,
			})
		}
		run := func() string {
			plan := newPlan()
			var fingerprint string
			err := runBounded(t, func() error {
				return mpi.RunWithOptions(ranks, mpi.RunOptions{
					CollectiveTimeout: 20 * time.Second,
					Fault:             plan,
				}, func(c *mpi.Comm) error {
					res, err := Lasso(denseFromRows(xs[c.Rank()], x.Cols), ys[c.Rank()], lassoOn(&LassoConfig{
						B1: 4, B2: 3, Q: 4, Seed: 9,
						MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault,
					}, Placement{Comm: c, Shape: GridShape{2, 1}, Partitioned: true, Assembly: ConsensusADMM}))
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						fingerprint = fmt.Sprintf("ok %+v beta %x", res.Bootstrap, float64Bits(res.Beta))
					}
					return nil
				})
			})
			if err != nil {
				if !typedOutcome(err) {
					t.Fatalf("seed %d (%v): untyped failure: %v", seed, plan, err)
				}
				return "err " + err.Error()
			}
			return fingerprint
		}
		first := run()
		if replay := run(); replay != first {
			t.Fatalf("seed %d (%v): outcome not reproducible:\n  first:  %s\n  replay: %s", seed, newPlan(), first, replay)
		}
	}
}

// TestChaosVARCrash drives the VAR pipeline — windows, Kron assembly,
// consensus ADMM — through a rank crash: it must unwind into a typed error
// on every rank, never hang in a window fence or barrier.
func TestChaosVARCrash(t *testing.T) {
	_, series := makeVARData(53, 4, 1, 160)
	const ranks = 4
	run := func() string {
		plan := fault.NewPlan(ranks, fault.Event{Kind: fault.Crash, Rank: 2, Op: 25})
		err := runBounded(t, func() error {
			return mpi.RunWithOptions(ranks, mpi.RunOptions{
				CollectiveTimeout: 20 * time.Second,
				Fault:             plan,
			}, func(c *mpi.Comm) error {
				_, err := VAR(series, varOn(&VARConfig{Order: 1, B1: 3, B2: 2, Q: 3, Seed: 5}, Placement{Comm: c, Partitioned: true, Assembly: KroneckerGets}))
				return err
			})
		})
		if !errors.Is(err, mpi.ErrRankFailed) || !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("err = %v, want ErrRankFailed wrapping the injected crash", err)
		}
		return err.Error()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("VAR crash outcome not reproducible:\n  first:  %s\n  replay: %s", a, b)
	}
}

// TestChaosVARSharedSeriesCrash drives the default partitioned VAR — the
// series broadcast, then the serial problem on the grid — through a crash of
// rank 3, a non-reader, at two points: while it awaits the series, and in
// the middle of selection. Each must unwind into a typed error on every
// rank, identical on replay, never a hang. A reader without the series
// fails the agreement before the broadcast.
func TestChaosVARSharedSeriesCrash(t *testing.T) {
	_, series := makeVARData(53, 4, 1, 160)
	const ranks, readers = 4, 1
	// Two groups of two ranks, so ranks 0 and 2 are the readers. Rank 3's
	// comm ops: the grid's row Split (an Allgather and two barriers, 0–2),
	// the agreement that every reader holds the series (3), its shape (4),
	// the series (5), then selection: on the 2×2 grid the 1×2 shape
	// becomes, rank 3 receives bootstrap 1's four warm-start chains (6–9).
	for _, tc := range []struct {
		name    string
		op      int
		reached string // a phase rank 0 completes before the crash ("": none)
		missed  string // a phase the crash keeps rank 0 from completing
	}{
		{"series broadcast", 5, "", "kron_assembly"},
		{"selection", 7, "lambda_grid", "intersection"},
	} {
		run := func() string {
			plan := fault.NewPlan(ranks, fault.Event{Kind: fault.Crash, Rank: 3, Op: tc.op})
			tr := trace.New()
			err := runBounded(t, func() error {
				return mpi.RunWithOptions(ranks, mpi.RunOptions{CollectiveTimeout: 20 * time.Second, Fault: plan}, func(c *mpi.Comm) error {
					var s *mat.Dense
					cfg := &VARConfig{Order: 1, B1: 3, B2: 2, Q: 3, Seed: 5}
					if c.Rank()%2 < readers {
						s = series
					}
					if c.Rank() == 0 {
						cfg.Trace = tr
					}
					_, err := VAR(s, varOn(cfg, Placement{Comm: c, Partitioned: true, NReaders: readers, Shape: GridShape{1, 2}}))
					return err
				})
			})
			if !errors.Is(err, mpi.ErrRankFailed) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: err = %v, want ErrRankFailed wrapping the injected crash", tc.name, err)
			}
			phases := topLevel(tr)
			if _, ok := phases[tc.reached]; tc.reached != "" && !ok {
				t.Fatalf("%s: rank 0 never completed %s (phases %v)", tc.name, tc.reached, phases)
			}
			if _, ok := phases[tc.missed]; ok {
				t.Fatalf("%s: rank 0 completed %s: the crash came too late", tc.name, tc.missed)
			}
			return err.Error()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s: crash outcome not reproducible:\n  first:  %s\n  replay: %s", tc.name, a, b)
		}
	}
	err := runBounded(t, func() error {
		return mpi.Run(ranks, func(c *mpi.Comm) error {
			var s *mat.Dense
			if c.Rank() == 0 {
				s = series // rank 1, the group's second reader, passes nil
			}
			_, err := VAR(s, varOn(&VARConfig{B1: 2, B2: 2, Q: 3}, Placement{Comm: c, Partitioned: true, NReaders: 2}))
			if err == nil || !strings.Contains(err.Error(), "reader rank(s) missing the series") {
				return fmt.Errorf("rank %d: err = %v, want the missing-series error", c.Rank(), err)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosLassoStatisticsCrash kills a rank of a partitioned UoI_LASSO fit
// at the default Assembly in the middle of a statistics Allreduce: every
// rank must unwind into a typed error, identical on replay, never a hang.
// Rank 3's comm ops: the grid's row Split (0–2), the row-block agreement
// (3), λ_max (4), then the Allreduce of bootstrap 0's Gram (5).
func TestChaosLassoStatisticsCrash(t *testing.T) {
	x, y, _ := makeRegression(54, 160, 8, 2, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(21, rows, y, x.Cols, ranks)
	run := func() string {
		plan := fault.NewPlan(ranks, fault.Event{Kind: fault.Crash, Rank: 3, Op: 5})
		tr := trace.New()
		err := runBounded(t, func() error {
			return mpi.RunWithOptions(ranks, mpi.RunOptions{CollectiveTimeout: 20 * time.Second, Fault: plan}, func(c *mpi.Comm) error {
				cfg := &LassoConfig{B1: 3, B2: 2, Q: 3, Seed: 5}
				if c.Rank() == 0 {
					cfg.Trace = tr
				}
				_, err := Lasso(denseFromRows(xs[c.Rank()], x.Cols), ys[c.Rank()], lassoOn(cfg, Placement{Comm: c, Partitioned: true}))
				return err
			})
		})
		if !errors.Is(err, mpi.ErrRankFailed) || !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("err = %v, want ErrRankFailed wrapping the injected crash", err)
		}
		phases := topLevel(tr)
		if _, ok := phases["lambda_grid"]; !ok {
			t.Fatalf("rank 0 never completed lambda_grid (phases %v): the crash came too early", phases)
		}
		if _, ok := phases["selection"]; ok {
			t.Fatalf("rank 0 completed selection (phases %v): the crash came too late", phases)
		}
		return err.Error()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("crash outcome not reproducible:\n  first:  %s\n  replay: %s", a, b)
	}
}

// float64Bits renders a coefficient vector byte-exactly for fingerprints.
func float64Bits(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, v := range xs {
		out = append(out, []byte(fmt.Sprintf("%016x", math.Float64bits(v)))...)
	}
	return out
}
