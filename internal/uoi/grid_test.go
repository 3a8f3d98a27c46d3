package uoi

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uoivar/internal/datagen"
	"uoivar/internal/fault"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// gridShapes are the layouts the acceptance bar requires bit-identity at:
// serial degenerate, square, tall, and a pure-λ row.
var gridShapes = []GridShape{{1, 1}, {2, 2}, {4, 2}, {1, 8}}

// runGridLasso fits LassoGrid at the given shape and returns rank 0's result
// after checking every rank produced the identical model.
func runGridLasso(t *testing.T, shape GridShape, cfg *LassoConfig) *Result {
	t.Helper()
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	var mu sync.Mutex
	perRank := make([]*Result, shape.Ranks())
	err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
		res, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape}))
		if err != nil {
			return err
		}
		mu.Lock()
		perRank[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("grid %s: %v", shape, err)
	}
	for r := 1; r < shape.Ranks(); r++ {
		assertBitsEqual(t, fmt.Sprintf("grid %s rank %d vs rank 0", shape, r), perRank[r].Beta, perRank[0].Beta)
	}
	return perRank[0]
}

// Grid Lasso must be bit-identical to serial at every shape: the
// reassembly is pure concatenation plus exact integer sums, and the
// cross-column warm-start pipeline reproduces the serial λ chain.
func TestLassoGridMatchesSerialAllShapes(t *testing.T) {
	cfg := &LassoConfig{B1: 6, B2: 4, Q: 7, Seed: 11, KernelWorkers: 1}
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	serial, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range gridShapes {
		res := runGridLasso(t, shape, cfg)
		assertBitsEqual(t, fmt.Sprintf("grid %s beta", shape), res.Beta, serial.Beta)
		assertBitsEqual(t, fmt.Sprintf("grid %s lambdas", shape), res.Lambdas, serial.Lambdas)
		if len(res.Supports) != len(serial.Supports) {
			t.Fatalf("grid %s: %d supports, serial %d", shape, len(res.Supports), len(serial.Supports))
		}
		for j := range res.Supports {
			if len(res.Supports[j]) != len(serial.Supports[j]) {
				t.Fatalf("grid %s λ %d: support size %d vs serial %d", shape, j, len(res.Supports[j]), len(serial.Supports[j]))
			}
			for i := range res.Supports[j] {
				if res.Supports[j][i] != serial.Supports[j][i] {
					t.Fatalf("grid %s λ %d: support mismatch", shape, j)
				}
			}
		}
		if res.Diag.LassoFits != serial.Diag.LassoFits || res.Diag.OLSFits != serial.Diag.OLSFits ||
			res.Diag.ADMMIters != serial.Diag.ADMMIters {
			t.Fatalf("grid %s diag %+v, serial %+v", shape, res.Diag, serial.Diag)
		}
	}
}

// Standardized grid fits must reproduce the standardized serial path,
// including the de-standardized intercept.
func TestLassoGridStandardized(t *testing.T) {
	x, y, _ := makeRegression(7, 70, 10, 3, 0.3)
	cfg := &LassoConfig{B1: 5, B2: 3, Q: 5, Seed: 17, Standardize: true, KernelWorkers: 1}
	serial, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shape := GridShape{2, 2}
	var mu sync.Mutex
	var got *Result
	err = mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
		res, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape}))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "standardized grid beta", got.Beta, serial.Beta)
	assertBitsEqual(t, "standardized grid intercept", []float64{got.Intercept}, []float64{serial.Intercept})
}

// Quorum mode: deterministically dropped bootstraps must degrade the grid
// fit exactly as they degrade the serial fit — every column of a row
// reaches the same drop verdict without agreement messages.
func TestLassoGridQuorumMatchesSerial(t *testing.T) {
	drop := func(phase string, k int) error {
		if phase == "selection" && k == 1 || phase == "estimation" && k == 0 {
			return errors.New("injected drop")
		}
		return nil
	}
	cfg := &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 11, KernelWorkers: 1,
		MinBootstrapFrac: 0.5, BootstrapFault: drop}
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	serial, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []GridShape{{2, 2}, {1, 8}} {
		res := runGridLasso(t, shape, cfg)
		assertBitsEqual(t, fmt.Sprintf("degraded grid %s", shape), res.Beta, serial.Beta)
		if res.Bootstrap != serial.Bootstrap {
			t.Fatalf("grid %s bootstrap stats %+v, serial %+v", shape, res.Bootstrap, serial.Bootstrap)
		}
	}
}

// Grid VAR must be bit-identical to serial VAR at every shape — the
// per-equation warm-start pipeline is the VAR analogue of the Lasso chain.
func TestVARGridMatchesSerialAllShapes(t *testing.T) {
	_, series := makeVARData(21, 5, 1, 200)
	cfg := &VARConfig{Order: 1, B1: 5, B2: 3, Q: 5, LambdaRatio: 1e-2, Seed: 5, KernelWorkers: 1}
	serial, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range gridShapes {
		var mu sync.Mutex
		perRank := make([]*VARResult, shape.Ranks())
		err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
			res, err := VAR(series, varOn(cfg, Placement{Comm: c, Shape: shape}))
			if err != nil {
				return err
			}
			mu.Lock()
			perRank[c.Rank()] = res
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("VAR grid %s: %v", shape, err)
		}
		for r := 0; r < shape.Ranks(); r++ {
			assertBitsEqual(t, fmt.Sprintf("VAR grid %s rank %d", shape, r), perRank[r].Beta, serial.Beta)
		}
		assertBitsEqual(t, fmt.Sprintf("VAR grid %s mu", shape), perRank[0].Mu, serial.Mu)
		for l := range serial.A {
			assertBitsEqual(t, fmt.Sprintf("VAR grid %s A[%d]", shape, l), perRank[0].A[l].Data, serial.A[l].Data)
		}
	}
}

// fitMetered fits x, y under the placement at on a fresh world of the given
// rank count and returns rank 0's coefficients and the bytes the whole fit
// put on the wire, summed over every rank and category.
func fitMetered(x *mat.Dense, y []float64, cfg *LassoConfig, ranks int, at Placement) (beta []float64, bytes int64, err error) {
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		at := at
		at.Comm = c
		res, err := Lasso(x, y, lassoOn(cfg, at))
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			st := c.GlobalStats()
			_, bytes, _ = st.Total()
			beta = res.Beta
		}
		return nil
	})
	return beta, bytes, err
}

// gridBytesCase is the fit BenchmarkLassoPlacements' grid rows run: n×p
// regression with 6 true non-zeros, B1 = B2 = b, Q q.
func gridBytesCase(short bool) (*datagen.Regression, *LassoConfig) {
	n, p, b, q := 512, 48, 8, 8
	if short {
		n, p, b, q = 192, 24, 4, 6
	}
	reg := datagen.MakeRegression(11, n, p, &datagen.RegressionOptions{NNZ: 6, NoiseStd: 0.3})
	return reg, &LassoConfig{B1: b, B2: b, Q: q, Seed: 1, KernelWorkers: 1}
}

// BenchmarkLassoPlacements times whole replicated-data UoI_LASSO fits: the
// 2-D grid at 1×8 and 4×2 and the checkpointed
// engine on 4 ranks with a fresh journal per fit. Each row reports the
// fit's bytes on the wire, summed over the ranks, as mpi-B/op; -short runs
// smaller problems.
func BenchmarkLassoPlacements(b *testing.B) {
	reg, cfg := gridBytesCase(testing.Short())
	n, p, b1, b2, q := 1024, 64, 6, 4, 6
	if testing.Short() {
		n, p, b1, b2, q = 256, 32, 3, 2, 4
	}
	ckReg := datagen.MakeRegression(7, n, p, &datagen.RegressionOptions{NNZ: 8, NoiseStd: 0.3})
	ckCfg := &LassoConfig{B1: b1, B2: b2, Q: q, Seed: 1}
	dir := b.TempDir()
	run := func(name string, reg *datagen.Regression, ranks int, fit func(i int) (*LassoConfig, Placement)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				cfg, at := fit(i)
				_, by, err := fitMetered(reg.X, reg.Y, cfg, ranks, at)
				if err != nil {
					b.Fatal(err)
				}
				bytes += by
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "mpi-B/op")
		})
	}
	for _, shape := range []GridShape{{1, 8}, {4, 2}} {
		run("grid-"+shape.String(), reg, shape.Ranks(), func(int) (*LassoConfig, Placement) {
			return cfg, Placement{Shape: shape}
		})
	}
	run("checkpointed-4ranks", ckReg, 4, func(i int) (*LassoConfig, Placement) {
		c := *ckCfg
		c.Checkpoint = &CheckpointConfig{Path: filepath.Join(dir, fmt.Sprintf("b%d.uoickpt", i))}
		return &c, Placement{}
	})
}

// Shape validation: wrong rank counts and malformed specs are rejected.
func TestGridShapeValidation(t *testing.T) {
	if _, err := ParseGridShape("4x2"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "4", "0x2", "x", "-1x3"} {
		if _, err := ParseGridShape(bad); err == nil {
			t.Fatalf("ParseGridShape(%q) accepted", bad)
		}
	}
	if g, _ := ParseGridShape("4x2"); g.Ranks() != 8 || g.String() != "4x2" {
		t.Fatalf("ParseGridShape round trip wrong: %+v", g)
	}
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Lasso(nil, nil, lassoOn(&LassoConfig{}, Placement{Comm: c, Shape: GridShape{2, 2}}))
		if err == nil {
			return errors.New("mismatched shape accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Killing a rank mid-fit must end every rank in a typed fault-tolerance
// error — never a hang — at any grid shape: early in the fit, inside the
// supports Allreduce and inside the estimation Allgather. Rank 1's op index
// of each collective comes from an event recording of the same fit: the
// grid makes no one-sided calls, so every comm event is one fault-plan op.
func TestGridRankKillTypedError(t *testing.T) {
	x, y, _ := makeRegression(3, 60, 8, 3, 0.3)
	cfg := &LassoConfig{B1: 4, B2: 4, Q: 5, Seed: 11, KernelWorkers: 1}
	for _, shape := range []GridShape{{2, 2}, {1, 4}} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			var finished atomic.Int32 // ranks whose fit returned no error
			fit := func(c *mpi.Comm) error {
				_, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape}))
				if err == nil {
					finished.Add(1)
				}
				return err
			}
			recs := trace.NewRecorderSet(shape.Ranks(), 1<<12)
			if err := mpi.RunWithOptions(shape.Ranks(), mpi.RunOptions{Recorders: recs}, fit); err != nil {
				t.Fatal(err)
			}
			if recs[1].Dropped() != 0 {
				t.Fatalf("recorder dropped %d events", recs[1].Dropped())
			}
			kills := []struct {
				name string
				op   int
			}{
				{"early", 3},
				{"supports-allreduce", commOp(recs[1], "allreduce@world")},
				{"estimation-allgather", commOp(recs[1], "allgather@world")},
			}
			for _, kill := range kills {
				if kill.op < 0 {
					t.Fatalf("%s: rank 1 recorded no such call", kill.name)
				}
				finished.Store(0)
				plan := fault.NewPlan(shape.Ranks(), fault.Event{Kind: fault.Crash, Rank: 1, Op: kill.op})
				err := runBounded(t, func() error {
					return mpi.RunWithOptions(shape.Ranks(), mpi.RunOptions{CollectiveTimeout: 10 * time.Second, Fault: plan}, fit)
				})
				if n := finished.Load(); err == nil || n != 0 {
					t.Fatalf("%s (op %d): %d ranks finished, err %v", kill.name, kill.op, n, err)
				}
				fired := false
				for _, e := range joined(err) {
					fired = fired || errors.Is(e, fault.ErrInjected)
					if !errors.Is(e, mpi.ErrRankFailed) && !errors.Is(e, fault.ErrInjected) && !errors.Is(e, mpi.ErrTimeout) {
						t.Fatalf("%s (op %d): untyped failure: %v", kill.name, kill.op, e)
					}
				}
				if !fired {
					t.Fatalf("%s (op %d): the kill never fired: %v", kill.name, kill.op, err)
				}
				t.Logf("%s: rank 1 killed at op %d", kill.name, kill.op)
			}
		})
	}
}

// commOp returns the index among r's comm events — the fault plan's op
// count on its rank — of the first call named name, or -1.
func commOp(r *trace.Recorder, name string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind != trace.EvComm {
			continue
		}
		if e.Name == name {
			return n
		}
		n++
	}
	return -1
}

// joined lists the errors of an errors.Join, or err alone.
func joined(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}

// VARGrid rejects the configurations whose semantics a grid cannot honor.
func TestVARGridRejectsUnsupportedConfig(t *testing.T) {
	_, series := makeVARData(21, 4, 1, 120)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		// WarmBeta of the correct length reverses the sweep: rejected at PL>1.
		full := make([]float64, (4*1+1)*4)
		cfg := &VARConfig{Order: 1, B1: 3, B2: 2, Q: 4, Seed: 5, WarmBeta: full}
		if _, err := VAR(series, varOn(cfg, Placement{Comm: c, Shape: GridShape{1, 2}})); err == nil {
			return errors.New("WarmBeta at PL>1 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
