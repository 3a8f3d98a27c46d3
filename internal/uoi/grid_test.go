package uoi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"uoivar/internal/fault"
	"uoivar/internal/mpi"
)

// gridShapes are the layouts the acceptance bar requires bit-identity at:
// serial degenerate, square, tall, and a pure-λ row.
var gridShapes = []GridShape{{1, 1}, {2, 2}, {4, 2}, {1, 8}}

// runGridLasso fits LassoGrid at the given shape and returns rank 0's result
// after checking every rank produced the identical model.
func runGridLasso(t *testing.T, shape GridShape, flat bool, cfg *LassoConfig) *Result {
	t.Helper()
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	var mu sync.Mutex
	perRank := make([]*Result, shape.Ranks())
	err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
		res, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape, FlatCollectives: flat}))
		if err != nil {
			return err
		}
		mu.Lock()
		perRank[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("grid %s flat=%v: %v", shape, flat, err)
	}
	for r := 1; r < shape.Ranks(); r++ {
		assertBitsEqual(t, fmt.Sprintf("grid %s rank %d vs rank 0", shape, r), perRank[r].Beta, perRank[0].Beta)
	}
	return perRank[0]
}

// Grid Lasso must be bit-identical to serial at every shape, in both the
// tree/ring and the flat-baseline collective modes: the reassembly is pure
// concatenation plus exact integer sums, and the cross-column warm-start
// pipeline reproduces the serial λ chain.
func TestLassoGridMatchesSerialAllShapes(t *testing.T) {
	cfg := &LassoConfig{B1: 6, B2: 4, Q: 7, Seed: 11, KernelWorkers: 1}
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	serial, err := Lasso(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range gridShapes {
		for _, flat := range []bool{false, true} {
			res := runGridLasso(t, shape, flat, cfg)
			assertBitsEqual(t, fmt.Sprintf("grid %s flat=%v beta", shape, flat), res.Beta, serial.Beta)
			assertBitsEqual(t, fmt.Sprintf("grid %s flat=%v lambdas", shape, flat), res.Lambdas, serial.Lambdas)
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
				t.Fatalf("grid %s flat=%v diag %+v, serial %+v", shape, flat, res.Diag, serial.Diag)
			}
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
		res := runGridLasso(t, shape, false, cfg)
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
		for _, flat := range []bool{false, true} {
			var mu sync.Mutex
			perRank := make([]*VARResult, shape.Ranks())
			err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
				res, err := VAR(series, varOn(cfg, Placement{Comm: c, Shape: shape, FlatCollectives: flat}))
				if err != nil {
					return err
				}
				mu.Lock()
				perRank[c.Rank()] = res
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("VAR grid %s flat=%v: %v", shape, flat, err)
			}
			for r := 0; r < shape.Ranks(); r++ {
				assertBitsEqual(t, fmt.Sprintf("VAR grid %s flat=%v rank %d", shape, flat, r), perRank[r].Beta, serial.Beta)
			}
			assertBitsEqual(t, fmt.Sprintf("VAR grid %s mu", shape), perRank[0].Mu, serial.Mu)
			for l := range serial.A {
				assertBitsEqual(t, fmt.Sprintf("VAR grid %s A[%d]", shape, l), perRank[0].A[l].Data, serial.A[l].Data)
			}
		}
	}
}

// The communication-avoiding mode must actually avoid communication: at a
// 1×8 grid the tree/ring reassembly ships fewer collective bytes than the
// flat Allreduce/Allgather baseline on the same fit.
func TestLassoGridTreeBytesBelowFlat(t *testing.T) {
	x, y, _ := makeRegression(3, 80, 12, 4, 0.3)
	cfg := &LassoConfig{B1: 8, B2: 8, Q: 8, Seed: 11, KernelWorkers: 1}
	shape := GridShape{1, 8}
	measure := func(flat bool) int64 {
		var mu sync.Mutex
		var bytes int64
		err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
			if _, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape, FlatCollectives: flat})); err != nil {
				return err
			}
			c.Barrier()
			if c.Rank() == 0 {
				st := c.GlobalStats()
				mu.Lock()
				bytes = st.Bytes[mpi.CatCollective]
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bytes
	}
	tree := measure(false)
	flat := measure(true)
	if tree <= 0 || flat <= 0 {
		t.Fatalf("no collective traffic metered: tree=%d flat=%d", tree, flat)
	}
	if tree >= flat {
		t.Fatalf("tree/ring bytes %d not below flat baseline %d", tree, flat)
	}
	t.Logf("collective bytes at %s: tree/ring %d, flat %d (%.1fx reduction)", shape, tree, flat, float64(flat)/float64(tree))
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

// Killing a rank mid-fit must surface a typed fault-tolerance error on the
// survivors — never a hang — at any grid shape.
func TestGridRankKillTypedError(t *testing.T) {
	x, y, _ := makeRegression(3, 60, 8, 3, 0.3)
	cfg := &LassoConfig{B1: 4, B2: 4, Q: 5, Seed: 11, KernelWorkers: 1}
	for _, shape := range []GridShape{{2, 2}, {1, 4}} {
		shape := shape
		t.Run(shape.String(), func(t *testing.T) {
			plan := fault.NewPlan(shape.Ranks(), fault.Event{Kind: fault.Crash, Rank: 1, Op: 3})
			done := make(chan error, 1)
			go func() {
				done <- mpi.RunWithOptions(shape.Ranks(), mpi.RunOptions{
					CollectiveTimeout: 10 * time.Second,
					Fault:             plan,
				}, func(c *mpi.Comm) error {
					_, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: shape}))
					return err
				})
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("rank kill produced no error")
				}
				if !errors.Is(err, mpi.ErrRankFailed) && !errors.Is(err, fault.ErrInjected) &&
					!errors.Is(err, mpi.ErrTimeout) {
					t.Fatalf("untyped failure: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("grid fit hung after rank kill")
			}
		})
	}
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
		cfg2 := &VARConfig{Order: 1, B1: 3, B2: 2, Q: 4, Seed: 5, Cells: NewMapCellCache()}
		if _, err := VAR(series, varOn(cfg2, Placement{Comm: c, Shape: GridShape{2, 1}})); err == nil {
			return errors.New("cell cache accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
