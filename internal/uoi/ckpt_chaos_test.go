package uoi

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uoivar/internal/fault"
	"uoivar/internal/mpi"
)

// These chaos cases prove the checkpoint/restart tentpole end to end: a
// seeded crash kills a distributed checkpointed fit at a bootstrap
// boundary, and the resumed fit — on FEWER ranks than the original —
// produces coefficients bit-identical to an uninterrupted serial run. The
// crash op index positions the failure at different rounds of the cell
// engine, so the sweep covers crashes before the first save, mid-phase,
// and between the selection and estimation phases.

// crashThenResume runs phase 1 (ranks1 ranks, seeded crash) and phase 2
// (ranks2 ranks, no faults, resuming the surviving checkpoint), returning
// the resumed per-rank coefficient vectors. The resumed run also must obey
// the communication-matrix conservation law.
func crashThenResume(t *testing.T, path string, crashRank, crashOp, ranks1, ranks2 int,
	fit func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error)) [][]float64 {
	t.Helper()

	plan := fault.NewPlan(ranks1, fault.Event{Kind: fault.Crash, Rank: crashRank, Op: crashOp})
	err := runBounded(t, func() error {
		return mpi.RunWithOptions(ranks1, mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) error {
			_, err := fit(c, &CheckpointConfig{Path: path})
			return err
		})
	})
	if err == nil {
		t.Fatalf("crash at op %d did not interrupt the fit", crashOp)
	}
	if !typedOutcome(err) {
		t.Fatalf("crashed run failed untyped: %v", err)
	}

	// Resume whatever survived on fewer ranks. A crash before the first
	// cadenced save legitimately leaves no file — then the "resume" is a
	// fresh checkpointed run, exactly what an operator retrying would get.
	resume := true
	if _, statErr := os.Stat(path); statErr != nil {
		resume = false
	}
	betas := make([][]float64, ranks2)
	var flows []mpi.PairFlow
	err = runBounded(t, func() error {
		return mpi.Run(ranks2, func(c *mpi.Comm) error {
			beta, err := fit(c, &CheckpointConfig{Path: path, Resume: resume})
			if err != nil {
				return err
			}
			betas[c.Rank()] = beta
			if c.Rank() == 0 {
				flows = c.CommMatrix()
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("resume on %d ranks failed: %v", ranks2, err)
	}
	matrixConserved(t, flows)
	return betas
}

func TestCkptChaosCrashResumeFewerRanksLasso(t *testing.T) {
	x, y, _ := makeRegression(71, 90, 10, 3, 0.25)
	base := &LassoConfig{B1: 6, B2: 4, Q: 5, Seed: 17}
	plain, err := Lasso(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	// A 4-rank run of B1=6, B2=4 has three Allgather exchanges per rank
	// (two selection rounds, one estimation round). Op 0 crashes at the
	// first exchange (nothing saved yet); op 1 mid-selection; op 2 at the
	// estimation exchange after selection is fully durable.
	for _, crashOp := range []int{0, 1, 2} {
		crashOp := crashOp
		t.Run(fmt.Sprintf("crashOp=%d", crashOp), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			betas := crashThenResume(t, path, 2, crashOp, 4, 2,
				func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error) {
					cfg := *base
					cfg.Checkpoint = ck
					res, err := Lasso(x, y, lassoOn(&cfg, Placement{Comm: c}))
					if err != nil {
						return nil, err
					}
					return res.Beta, nil
				})
			for r, beta := range betas {
				assertBitsEqual(t, fmt.Sprintf("rank %d resumed vs uninterrupted serial", r), beta, plain.Beta)
			}
		})
	}
}

func TestCkptChaosCrashResumeFewerRanksVAR(t *testing.T) {
	_, series := makeVARData(72, 4, 1, 240)
	base := &VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, Seed: 21}
	plain, err := VAR(series, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashOp := range []int{1, 2} {
		crashOp := crashOp
		t.Run(fmt.Sprintf("crashOp=%d", crashOp), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "var.uoickpt")
			betas := crashThenResume(t, path, 1, crashOp, 3, 2,
				func(c *mpi.Comm, ck *CheckpointConfig) ([]float64, error) {
					cfg := *base
					cfg.Checkpoint = ck
					res, err := VAR(series, varOn(&cfg, Placement{Comm: c}))
					if err != nil {
						return nil, err
					}
					return res.Beta, nil
				})
			for r, beta := range betas {
				assertBitsEqual(t, fmt.Sprintf("rank %d resumed vs uninterrupted serial", r), beta, plain.Beta)
			}
		})
	}
}

// TestCkptChaosSweepAllBoundaries crashes a 2-rank checkpointed fit at
// every comm op from the first exchange past the last, proving "resume is
// bit-identical" holds with a crash at ANY bootstrap boundary, not just a
// lucky one. Each resumed fit runs on a single rank — the extreme form of
// resume-on-fewer-ranks.
func TestCkptChaosSweepAllBoundaries(t *testing.T) {
	x, y, _ := makeRegression(73, 60, 6, 2, 0.25)
	base := &LassoConfig{B1: 4, B2: 3, Q: 4, Seed: 29}
	plain, err := Lasso(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	// 2 ranks × (2 selection rounds + 2 estimation rounds) = 4 exchanges
	// per rank (0-based ops 0–3); sweeping to op 4 includes "crash scheduled
	// after all work is done", where the fit simply completes.
	for crashOp := 0; crashOp <= 4; crashOp++ {
		crashOp := crashOp
		t.Run(fmt.Sprintf("crashOp=%d", crashOp), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fit.uoickpt")
			plan := fault.NewPlan(2, fault.Event{Kind: fault.Crash, Rank: 1, Op: crashOp})
			crashed := runBounded(t, func() error {
				return mpi.RunWithOptions(2, mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) error {
					cfg := *base
					cfg.Checkpoint = &CheckpointConfig{Path: path}
					_, err := Lasso(x, y, lassoOn(&cfg, Placement{Comm: c}))
					return err
				})
			}) != nil
			resume := false
			if _, statErr := os.Stat(path); statErr == nil {
				resume = true
			}
			if !crashed && !resume {
				t.Fatal("run neither crashed nor checkpointed")
			}
			cfg := *base
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: resume}
			res, err := Lasso(x, y, &cfg)
			if err != nil {
				t.Fatalf("single-rank resume failed: %v", err)
			}
			for i := range res.Beta {
				if math.Float64bits(res.Beta[i]) != math.Float64bits(plain.Beta[i]) {
					t.Fatalf("crashOp %d: resumed beta[%d] differs", crashOp, i)
				}
			}
		})
	}
}
