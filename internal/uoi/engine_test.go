package uoi

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// Regression tests for what the six replicated-data drivers disagreed on
// before they became one engine. Each fails at the commit before the
// collapse at the placements named in its comment.

// lassoAt runs a UoI_LASSO fit at one of the engine's placements — "pool",
// "journal" (in-process), "journal-r2" (over two ranks) or "grid-RxC" — and
// returns every rank's error (one entry for the in-process placements) and
// tracer. Each rank's tracer carries an event recorder.
func lassoAt(t *testing.T, place string, x *mat.Dense, y []float64, base LassoConfig) ([]error, []*trace.Tracer) {
	t.Helper()
	newTracer := func(rank int) *trace.Tracer { return trace.New().WithRecorder(trace.NewRecorder(rank, 1<<12)) }
	ck := &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")}
	if place == "pool" || place == "journal" {
		cfg := base
		cfg.Trace = newTracer(0)
		if place == "journal" {
			cfg.Checkpoint = ck
		}
		_, err := Lasso(x, y, &cfg)
		return []error{err}, []*trace.Tracer{cfg.Trace}
	}
	ranks := 2
	var shape GridShape
	if spec, ok := strings.CutPrefix(place, "grid-"); ok {
		var err error
		if shape, err = ParseGridShape(spec); err != nil {
			t.Fatal(err)
		}
		ranks = shape.Ranks()
	}
	errs := make([]error, ranks)
	tracers := make([]*trace.Tracer, ranks)
	// Rank errors are returned through errs, not the body, so that one rank
	// failing a strict fit does not tear the world down under the others.
	if err := mpi.Run(ranks, func(c *mpi.Comm) error {
		cfg := base
		cfg.Trace = newTracer(c.Rank())
		tracers[c.Rank()] = cfg.Trace
		if place == "journal-r2" {
			cfg.Checkpoint = ck
		}
		_, errs[c.Rank()] = Lasso(x, y, lassoOn(&cfg, Placement{Comm: c, Shape: shape}))
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", place, err)
	}
	return errs, tracers
}

// Shape errors come before standardisation at every placement. Before, the
// standardised pool and journal fits of an empty design panicked in
// preprocess ("empty design") where the unstandardised call returned an
// error, and a standardised grid fit with mismatched lengths killed its
// rank ("mpi: rank 0 panicked: preprocess: 10 rows vs 7 responses").
func TestShapeErrorsPrecedeStandardize(t *testing.T) {
	cfg := LassoConfig{B1: 3, B2: 2, Q: 3, Standardize: true}
	ragged, _, _ := makeRegression(5, 10, 3, 2, 0.1)
	for _, place := range []string{"pool", "journal", "journal-r2", "grid-2x1"} {
		errs, _ := lassoAt(t, place, mat.NewDense(0, 5), nil, cfg)
		for r, err := range errs {
			if err == nil || err.Error() != "uoi: need at least 4 samples, have 0" {
				t.Errorf("%s rank %d, empty design: err = %v", place, r, err)
			}
		}
		errs, _ = lassoAt(t, place, ragged, make([]float64, 7), cfg)
		for r, err := range errs {
			if err == nil || err.Error() != "uoi: 10 rows but 7 responses" {
				t.Errorf("%s rank %d, ragged response: err = %v", place, r, err)
			}
		}
	}
}

var errInjectedCell = errors.New("injected cell failure")

// failCells returns a BootstrapFault that fails the named cells.
func failCells(cells ...string) func(string, int) error {
	return func(phase string, k int) error {
		for _, c := range cells {
			if c == fmt.Sprintf("%s/%d", phase, k) {
				return errInjectedCell
			}
		}
		return nil
	}
}

// A missed quorum joins the cell errors the process saw at every placement
// (before: not on the grid), and the failed phase's span is ended at every
// placement (before: at none — error returns left it open).
func TestQuorumErrorJoinsCellErrorsEverywhere(t *testing.T) {
	x, y, _ := makeRegression(41, 60, 6, 2, 0.2)
	for _, phase := range []string{"selection", "estimation"} {
		// Cells 0 and 3 land on different ranks of every two-rank placement
		// (round-robin journal rounds, grid rows, grid estimation blocks), so
		// each rank saw one of the failures.
		cfg := LassoConfig{B1: 4, B2: 4, Q: 4, Seed: 3, MinBootstrapFrac: 0.75,
			BootstrapFault: failCells(phase+"/0", phase+"/3")}
		for _, place := range []string{"pool", "journal", "journal-r2", "grid-2x1", "grid-1x2"} {
			errs, tracers := lassoAt(t, place, x, y, cfg)
			for r, err := range errs {
				if !errors.Is(err, ErrQuorum) {
					t.Errorf("%s %s rank %d: err = %v, want ErrQuorum", place, phase, r, err)
				}
				if !errors.Is(err, errInjectedCell) {
					t.Errorf("%s %s rank %d: quorum error does not join the cell errors: %v", place, phase, r, err)
				}
				if open := tracers[r].EventRecorder().CurrentPhase(); open != "" {
					t.Errorf("%s %s rank %d: span %q left open by the failed fit", place, phase, r, open)
				}
			}
		}
	}
}

// A strict fit that fails in a cell ends its phase span too.
func TestFailedPhaseEndsSpan(t *testing.T) {
	x, y, _ := makeRegression(41, 60, 6, 2, 0.2)
	for _, cell := range []string{"selection/1", "estimation/1"} {
		cfg := LassoConfig{B1: 3, B2: 3, Q: 4, Seed: 3, BootstrapFault: failCells(cell)}
		for _, place := range []string{"pool", "journal", "grid-1x1"} {
			errs, tracers := lassoAt(t, place, x, y, cfg)
			if !errors.Is(errs[0], errInjectedCell) {
				t.Fatalf("%s %s: err = %v", place, cell, errs[0])
			}
			if open := tracers[0].EventRecorder().CurrentPhase(); open != "" {
				t.Errorf("%s %s: span %q left open by the failed fit", place, cell, open)
			}
			phase, _, _ := strings.Cut(cell, "/")
			if tracers[0].PhaseSeconds(phase) <= 0 {
				t.Errorf("%s: failed %s phase not recorded", place, phase)
			}
		}
	}
}

// Every placement marks a dropped bootstrap on the timeline (before: only
// the grid did). On a grid every column of the row drops the bootstrap.
func TestBootstrapDroppedInstantEverywhere(t *testing.T) {
	x, y, _ := makeRegression(41, 60, 6, 2, 0.2)
	cfg := LassoConfig{B1: 4, B2: 4, Q: 4, Seed: 3, MinBootstrapFrac: 0.5,
		BootstrapFault: failCells("selection/1", "estimation/2")}
	for place, want := range map[string]int{"pool": 2, "journal": 2, "journal-r2": 2, "grid-2x1": 2, "grid-1x2": 3} {
		errs, tracers := lassoAt(t, place, x, y, cfg)
		got := 0
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", place, r, err)
			}
			for _, e := range tracers[r].EventRecorder().Events() {
				if e.Kind == trace.EvInstant && e.Name == "fault/bootstrap_dropped" {
					got++
				}
			}
		}
		if got != want {
			t.Errorf("%s: %d fault/bootstrap_dropped instants, want %d", place, got, want)
		}
	}
}

// A bootstrap dropped in estimation travels as a status-0 slot whose
// padding is never read as coefficients, at an odd coefficient count too.
func TestGridDroppedEstimationOddWidth(t *testing.T) {
	x, y, _ := makeRegression(41, 60, 7, 2, 0.2)
	cfg := LassoConfig{B1: 4, B2: 4, Q: 4, Seed: 3, MinBootstrapFrac: 0.5, BootstrapFault: failCells("estimation/1")}
	want, err := Lasso(x, y, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	err = mpi.Run(2, func(c *mpi.Comm) error {
		res, err := Lasso(x, y, lassoOn(&cfg, Placement{Comm: c, Shape: GridShape{PB: 2, PL: 1}}))
		if c.Rank() == 0 {
			got = res
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, "beta", got.Beta, want.Beta)
}
