package uoi

import (
	"bytes"
	"testing"
	"time"

	"uoivar/internal/distio"
	"uoivar/internal/fault"
	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// TestTimelineReplayDeterministic is the deterministic-replay guarantee for
// the event timeline: two runs of the full distributed pipeline under the
// same seeded chaos plan (delays + dropped bootstraps — no crashes, so the
// run completes) must produce identical per-rank event sequences, excluding
// timestamps. It also round-trips the Chrome export through the validating
// parser.
func TestTimelineReplayDeterministic(t *testing.T) {
	x, y, _ := makeRegression(61, 120, 8, 2, 0.2)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(17, rows, y, x.Cols, ranks)
	run := func() []*trace.Recorder {
		plan := fault.Generate(3, ranks, fault.GenOptions{
			PStraggle: 0.5, PDelay: 0.7, PBootstrap: 0.8,
			MaxOp: 60, MaxDelay: time.Millisecond, MaxBootstraps: 2,
		})
		recs := trace.NewRecorderSet(ranks, 1<<14)
		err := runBounded(t, func() error {
			return mpi.RunWithOptions(ranks, mpi.RunOptions{
				CollectiveTimeout: 20 * time.Second,
				Fault:             plan,
				Recorders:         recs,
			}, func(c *mpi.Comm) error {
				tr := trace.New().WithRecorder(recs[c.Rank()])
				_, err := Lasso(denseFromRows(xs[c.Rank()], x.Cols), ys[c.Rank()], lassoOn(&LassoConfig{
					B1: 4, B2: 3, Q: 4, Seed: 9,
					MinBootstrapFrac: 0.5, BootstrapFault: plan.BootstrapFault,
					Trace: tr,
				}, Placement{Comm: c, Shape: GridShape{2, 1}, Partitioned: true, Assembly: ConsensusADMM}))
				return err
			})
		})
		if err != nil {
			t.Fatalf("chaos run failed: %v (%v)", err, plan)
		}
		return recs
	}

	a, b := run(), run()
	sawComm, sawSpan := false, false
	for r := 0; r < ranks; r++ {
		ea, eb := a[r].Events(), b[r].Events()
		if len(ea) == 0 {
			t.Fatalf("rank %d recorded nothing", r)
		}
		if len(ea) != len(eb) {
			t.Fatalf("rank %d: %d vs %d events across replays", r, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i].Signature() != eb[i].Signature() {
				t.Fatalf("rank %d event %d differs across replays:\n%s\n%s",
					r, i, ea[i].Signature(), eb[i].Signature())
			}
			switch ea[i].Kind {
			case trace.EvComm:
				sawComm = true
			case trace.EvBegin:
				sawSpan = true
			}
		}
		if a[r].Dropped() != 0 {
			t.Fatalf("rank %d dropped %d events — ring too small for the test fit", r, a[r].Dropped())
		}
	}
	if !sawComm || !sawSpan {
		t.Fatalf("timeline misses event kinds: comm=%v span=%v", sawComm, sawSpan)
	}

	// Chrome export must validate and carry one track per rank.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, "replay", a); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	for _, e := range ct.TraceEvents {
		tids[e.Tid] = true
	}
	for r := 0; r < ranks; r++ {
		if !tids[r] {
			t.Fatalf("chrome trace missing rank %d track", r)
		}
	}

	// The merged analysis must see the pipeline's top-level phases.
	sum := trace.AnalyzeTimeline(a)
	if sum.Ranks != ranks || len(sum.Critical) == 0 || sum.CriticalSeconds <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	names := map[string]bool{}
	for _, p := range sum.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"selection", "estimation", "union"} {
		if !names[want] {
			t.Fatalf("phase %q missing from analysis (have %v)", want, names)
		}
	}
}

// matrixConserved asserts Σ send == Σ recv per cell for every category with
// pairwise structure, and returns the per-category byte totals.
func matrixConserved(t *testing.T, flows []mpi.PairFlow) map[mpi.Category]int64 {
	t.Helper()
	totals := map[mpi.Category]int64{}
	for _, f := range flows {
		if f.SendBytes != f.RecvBytes || f.SendCalls != f.RecvCalls {
			t.Fatalf("cell %d->%d (%v) unbalanced: %+v", f.Src, f.Dst, f.Category, f)
		}
		totals[f.Category] += f.SendBytes
	}
	return totals
}

// TestCommMatrixConservationLasso runs the real ingest + fit path —
// ConventionalDistribute (root streams row blocks over Send/Recv) feeding
// LassoDistributed — and checks the conservation law over the resulting
// communication matrix.
func TestCommMatrixConservationLasso(t *testing.T) {
	x, y, _ := makeRegression(62, 100, 6, 2, 0.2)
	data := make([]float64, 0, x.Rows*(x.Cols+1))
	for i := 0; i < x.Rows; i++ {
		data = append(data, x.Row(i)...)
		data = append(data, y[i])
	}
	path := t.TempDir() + "/reg.hbf"
	if _, err := hbf.Create(path, x.Rows, x.Cols+1, data, hbf.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	var flows []mpi.PairFlow
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		block, err := distio.ConventionalDistribute(c, path)
		if err != nil {
			return err
		}
		xl, yl := block.XY()
		_, err = Lasso(xl, yl, lassoOn(&LassoConfig{B1: 4, B2: 3, Q: 4, Seed: 9}, Placement{Comm: c, Shape: GridShape{2, 2}, Partitioned: true, Assembly: ConsensusADMM}))
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			flows = c.CommMatrix()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := matrixConserved(t, flows)
	if totals[mpi.CatP2P] == 0 {
		t.Fatal("conventional distribution produced no p2p matrix traffic")
	}
}

// TestCommMatrixConservationVAR does the same through VARDistributed, whose
// Kronecker assembly moves data over one-sided windows.
func TestCommMatrixConservationVAR(t *testing.T) {
	_, series := makeVARData(63, 5, 1, 300)
	const ranks = 4
	var flows []mpi.PairFlow
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var s *mat.Dense
		if c.Rank() < 2 {
			s = series
		}
		_, err := VAR(s, varOn(&VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, LambdaRatio: 1e-2, Seed: 5}, Placement{Comm: c, Partitioned: true, NReaders: 2, Assembly: KroneckerGets}))
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			flows = c.CommMatrix()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := matrixConserved(t, flows)
	if totals[mpi.CatOneSided] == 0 {
		t.Fatal("VAR Kronecker assembly produced no one-sided matrix traffic")
	}
}
