package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/hbf"
	"uoivar/internal/model"
	"uoivar/internal/trace"
)

// writeTestRegression creates a small [X|y] HBF file.
func writeTestRegression(t *testing.T) string {
	t.Helper()
	reg := datagen.MakeRegression(1, 400, 12, &datagen.RegressionOptions{NNZ: 3, NoiseStd: 0.3})
	path := hbf.TempPath(t.TempDir(), "reg")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 2}); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTestSeries creates a small VAR series HBF file.
func writeTestSeries(t *testing.T) string {
	t.Helper()
	fin := datagen.MakeFinance(2, 8, 300, &datagen.FinanceOptions{Sectors: 2})
	path := hbf.TempPath(t.TempDir(), "ser")
	if _, err := datagen.WriteSeriesHBF(path, fin.Series, hbf.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunLassoPath(t *testing.T) {
	path := writeTestRegression(t)
	if err := run(&options{Algo: "lasso", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLassoConventionalDist(t *testing.T) {
	path := writeTestRegression(t)
	if err := run(&options{Algo: "lasso", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, Dist: "conventional"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{Algo: "lasso", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, Dist: "nope"}); err == nil {
		t.Fatal("unknown -dist must fail")
	}
}

func TestRunLassoBaselines(t *testing.T) {
	path := writeTestRegression(t)
	if err := run(&options{Algo: "lasso-cv", Data: path, Ranks: 1, B1: 0, B2: 0, Q: 6, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{Algo: "lasso-bic", Data: path, Ranks: 1, B1: 0, B2: 0, Q: 6, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVARWithOutputs(t *testing.T) {
	path := writeTestSeries(t)
	dir := t.TempDir()
	edges := filepath.Join(dir, "edges.txt")
	dot := filepath.Join(dir, "net.dot")
	if err := run(&options{Algo: "var", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, Edges: edges, Dot: dot}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{edges, dot} {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

func TestRunVARAutoOrder(t *testing.T) {
	path := writeTestSeries(t)
	if err := run(&options{Algo: "var", Data: path, Ranks: 2, B1: 3, B2: 2, Q: 4, Ratio: 1e-2, Seed: 1, Order: 0, MaxOrder: 3, PB: 1, PL: 1, Readers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVARBaselinePath(t *testing.T) {
	path := writeTestSeries(t)
	if err := run(&options{Algo: "var-cv", Data: path, Ranks: 1, B1: 0, B2: 0, Q: 5, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestRunLassoPerfReport runs a distributed fit with -perf-report and
// checks the artifact parses, carries one entry per rank, and accounts for
// each rank's wall time with its top-level phases.
func TestRunLassoPerfReport(t *testing.T) {
	path := writeTestRegression(t)
	out := filepath.Join(t.TempDir(), "perf.json")
	const ranks = 2
	if err := run(&options{Algo: "lasso", Data: path, Ranks: ranks, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, PerfReport: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report, err := trace.ParsePerfReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Ranks) != ranks {
		t.Fatalf("report has %d ranks, want %d", len(report.Ranks), ranks)
	}
	if report.WallSeconds <= 0 {
		t.Fatalf("wall_seconds = %v", report.WallSeconds)
	}
	for _, rp := range report.Ranks {
		if got := rp.TopLevelSeconds(); got <= 0 {
			t.Fatalf("rank %d has no top-level phase time", rp.Rank)
		}
		if got := rp.TopLevelSeconds(); got > report.WallSeconds {
			t.Fatalf("rank %d phases (%vs) exceed the run wall (%vs)", rp.Rank, got, report.WallSeconds)
		}
		if len(rp.Comm) == 0 {
			t.Fatalf("rank %d has no communication meters", rp.Rank)
		}
		if rp.Counters["admm/solves"] <= 0 {
			t.Fatalf("rank %d missing admm/solves counter", rp.Rank)
		}
	}
}

// TestRunVARPerfReport covers the VAR path of the collector.
func TestRunVARPerfReport(t *testing.T) {
	path := writeTestSeries(t)
	out := filepath.Join(t.TempDir(), "perf.json")
	if err := run(&options{Algo: "var", Data: path, Ranks: 2, B1: 3, B2: 2, Q: 4, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, PerfReport: out, KernelWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	report, err := trace.ParsePerfReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Ranks) != 2 {
		t.Fatalf("report has %d ranks, want 2", len(report.Ranks))
	}
}

// TestRunLassoTraceOut runs a distributed fit with -trace-out and
// -trace-summary and checks the Chrome trace artifact validates, carries one
// track per rank, and records the pipeline's top-level phases.
func TestRunLassoTraceOut(t *testing.T) {
	path := writeTestRegression(t)
	out := filepath.Join(t.TempDir(), "fit.trace.json")
	const ranks = 2
	if err := run(&options{Algo: "lasso", Data: path, Ranks: ranks, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, TraceOut: out, TraceSummary: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	spans := map[string]bool{}
	for _, e := range ct.TraceEvents {
		tids[e.Tid] = true
		if e.Ph == "B" {
			spans[e.Name] = true
		}
	}
	for r := 0; r < ranks; r++ {
		if !tids[r] {
			t.Fatalf("trace missing rank %d track", r)
		}
	}
	for _, want := range []string{"selection", "estimation", "union"} {
		if !spans[want] {
			t.Fatalf("trace missing %q phase spans (have %v)", want, spans)
		}
	}
}

// TestRunVARDebugAddr exercises the live-endpoint plumbing end to end: the
// run must bind, serve, and shut the monitor down cleanly.
func TestRunVARDebugAddr(t *testing.T) {
	path := writeTestSeries(t)
	if err := run(&options{Algo: "var", Data: path, Ranks: 2, B1: 3, B2: 2, Q: 4, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, DebugAddr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	path := writeTestRegression(t)
	if err := run(&options{Algo: "nope", Data: path, Ranks: 1, B1: 1, B2: 1, Q: 2, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(&options{Algo: "lasso", Data: "/nonexistent.hbf", Ranks: 2, B1: 2, B2: 2, Q: 3, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1}); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestRunVARModelOut: a distributed UoI_VAR fit with -model-out writes a
// loadable artifact whose predictor forecasts.
func TestRunVARModelOut(t *testing.T) {
	path := writeTestSeries(t)
	out := filepath.Join(t.TempDir(), "var"+model.Ext)
	if err := run(&options{Algo: "var", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, ModelOut: out}); err != nil {
		t.Fatal(err)
	}
	art, err := model.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Kind != model.KindVAR || art.Meta.P != 8 || art.Meta.Order != 1 {
		t.Fatalf("artifact meta: %+v", art.Meta)
	}
	if art.Meta.Config.B1 != 4 || art.Meta.Seed != 1 {
		t.Fatalf("fit config not recorded: %+v", art.Meta)
	}
	pred, err := model.NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	series, err := readSeries(path)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := pred.Forecast(series, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Rows != 5 || fc.Cols != 8 {
		t.Fatalf("forecast shape %dx%d", fc.Rows, fc.Cols)
	}
}

// TestRunLassoModelOut covers the lasso fit and baseline artifact paths.
func TestRunLassoModelOut(t *testing.T) {
	path := writeTestRegression(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "lasso"+model.Ext)
	if err := run(&options{Algo: "lasso", Data: path, Ranks: 2, B1: 4, B2: 2, Q: 5, Ratio: 1e-2, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 2, ModelOut: out}); err != nil {
		t.Fatal(err)
	}
	art, err := model.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Kind != model.KindLasso || art.Meta.P != 12 {
		t.Fatalf("artifact meta: %+v", art.Meta)
	}

	base := filepath.Join(dir, "cv"+model.Ext)
	if err := run(&options{Algo: "lasso-cv", Data: path, Ranks: 1, Q: 6, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1, ModelOut: base}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Load(base); err != nil {
		t.Fatal(err)
	}

	vbase := filepath.Join(dir, "varcv"+model.Ext)
	spath := writeTestSeries(t)
	if err := run(&options{Algo: "var-cv", Data: spath, Ranks: 1, Q: 5, Ratio: 1e-3, Seed: 1, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1, ModelOut: vbase}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Load(vbase); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllPairsKernelWorkers: -kernel-workers is the all-pairs fit's
// AllPairsConfig.Workers, which resolves as the other algos' kernel budget
// does (0 = GOMAXPROCS/ranks, <0 = the full machine), and the artifact is
// byte-identical at every setting and rank count.
func TestRunAllPairsKernelWorkers(t *testing.T) {
	path := writeTestSeries(t)
	dir := t.TempDir()
	var want []byte
	for _, ranks := range []int{1, 3} {
		for _, kw := range []int{1, 0, -1} {
			out := filepath.Join(dir, fmt.Sprintf("r%d-kw%d%s", ranks, kw, model.Ext))
			if err := run(&options{Algo: "allpairs", Data: path, Ranks: ranks, B1: 3, Q: 4, Ratio: 1e-2, Seed: 2, Order: 1, MaxOrder: 4, PB: 1, PL: 1, Readers: 1, Screen: 6, KernelWorkers: kw, ModelOut: out}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("-ranks %d -kernel-workers %d: artifact differs from -ranks 1 -kernel-workers 1", ranks, kw)
			}
		}
	}
}
