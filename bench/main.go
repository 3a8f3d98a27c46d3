// Command bench is the repository benchmark: four workloads, end-to-end
// metrics with regression bounds, and a traced run that reports per-layer
// metrics. See README.md in this directory.
//
//	bash bench/run.sh --workload W --seed S --seconds T --trace 0|1
//	bash bench/run.sh all [--runs N] [--seed S] [--seconds T] --out set.json
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up as many times as fit in setupBudget, at least
// minSetupReps and at most maxSetupReps times; setup_s is the median, so one
// slow page-in does not decide it and a cheap set-up gets the repeats it
// needs to be steady.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2.0 // seconds
)

// setupMeter times a workload's set-ups. The first is the one the run uses.
// The repeats are thrown away and spread evenly over the measured loop, one
// between two ops whenever the loop has used the next share of its time
// box: a slow spell of the machine lasts seconds, and repeats taken back to
// back would all fall inside it or all outside.
type setupMeter struct {
	s       samples
	reps    int     // planned, the first included
	peakRSS float64 // high-water mark before the first repeat, MB
}

// startSetup times the run's own set-up and plans the repeats from it.
func startSetup(first func()) *setupMeter {
	t := timeIt(first)
	reps := min(max(int(setupBudget/t), minSetupReps), maxSetupReps)
	return &setupMeter{s: samples{t}, reps: reps}
}

// spread runs one more set-up if one is due. Its time does not count against
// the loop's time box, and its garbage is collected before the next op.
func (m *setupMeter) spread(dl *deadline, again func()) {
	if k := len(m.s); k >= m.reps || dl.used() < float64(k)/float64(m.reps) {
		return
	}
	if len(m.s) == 1 {
		m.peakRSS = peakRSSMB()
	}
	t0 := time.Now()
	m.s = append(m.s, timeIt(again))
	runtime.GC()
	dl.pause(time.Since(t0).Seconds())
}

// runPeakRSSMB is the high-water resident set of the run without its
// repeated set-ups: a process sets up once, and when a repeat's garbage is
// collected decides how far it lifts the mark.
func (m *setupMeter) runPeakRSSMB() float64 {
	if m.peakRSS > 0 {
		return m.peakRSS
	}
	return peakRSSMB()
}

// runCtx is one run's state, shared with the workload.
type runCtx struct {
	seed    uint64
	seconds float64
	traced  bool
	short   bool   // tiny shapes, for bench_test.go
	tmpDir  string // scratch files of this run, removed at exit
	tr      *tracer
	rep     *report
	detail  map[string]any
}

// measureSeconds is the time box of the main measured loop. The traced run
// spends part of its budget replaying cells, so its loop is shorter.
func (c *runCtx) measureSeconds() float64 {
	if c.traced {
		return 0.5 * c.seconds
	}
	return c.seconds
}

// opTracer returns the tracer for op: in the traced run ops alternate spans
// on and off, and the two sets of timings give the tracing overhead.
func (c *runCtx) opTracer(op int) *tracer {
	if op%2 == 1 {
		return nil
	}
	return c.tr
}

// overheadMeter splits a traced run's primary timings by whether the op
// recorded spans.
type overheadMeter struct{ traced, plain samples }

func (o *overheadMeter) add(tr *tracer, seconds float64) {
	if tr != nil {
		o.traced = append(o.traced, seconds)
	} else {
		o.plain = append(o.plain, seconds)
	}
}

func (o *overheadMeter) publish(c *runCtx) {
	if len(o.traced) > 0 && len(o.plain) > 0 {
		c.rep.set("trace.overhead_frac", o.traced.median()/o.plain.median()-1)
	}
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "all":
			os.Exit(allMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (lasso_tall, var_network, dist_mix, stream_serve)")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace and detail files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace != 0, false, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(w *workload, seed uint64, seconds float64, traced, short bool, outDir string) (*result, error) {
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	started := time.Now()
	tmp, err := os.MkdirTemp(outDir, "tmp-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{
		seed: seed, seconds: seconds, traced: traced, short: short,
		tmpDir: tmp, rep: newReport(), detail: make(map[string]any),
	}
	if traced {
		c.tr = newTracer()
	}
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOARCH: runtime.GOARCH, Seed: seed, Seconds: seconds, Traced: traced,
	}
	c.logf("workload %s  seed %d  seconds %g  traced %v  nproc %d  GOMAXPROCS %d  %s",
		w.Name, seed, seconds, traced, env.NProc, env.GOMAXPROCS, env.GoVersion)
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		if err := c.tr.write(filepath.Join(outDir, w.Name+".trace.json")); err != nil {
			return nil, err
		}
		for _, s := range c.tr.summary() {
			c.logf("span %-28s n=%-4d p50 %10.3f ms  self %10.3f ms", s.name, s.n, 1e3*s.total, 1e3*s.self)
		}
	}
	res := &result{
		Correct: c.rep.failed == 0, Attempted: c.rep.attempted, Failed: c.rep.failed,
		Metrics: make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := c.rep.metrics[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s did not report %s", w.Name, d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		c.logf("%-36s %14.6g %s", d.Name, v, d.Unit)
	}
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	for name := range c.rep.metrics {
		if !declared[name] {
			return nil, fmt.Errorf("%s reported undeclared metric %s", w.Name, name)
		}
	}
	for _, n := range c.rep.notes {
		c.logf("FAILED %s", n)
	}
	c.logf("attempted %d  failed %d  fail_frac %.6f  run wall %.1f s", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), time.Since(started).Seconds())

	kind := "e2e"
	if traced {
		kind = "traced"
	}
	c.detail["env"] = env
	c.detail["result"] = res
	data, err := json.MarshalIndent(c.detail, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, w.Name+"."+kind+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}
