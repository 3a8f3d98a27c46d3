// Command uoifit fits UoI models (and baselines) on HBF datasets over the
// in-process MPI runtime.
//
// UoI_LASSO on a regression file (response = last column):
//
//	uoifit -algo lasso -data data.hbf -ranks 8 -b1 20 -b2 10 -q 16
//
// UoI_VAR on a series file:
//
//	uoifit -algo var -data series.hbf -ranks 4 -order 1 -edges edges.txt
//
// Whole-network all-pairs edge inference (rank-sharded over targets,
// bit-identical to the serial driver at any -ranks):
//
//	uoifit -algo allpairs -data net.hbf -ranks 8 -b1 5 -q 8 -screen 64 \
//	       -model-out net.uoim -edges net.edges
//
// Baselines: -algo lasso-cv | lasso-bic | var-cv.
//
// Where a fit runs is one uoi.Placement built from the flags. By default
// UoI_LASSO has every rank read its own row block (-dist), and the ranks sum
// each bootstrap's Gram and run the serial cells, one bootstrap per rank:
// the serial fit of the blocks' rank-order concatenation (-dist conventional
// keeps file order); it takes no -pb or -pl. UoI_VAR holds the
// series on -readers reader ranks of each -pb × -pl group, broadcasts it
// once and fits it bit-identically to a serial fit. The paper's consensus
// ADMM and Kronecker assembly are library baselines (uoi.ConsensusADMM,
// uoi.KroneckerGets). -grid RxC replicates the data
// on R·C ranks, shards the cells over the bootstrap × λ grid and reassembles
// them with one Allreduce and one Allgather, and -checkpoint replicates it
// and journals the cells; both are bit-identical to a serial fit. A combination the library cannot
// run, such as -grid with -checkpoint, exits 2 like any usage error.
//
// Saving fitted models:
//
//	uoifit -algo var -data series.hbf -ranks 4 -model-out market.uoim
//
// writes rank 0's fitted model as a versioned .uoim artifact (sparse
// coefficients, fit config, seed, selection stats) that uoiserve loads and
// serves without refitting.
//
// Checkpoint/restart for long fits:
//
//	uoifit -algo var -data series.hbf -ranks 8 -checkpoint fit.uoickpt
//	uoifit -algo var -data series.hbf -ranks 2 -checkpoint fit.uoickpt -resume
//
// the first run writes every completed bootstrap cell durably (rank 0,
// atomic rename, cadence -ckpt-every); after a crash the second run skips
// the recorded cells, re-shards the rest across the new — here smaller —
// rank count, and produces coefficients bit-identical to an uninterrupted
// run. A missing, corrupt, or foreign checkpoint fails -resume with a typed
// error.
//
// Performance observability:
//
//	uoifit -algo lasso -data data.hbf -ranks 4 -perf-report perf.json
//
// writes a structured PerfReport (schema uoivar/perf-report/v2) with each
// rank's phase timings joined against its communication meters and per-peer
// traffic rows — the machine-readable form of the paper's
// computation-vs-communication breakdown. "-" writes to stdout.
//
// Event-timeline tracing:
//
//	uoifit -algo lasso -data data.hbf -ranks 4 \
//	       -trace-out run.trace.json -trace-summary
//
// records every rank's phase spans, communication calls (peer, tag, bytes,
// wait-vs-transfer) and injected faults on bounded per-rank ring buffers;
// -trace-out exports them as Chrome trace-event JSON (open in
// https://ui.perfetto.dev, one row per rank, flow arrows linking matched
// sends and receives) and -trace-summary prints the merged analysis:
// per-phase load imbalance, the critical path through the pipeline DAG, and
// per-rank barrier-wait attribution.
//
// Live monitoring: -debug-addr localhost:8090 serves /healthz,
// /debug/uoivar (JSON snapshot of in-flight phase, per-rank health and comm
// counters), /debug/vars, and /metrics (Prometheus exposition of the rank-0
// trace counters and per-rank MPI stats) while the fit runs. -pprof serves
// net/http/pprof, -cpuprofile writes a CPU profile for the whole run.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/distio"
	"uoivar/internal/graph"
	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/mpi"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// options carries every run parameter; the previous 15-positional-argument
// run() signature had become unreadable and unextendable.
type options struct {
	Algo  string
	Data  string
	Ranks int
	B1    int
	B2    int
	Q     int
	Ratio float64
	Seed  uint64
	Order int
	// MaxOrder bounds the BIC order search when Order ≤ 0.
	MaxOrder int
	PB       int
	PL       int
	Readers  int
	// Dist picks the lasso data-distribution scheme: "randomized"
	// (one-sided windows, the paper's default) or "conventional" (root
	// streams row blocks over p2p send/recv — Table II's baseline, and the
	// path that draws flow arrows in a Chrome trace).
	Dist  string
	Edges string
	Dot   string
	// PerfReport, when non-empty, enables tracing and writes the per-rank
	// PerfReport JSON to this path ("-" = stdout).
	PerfReport string
	// TraceOut, when non-empty, enables event recording and writes the
	// Chrome trace-event JSON to this path ("-" = stdout).
	TraceOut string
	// TraceSummary enables event recording and prints the merged timeline
	// analysis (load imbalance, critical path, wait attribution).
	TraceSummary bool
	// DebugAddr, when non-empty, serves the live metrics/health endpoint.
	DebugAddr string
	// KernelWorkers overrides the per-kernel-call worker budget (0 = derive
	// from rank count, <0 = full machine per call).
	KernelWorkers int
	// ModelOut, when non-empty, saves the fitted model (rank 0's result) as
	// a .uoim artifact servable by uoiserve.
	ModelOut string
	// Checkpoint, when non-empty, runs the fit in checkpointed mode:
	// completed bootstrap cells are written durably to this path (rank 0,
	// atomic) so a killed fit can restart with -resume. Checkpointed fits
	// replicate the full dataset on every rank and shard bootstraps, so the
	// result is bit-identical to a serial fit at any -ranks.
	Checkpoint string
	// Resume loads -checkpoint before fitting and skips recorded cells; the
	// resumed run may use a different (e.g. smaller) -ranks than the
	// original. A missing, corrupt, or foreign checkpoint fails with a
	// typed error.
	Resume bool
	// CkptEvery is the checkpoint save cadence in completed cells.
	CkptEvery int
	// Screen caps the per-target candidate predictors kept by the
	// sure-independence screen in the all-pairs driver (0 = default 64).
	Screen int
	// Grid, when non-empty, runs the fit on a 2-D "RxC" bootstrap × λ
	// process grid (R·C ranks, overriding -ranks) whose supports and
	// estimation winners meet in one world Allreduce and one Allgather.
	// Grid fits replicate the dataset on every rank and are bit-identical
	// to the serial fit at any shape.
	Grid string
}

// placement builds the fit's placement from the flags, leaving each rank to
// set its communicator: -grid is the replicated-data grid of R·C ranks (it
// sets -ranks), -checkpoint the journal over replicated data, and otherwise
// the data is partitioned: row blocks for UoI_LASSO, and for UoI_VAR the
// series on -readers reader ranks of each of the -pb × -pl groups. uoi
// rejects what it cannot run (-pb or -pl on UoI_LASSO among it) with
// ErrPlacement.
func (o *options) placement() (uoi.Placement, error) {
	if o.Grid != "" {
		shape, err := uoi.ParseGridShape(o.Grid)
		if err != nil {
			return uoi.Placement{}, err
		}
		o.Ranks = shape.Ranks()
		return uoi.Placement{Shape: shape}, nil
	}
	if o.Checkpoint != "" {
		return uoi.Placement{}, nil
	}
	at := uoi.Placement{Shape: uoi.GridShape{PB: o.PB, PL: o.PL}, Partitioned: true}
	if o.Algo == "var" {
		at.NReaders = min(o.Readers, o.groupSize())
	}
	return at, nil
}

// groupSize is the rank count of one -pb × -pl group.
func (o *options) groupSize() int { return max(o.Ranks/max(o.PB*o.PL, 1), 1) }

// ckpt builds the uoi checkpoint config from the flags (nil when
// checkpointing is off).
func (o *options) ckpt() *uoi.CheckpointConfig {
	if o.Checkpoint == "" {
		return nil
	}
	return &uoi.CheckpointConfig{Path: o.Checkpoint, Every: o.CkptEvery, Resume: o.Resume}
}

func main() {
	var (
		o          options
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.StringVar(&o.Algo, "algo", "lasso", "lasso | var | allpairs | lasso-cv | lasso-bic | var-cv")
	flag.StringVar(&o.Data, "data", "", "input HBF file")
	flag.IntVar(&o.Ranks, "ranks", 4, "simulated MPI ranks")
	flag.IntVar(&o.B1, "b1", 20, "selection bootstraps")
	flag.IntVar(&o.B2, "b2", 10, "estimation bootstraps")
	flag.IntVar(&o.Q, "q", 8, "λ-grid size")
	flag.Float64Var(&o.Ratio, "ratio", 1e-3, "λ_min/λ_max")
	flag.Uint64Var(&o.Seed, "seed", 1, "RNG seed")
	flag.IntVar(&o.Order, "order", 1, "VAR order (0 = select by BIC up to -maxorder)")
	flag.IntVar(&o.MaxOrder, "maxorder", 4, "maximum order considered when -order 0")
	flag.IntVar(&o.PB, "pb", 1, "bootstrap-level parallelism P_B (partitioned -algo var)")
	flag.IntVar(&o.PL, "pl", 1, "λ-level parallelism P_λ (partitioned -algo var)")
	flag.IntVar(&o.Readers, "readers", 2, "VAR reader ranks per group that hold the series (rank 0 broadcasts it)")
	flag.StringVar(&o.Dist, "dist", "randomized", "lasso data distribution: randomized | conventional")
	flag.StringVar(&o.Edges, "edges", "", "write the Granger edge list to this file (var algos)")
	flag.StringVar(&o.Dot, "dot", "", "write Graphviz DOT to this file (var algos)")
	flag.StringVar(&o.PerfReport, "perf-report", "", "write per-rank phase/comm PerfReport JSON to this file (\"-\" = stdout)")
	flag.StringVar(&o.TraceOut, "trace-out", "", "write the per-rank event timeline as Chrome trace JSON to this file (\"-\" = stdout)")
	flag.BoolVar(&o.TraceSummary, "trace-summary", false, "print the merged timeline analysis (imbalance, critical path, waits)")
	flag.StringVar(&o.DebugAddr, "debug-addr", "", "serve the live /healthz and /debug/uoivar endpoint on this address")
	flag.IntVar(&o.KernelWorkers, "kernel-workers", 0, "per-kernel-call worker budget (0 = GOMAXPROCS/ranks, <0 = full machine)")
	flag.StringVar(&o.ModelOut, "model-out", "", "save the fitted model as a .uoim artifact to this path")
	flag.StringVar(&o.Checkpoint, "checkpoint", "", "checkpoint the fit to this file (lasso | var); restart with -resume")
	flag.BoolVar(&o.Resume, "resume", false, "resume the fit from -checkpoint, skipping completed cells")
	flag.IntVar(&o.CkptEvery, "ckpt-every", 1, "checkpoint save cadence in completed bootstrap cells")
	flag.IntVar(&o.Screen, "screen", 0, "all-pairs per-target screening cap (0 = 64)")
	flag.StringVar(&o.Grid, "grid", "", "run on a 2-D RxC bootstrap × λ process grid (ranks = R·C; bit-identical to serial)")
	flag.Parse()
	if o.Data == "" {
		fmt.Fprintln(os.Stderr, "missing -data")
		os.Exit(2)
	}
	if o.Resume && o.Checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}
	if o.Checkpoint != "" && o.Algo != "lasso" && o.Algo != "var" {
		fmt.Fprintf(os.Stderr, "-checkpoint supports -algo lasso | var, not %q\n", o.Algo)
		os.Exit(2)
	}
	if (o.PB > 1 || o.PL > 1) && (o.Grid != "" || o.Checkpoint != "") {
		fmt.Fprintln(os.Stderr, "-pb/-pl shape the partitioned fits; -grid and -checkpoint fits do not take them")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		expvar.Publish("uoifit.algo", expvar.Func(func() any { return o.Algo }))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		if errors.Is(err, uoi.ErrPlacement) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.Grid != "" && o.Algo != "lasso" && o.Algo != "var" {
		return fmt.Errorf("-grid applies to -algo lasso | var, not %q", o.Algo)
	}
	if o.Order <= 0 && (o.Algo == "var" || o.Algo == "var-cv") {
		series, err := readSeries(o.Data)
		if err != nil {
			return err
		}
		best, scores, err := varsim.SelectOrder(series, o.MaxOrder, varsim.BIC)
		if err != nil {
			return err
		}
		for _, sc := range scores {
			fmt.Printf("order %d: BIC %.2f (RSS %.4g)\n", sc.Order, sc.Score, sc.RSS)
		}
		fmt.Printf("selected order %d by BIC\n", best)
		o.Order = best
	}
	switch o.Algo {
	case "lasso":
		return runLasso(o)
	case "var":
		return runVAR(o)
	case "allpairs":
		return runAllPairs(o)
	case "lasso-cv", "lasso-bic":
		return runLassoBaseline(o)
	case "var-cv":
		return runVARBaseline(o)
	default:
		return fmt.Errorf("unknown algorithm %q", o.Algo)
	}
}

// perfCollector gathers per-rank observability from inside an mpi.Run body:
// PerfReport entries (-perf-report), event timelines (-trace-out /
// -trace-summary, via a shared-epoch RecorderSet threaded into the mpi
// runtime), and the live debug endpoint (-debug-addr). Fully disabled — nil
// tracers, nil recorders, no output — when no observability flag is set.
type perfCollector struct {
	path  string
	name  string
	o     *options
	recs  []*trace.Recorder
	mon   *monitor.Server
	mu    sync.Mutex
	ranks []trace.RankPerf
	extra map[string]any
	start time.Time
}

func newPerfCollector(o *options, name string) *perfCollector {
	p := &perfCollector{path: o.PerfReport, name: name, o: o, start: time.Now()}
	if o.TraceOut != "" || o.TraceSummary || o.DebugAddr != "" {
		p.recs = trace.NewRecorderSet(o.Ranks, trace.DefaultEventCapacity)
	}
	return p
}

// runOpts threads the recorders into the mpi runtime.
func (p *perfCollector) runOpts() mpi.RunOptions {
	return mpi.RunOptions{Recorders: p.recs}
}

// serve starts the live endpoint when -debug-addr is set. The endpoint also
// exposes GET /metrics: the monitor renders rank 0's trace registry and the
// per-rank MPI stats there at scrape time, so the same Prometheus tooling
// that watches the serving tier can watch a long fit.
func (p *perfCollector) serve() error {
	if p.o.DebugAddr == "" {
		return nil
	}
	p.mon = monitor.New(p.name)
	p.mon.SetMetrics(telemetry.NewRegistry())
	p.mon.SetRecorders(p.recs)
	p.mon.SetState(func() map[string]any {
		m := map[string]any{"algo": p.o.Algo, "ranks": p.o.Ranks, "b1": p.o.B1, "b2": p.o.B2}
		p.mu.Lock()
		for k, v := range p.extra {
			m[k] = v
		}
		p.mu.Unlock()
		return m
	})
	addr, err := p.mon.Serve(p.o.DebugAddr)
	if err != nil {
		return err
	}
	fmt.Println("debug endpoint on", addr)
	return nil
}

// register wires the world's health and per-rank comm counters into the
// live endpoint (both sources are safe for concurrent readers mid-run).
func (p *perfCollector) register(c *mpi.Comm) {
	if p.mon == nil || c.Rank() != 0 {
		return
	}
	p.mon.SetHealth(c.Health)
	p.mon.SetStats(c.AllStats)
}

// setState publishes a key into the live endpoint's state map.
func (p *perfCollector) setState(k string, v any) {
	if p.mon == nil {
		return
	}
	p.mu.Lock()
	if p.extra == nil {
		p.extra = map[string]any{}
	}
	p.extra[k] = v
	p.mu.Unlock()
}

// tracer returns the rank's tracer (with its event recorder attached when
// event recording is on), or nil when all collection is off.
func (p *perfCollector) tracer(rank int) *trace.Tracer {
	var rec *trace.Recorder
	if rank < len(p.recs) {
		rec = p.recs[rank]
	}
	if p.path == "" && rec == nil {
		return nil
	}
	tr := trace.New().WithRecorder(rec)
	if rank == 0 && p.mon != nil {
		p.mon.SetTracer(tr)
	}
	return tr
}

// collect joins the rank's spans with its comm meters and stores the entry.
func (p *perfCollector) collect(c *mpi.Comm, tr *trace.Tracer) {
	if p.path == "" || tr == nil {
		return
	}
	rp := uoi.RankPerf(c, tr)
	p.mu.Lock()
	p.ranks = append(p.ranks, rp)
	p.mu.Unlock()
}

// write emits everything the flags asked for: the timeline summary, the
// Chrome trace, and the PerfReport; it also stops the debug endpoint.
func (p *perfCollector) write() error {
	if p.mon != nil {
		defer p.mon.Close()
	}
	if p.o.TraceSummary && p.recs != nil {
		fmt.Print(trace.AnalyzeTimeline(p.recs).Format())
	}
	if p.o.TraceOut != "" {
		chrome := func(w io.Writer) error { return trace.WriteChromeTrace(w, p.name, p.recs) }
		if err := writeOut(p.o.TraceOut, "chrome trace", chrome); err != nil {
			return err
		}
	}
	if p.path == "" {
		return nil
	}
	return writeOut(p.path, "perf report",
		trace.NewPerfReport(p.name, time.Since(p.start).Seconds(), p.ranks).WriteJSON)
}

// writeOut renders what to path ("-" is stdout) and says where it went.
func writeOut(path, what string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(what, "written to", path)
	return nil
}

func runLasso(o *options) error {
	at, err := o.placement()
	if err != nil {
		return err
	}
	base := uoi.LassoConfig{B1: o.B1, B2: o.B2, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
		KernelWorkers: o.KernelWorkers, Checkpoint: o.ckpt(), Placement: &at}
	if err := base.CheckPlacement(); err != nil {
		return err
	}
	// Replicated placements hold the full dataset on every rank (the P_B
	// bootstrap-sharding axis), so every cell is rank-independent; a
	// partitioned one shards rows with distio and sums each cell's
	// statistics over the ranks.
	var xFull *mat.Dense
	var yFull []float64
	if !at.Partitioned {
		if xFull, yFull, err = readRegression(o.Data); err != nil {
			return err
		}
	}
	perf := newPerfCollector(o, "uoi_lasso")
	result, err := onRanks(perf, func(c *mpi.Comm, tr *trace.Tracer) (*uoi.Result, error) {
		cfg, at := base, at
		at.Comm = c
		cfg.Trace, cfg.Placement = tr, &at
		if !at.Partitioned {
			return uoi.Lasso(xFull, yFull, &cfg)
		}
		var block *distio.Block
		var err error
		switch o.Dist {
		case "", "randomized":
			block, err = distio.RandomizedDistribute(c, o.Data, o.Seed)
		case "conventional":
			block, err = distio.ConventionalDistribute(c, o.Data)
		default:
			return nil, fmt.Errorf("unknown -dist %q (randomized | conventional)", o.Dist)
		}
		if err != nil {
			return nil, err
		}
		x, y := block.XY()
		return uoi.Lasso(x, y, &cfg)
	})
	if err != nil {
		return err
	}
	perf.setState("bootstrap", result.Bootstrap)
	if o.Checkpoint != "" {
		fmt.Println("checkpoint at", o.Checkpoint)
	}
	fmt.Printf("UoI_LASSO: p=%d, |support|=%d, lasso fits=%d, OLS fits=%d, unconverged solves=%d, kernel=%s\n",
		len(result.Beta), len(result.SelectedSupport), result.Diag.LassoFits, result.Diag.OLSFits, result.Diag.Unconverged, mat.Kernel())
	fmt.Printf("selection %.3fs, estimation %.3fs\n",
		result.Diag.SelectionTime.Seconds(), result.Diag.EstimationTime.Seconds())
	for _, j := range result.SelectedSupport {
		fmt.Printf("beta[%d] = %.6f\n", j, result.Beta[j])
	}
	if err := saveModel(o.ModelOut, model.FromLasso(result, &uoi.LassoConfig{
		B1: o.B1, B2: o.B2, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
	})); err != nil {
		return err
	}
	return perf.write()
}

// onRanks serves the live endpoint, runs fit on every rank of the world
// under the observability flags' tracers and collectors, and returns rank
// 0's result.
func onRanks[R any](perf *perfCollector, fit func(c *mpi.Comm, tr *trace.Tracer) (R, error)) (R, error) {
	var out R
	if err := perf.serve(); err != nil {
		return out, err
	}
	err := mpi.RunWithOptions(perf.o.Ranks, perf.runOpts(), func(c *mpi.Comm) error {
		perf.register(c)
		tr := perf.tracer(c.Rank())
		res, err := fit(c, tr)
		if err != nil {
			return err
		}
		perf.collect(c, tr)
		if c.Rank() == 0 {
			out = res
		}
		return nil
	})
	return out, err
}

// saveModel writes rank 0's fitted model as a servable artifact when
// -model-out is set.
func saveModel(path string, art *model.Artifact) error {
	if path == "" {
		return nil
	}
	if err := model.Save(path, art); err != nil {
		return err
	}
	fmt.Println("model artifact written to", path)
	return nil
}

// readRegression reads a full [X|y] HBF file (response = last column) into
// memory — the replicated-data path used by checkpointed fits and the
// serial baselines.
func readRegression(data string) (*mat.Dense, []float64, error) {
	full, err := readSeries(data)
	if err != nil {
		return nil, nil, err
	}
	p := full.Cols - 1
	idx := make([]int, p)
	for i := range idx {
		idx[i] = i
	}
	return full.SelectCols(idx), full.Col(p, nil), nil
}

func readSeries(data string) (*mat.Dense, error) {
	f, err := hbf.Open(data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	all, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return mat.NewDenseData(f.Meta.Rows, f.Meta.Cols, all), nil
}

func runVAR(o *options) error {
	at, err := o.placement()
	if err != nil {
		return err
	}
	base := uoi.VARConfig{Order: o.Order, B1: o.B1, B2: o.B2, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
		KernelWorkers: o.KernelWorkers, Checkpoint: o.ckpt(), Placement: &at}
	if err := base.CheckPlacement(); err != nil {
		return err
	}
	series, err := readSeries(o.Data)
	if err != nil {
		return err
	}
	perf := newPerfCollector(o, "uoi_var")
	result, err := onRanks(perf, func(c *mpi.Comm, tr *trace.Tracer) (*uoi.VARResult, error) {
		cfg, at := base, at
		at.Comm = c
		cfg.Trace, cfg.Placement = tr, &at
		// A partitioned fit's series sits on the leading reader ranks of
		// every ADMM group; replicated placements hold it on every rank.
		s := series
		if at.Partitioned && c.Rank()%o.groupSize() >= at.NReaders {
			s = nil
		}
		return uoi.VAR(s, &cfg)
	})
	if err != nil {
		return err
	}
	if o.Checkpoint != "" {
		fmt.Println("checkpoint at", o.Checkpoint)
	}
	if err := reportVAR(result.A, series.Cols, o.Edges, o.Dot,
		fmt.Sprintf("UoI_VAR: p=%d order=%d, Kron %.3fs, selection %.3fs, estimation %.3fs, unconverged solves=%d, kernel=%s",
			series.Cols, o.Order, result.KronTime.Seconds(),
			result.Diag.SelectionTime.Seconds(), result.Diag.EstimationTime.Seconds(), result.Diag.Unconverged, mat.Kernel())); err != nil {
		return err
	}
	if err := saveModel(o.ModelOut, model.FromVAR(result, &uoi.VARConfig{
		Order: o.Order, B1: o.B1, B2: o.B2, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
	})); err != nil {
		return err
	}
	return perf.write()
}

// runAllPairs drives the rank-sharded all-pairs edge-inference engine:
// every channel becomes a screened mini-UoI regression target, targets
// shard round-robin across ranks, and an Allgather of fixed-size slots
// reassembles the coefficient matrices — bit-identical to -ranks 1.
func runAllPairs(o *options) error {
	series, err := readSeries(o.Data)
	if err != nil {
		return err
	}
	perf := newPerfCollector(o, "uoi_allpairs")
	result, err := onRanks(perf, func(c *mpi.Comm, tr *trace.Tracer) (*uoi.AllPairsResult, error) {
		return uoi.AllPairs(series, &uoi.AllPairsConfig{
			Order: o.Order, NB: o.B1, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
			Screen: o.Screen, Workers: o.KernelWorkers, Trace: tr, Placement: &uoi.Placement{Comm: c},
		})
	})
	if err != nil {
		return err
	}
	perf.setState("edges", result.Edges)
	if err := reportVAR(result.A, series.Cols, o.Edges, o.Dot,
		fmt.Sprintf("all-pairs: p=%d order=%d ranks=%d, rank 0 fitted %d/%d targets (%d lasso fits)",
			series.Cols, o.Order, o.Ranks, result.Diag.Targets, series.Cols, result.Diag.LassoFits)); err != nil {
		return err
	}
	if err := saveModel(o.ModelOut, model.FromVAR(result.VARResult(), &uoi.VARConfig{
		Order: o.Order, B1: o.B1, Q: o.Q, LambdaRatio: o.Ratio, Seed: o.Seed,
	})); err != nil {
		return err
	}
	return perf.write()
}

func runLassoBaseline(o *options) error {
	x, y, err := readRegression(o.Data)
	if err != nil {
		return err
	}
	var res *uoi.BaselineResult
	if o.Algo == "lasso-cv" {
		res, err = uoi.LassoCV(x, y, 5, o.Q, o.Seed)
	} else {
		res, err = uoi.LassoBIC(x, y, o.Q)
	}
	if err != nil {
		return err
	}
	sup := admm.Support(res.Beta, 1e-7)
	fmt.Printf("%s: λ=%.6f, |support|=%d\n", o.Algo, res.Lambda, len(sup))
	for _, j := range sup {
		fmt.Printf("beta[%d] = %.6f\n", j, res.Beta[j])
	}
	return saveModel(o.ModelOut, model.FromLasso(&uoi.Result{Beta: res.Beta, SelectedSupport: sup}, nil))
}

func runVARBaseline(o *options) error {
	series, err := readSeries(o.Data)
	if err != nil {
		return err
	}
	res, a, mu, err := uoi.VARLassoCV(series, o.Order, true, 5, o.Q, o.Seed)
	if err != nil {
		return err
	}
	if err := reportVAR(a, series.Cols, o.Edges, o.Dot,
		fmt.Sprintf("var-cv baseline: p=%d order=%d λ=%.6f", series.Cols, o.Order, res.Lambda)); err != nil {
		return err
	}
	return saveModel(o.ModelOut, model.FromVAR(&uoi.VARResult{A: a, Mu: mu},
		&uoi.VARConfig{Order: o.Order, Q: o.Q, Seed: o.Seed}))
}

func reportVAR(a []*mat.Dense, p int, edgesPath, dotPath, header string) error {
	edges := varsim.GrangerEdges(a, 1e-7, false)
	fmt.Println(header)
	fmt.Printf("Granger edges: %d of %d possible\n", len(edges), p*(p-1))
	g, err := graph.FromGranger(p, edges)
	if err != nil {
		return err
	}
	if edgesPath != "" {
		if err := os.WriteFile(edgesPath, []byte(g.EdgeList(nil)), 0o644); err != nil {
			return err
		}
		fmt.Println("edge list written to", edgesPath)
	}
	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(g.DOT("granger", nil)), 0o644); err != nil {
			return err
		}
		fmt.Println("DOT written to", dotPath)
	}
	return nil
}
