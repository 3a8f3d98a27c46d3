// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig4
//	experiments -all
//
// With -perf-report a process-wide kernel tracer is installed for the run
// and a PerfReport JSON with the aggregate kernel spans (mat/gemm, mat/ata,
// mat/chol, ...) plus per-rank communication rows (aggregated across every
// internal mpi world by world rank) is written afterwards; -debug-addr
// serves the live /healthz and /debug/uoivar endpoint; -pprof serves
// net/http/pprof and expvar for live inspection.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"uoivar/internal/experiments"
	"uoivar/internal/mat"
	"uoivar/internal/monitor"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("exp", "", "experiment to run (e.g. fig4, tab2, fig11)")
		all        = flag.Bool("all", false, "run every experiment")
		csv        = flag.String("csv", "", "write the scaling figures as CSV series into this directory")
		perfReport = flag.String("perf-report", "", "write aggregate kernel-span PerfReport JSON to this file (\"-\" = stdout)")
		debugAddr  = flag.String("debug-addr", "", "serve the live /healthz and /debug/uoivar endpoint on this address")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	if *debugAddr != "" {
		// Experiments launch many internal worlds, so the live per-rank comm
		// counters come from the process-wide aggregation (world rank r of
		// every Run folds into row r).
		mpi.EnableProcessStats(true)
		mon := monitor.New("experiments")
		mon.SetStats(mpi.ProcessStats)
		addr, err := mon.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println("debug endpoint on", addr)
		defer mon.Close()
	}
	var tr *trace.Tracer
	start := time.Now()
	if *perfReport != "" {
		// Process-wide kernel tracer: every mat kernel call in the run folds
		// into one aggregate entry (experiments run many fits, serial and
		// multi-rank, in one process — fit-level per-rank attribution belongs
		// to uoifit -perf-report). Communication rows are still reported per
		// world rank via the process-wide mpi aggregation.
		mpi.EnableProcessStats(true)
		tr = trace.New()
		mat.SetTracer(tr)
		defer writePerf(*perfReport, tr, start)
	}

	if *csv != "" {
		files, err := experiments.WriteCSV(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	}

	switch {
	case *list:
		for _, d := range experiments.List() {
			fmt.Printf("%-12s %s\n", d.Name, d.Description)
		}
	case *all:
		if err := experiments.RunAll(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case *exp != "":
		d, ok := experiments.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		fmt.Printf("######## %s — %s ########\n", d.Name, d.Description)
		if err := d.Run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writePerf emits the aggregate kernel report collected over the run: rank
// 0 carries the process-wide kernel spans, and every rank carries its
// communication meters aggregated across all internal mpi worlds — the same
// per-rank shape uoifit's report uses, so the same consumers parse both.
func writePerf(path string, tr *trace.Tracer, start time.Time) {
	mat.SetTracer(nil)
	stats := mpi.ProcessStats()
	n := len(stats)
	if n == 0 {
		n = 1
	}
	ranks := make([]trace.RankPerf, 0, n)
	for r := 0; r < n; r++ {
		var rp trace.RankPerf
		if r == 0 {
			rp = tr.RankPerf(0)
		} else {
			rp = trace.RankPerf{Rank: r, Phases: []trace.PhaseStat{}}
		}
		if r < len(stats) {
			rp.Comm = stats[r].Rows("")
		}
		rp.FinalizeCompute()
		ranks = append(ranks, rp)
	}
	report := trace.NewPerfReport("experiments", time.Since(start).Seconds(), ranks)
	var err error
	if path == "-" {
		err = report.WriteJSON(os.Stdout)
	} else {
		var f *os.File
		if f, err = os.Create(path); err == nil {
			err = report.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Println("perf report written to", path)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf report:", err)
	}
}
