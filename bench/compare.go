package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRecord is one run of one workload inside a set file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Result   *result `json:"result"`
}

// runSet is what `all` writes and `compare` reads.
type runSet struct {
	Schema  string      `json:"schema"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

const setSchema = "uoivar/bench-set/v1"

// allMain runs every workload, one process per run so that peak_rss_mb and
// setup_s belong to that workload alone: --runs untraced runs on
// consecutive seeds, then one traced run.
func allMain(args []string) int {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "untraced runs per workload, on seeds seed, seed+1, ...")
	seed := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 25, "length of each measured loop")
	out := fs.String("out", "", "write the set to this file (required)")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: bench all [--runs N] [--seed S] [--seconds T] --out set.json")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	set := runSet{Schema: setSchema, Seconds: *seconds}
	code := 0
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			rec := runRecord{Workload: w.Name, Seed: *seed + uint64(i), Traced: i == *runs}
			if rec.Traced {
				rec.Seed = *seed
			}
			trace := "0"
			if rec.Traced {
				trace = "1"
			}
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatUint(rec.Seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, rec.Seed, err)
				code = 1
			}
			if rec.Result = lastResult(stdout); rec.Result != nil {
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) *result {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if json.Unmarshal([]byte(last), &r) != nil || r.Metrics == nil {
		return nil
	}
	return &r
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, setSchema)
	}
	return &s, nil
}

// values collects one metric over a set's runs of one workload.
func (s *runSet) values(workload, metric string, traced bool) samples {
	var out samples
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (s *runSet) failed(workload string) (failed, attempted int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return
}

// spread is the interquartile range over the median.
func spread(v samples) float64 {
	if m := v.median(); len(v) > 1 && m != 0 {
		return (v.quantile(0.75) - v.quantile(0.25)) / m
	}
	return 0
}

// verdict judges B against A for one metric: how much worse B's median is
// as a share of A's, and what that means given the bound and the spread.
func verdict(a, b samples, def metricDef) (worse float64, status string) {
	ma, mb := a.median(), b.median()
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	sa, sb := a.sorted(), b.sorted()
	allBetter := sb[len(sb)-1] < sa[0]
	if def.Better == "higher" {
		worse = -worse
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case max(spread(a), spread(b)) > def.Bound && !allBetter:
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// exactCounts are per-layer counts that repeat exactly between runs of one
// program on one seed; compare flags any that differ.
var exactCounts = []string{
	"admm.iters_per_fit", "admm.solves_per_fit",
	"mpi.lasso_calls_per_fit", "mpi.lasso_mb_per_fit", "mpi.var_calls_per_fit", "mpi.var_mb_per_fit",
	"uoi.support_f1", "uoi.coef_rel_err",
}

// compareMain prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound and a verdict. It exits non-zero on any
// regression and when B fails more operations than A.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-16s %13s %13s %16s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.Name, def.Name, false), b.values(w.Name, def.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-16s missing from one set\n", w.Name, def.Name)
				code = 1
				continue
			}
			_, status := verdict(va, vb, def)
			if status == "regressed" {
				code = 1
			}
			fmt.Printf("%-13s %-16s %13.6g %13.6g %16.4f %6.1f%% %6.1f%%  %s\n", w.Name, def.Name, va.median(), vb.median(),
				vb.median()/va.median(), 100*max(spread(va), spread(vb)), 100*def.Bound, status)
		}
		fa, na := a.failed(w.Name)
		fb, nb := b.failed(w.Name)
		status := "ok"
		if float64(fb)*float64(max(na, 1)) > float64(fa)*float64(max(nb, 1)) {
			status, code = "raised", 1
		}
		fmt.Printf("%-13s %-16s %13s %13s %41s  %s\n", w.Name, "failed/attempted", fmt.Sprintf("%d/%d", fa, na), fmt.Sprintf("%d/%d", fb, nb), "", status)
		for _, name := range exactCounts {
			va, vb := a.values(w.Name, name, true), b.values(w.Name, name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status := "same"
			if va.median() != vb.median() {
				status = "differs"
			}
			fmt.Printf("%-13s %-26s %13.10g %13.10g  %s\n", w.Name, name, va.median(), vb.median(), status)
		}
	}
	return code
}
