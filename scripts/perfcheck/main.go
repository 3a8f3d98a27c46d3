// Command perfcheck validates a PerfReport JSON artifact (the file uoifit
// writes for -perf-report) through the same parser the analysis tooling
// uses, trace.ParsePerfReport — the report-side half of the observability
// round-trip guarantee: everything the fit writes must parse back.
//
// Usage:
//
//	go run ./scripts/perfcheck perf.json
//	go run ./scripts/perfcheck -ranks 8 -require-comm collective perf.json
//
// Flags:
//
//	-ranks N          fail unless the report carries exactly N rank entries
//	-require-comm c   fail unless every rank has a comm row whose category
//	                  starts with c (repeatable via commas); use
//	                  "p2p[row]" to demand per-communicator
//	                  attribution from a grid fit
//
// Exit status 0 means the report parses and all requirements hold; 1 means
// validation or a requirement failed; 2 means bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"uoivar/internal/trace"
)

func main() {
	ranks := flag.Int("ranks", 0, "required rank-entry count (0 = any)")
	requireComm := flag.String("require-comm", "", "comma-separated comm category prefixes every rank must carry")
	quiet := flag.Bool("q", false, "suppress the summary on success")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfcheck [-ranks N] [-require-comm cats] report.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfcheck:", err)
		os.Exit(1)
	}
	report, err := trace.ParsePerfReport(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfcheck:", err)
		os.Exit(1)
	}
	if *ranks > 0 && len(report.Ranks) != *ranks {
		fmt.Fprintf(os.Stderr, "perfcheck: %d rank entries, want %d\n", len(report.Ranks), *ranks)
		os.Exit(1)
	}
	if *requireComm != "" {
		for _, want := range strings.Split(*requireComm, ",") {
			want = strings.TrimSpace(want)
			for _, rp := range report.Ranks {
				found := false
				for _, c := range rp.Comm {
					if strings.HasPrefix(c.Category, want) {
						found = true
						break
					}
				}
				if !found {
					fmt.Fprintf(os.Stderr, "perfcheck: rank %d has no %q comm row\n", rp.Rank, want)
					os.Exit(1)
				}
			}
		}
	}
	if !*quiet {
		var bytes int64
		var wait float64
		for _, rp := range report.Ranks {
			for _, c := range rp.Comm {
				if !strings.Contains(c.Category, "[") { // skip labeled breakdown rows
					bytes += c.Bytes
					wait += c.WaitSeconds
				}
			}
		}
		fmt.Printf("perfcheck ok: %s, %d ranks, %.3fs wall, %d comm bytes, %.4fs wait\n",
			report.Name, len(report.Ranks), report.WallSeconds, bytes, wait)
	}
}
