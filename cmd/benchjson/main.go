// Command benchjson runs a curated subset of the repo's benchmarks
// programmatically (via testing.Benchmark) and serializes the results as
// machine-readable JSON — the BENCH_PR2.json artifact that CI uploads and
// the perf-regression tooling diffs across PRs.
//
// The report is deliberately timestamp-free so that re-running it on
// unchanged code produces a semantically identical file (only the measured
// numbers move); provenance lives in git, not in the artifact.
//
// Usage:
//
//	benchjson              # write BENCH_PR2.json in the current directory
//	benchjson -o -         # write to stdout
//	benchjson -short       # cheaper variants of the expensive benches
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// bench runs fn under testing.Benchmark and records the result.
func (r *Report) bench(name string, fn func(b *testing.B)) {
	res := testing.Benchmark(fn)
	r.Benchmarks = append(r.Benchmarks, Result{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	})
	fmt.Fprintf(os.Stderr, "%-40s %12d ns/op  %8d allocs/op\n",
		name, int64(r.Benchmarks[len(r.Benchmarks)-1].NsPerOp), res.AllocsPerOp())
}

func fillDense(rng *resample.RNG, m *mat.Dense) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
}

func main() {
	out := flag.String("o", "BENCH_PR2.json", "output file (\"-\" = stdout)")
	short := flag.Bool("short", false, "cheaper variants of the expensive benches")
	flag.Parse()

	report := &Report{
		Schema:     BenchSchemaVersion,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// ---- trace overhead: the tentpole's <1%-when-disabled budget ----

	report.bench("trace/span-disabled", func(b *testing.B) {
		var tr *trace.Tracer // nil = disabled
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Start("phase")
			sp.End()
		}
	})
	report.bench("trace/span-enabled", func(b *testing.B) {
		tr := trace.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Start("phase")
			sp.End()
		}
	})
	report.bench("trace/counter-disabled", func(b *testing.B) {
		var tr *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Add("counter", 1)
		}
	})

	// ---- mat kernels: the gemm flop gate and worker budgets ----

	rng := resample.NewRNG(42)
	square := mat.NewDense(192, 192)
	squareB := mat.NewDense(192, 192)
	fillDense(rng, square)
	fillDense(rng, squareB)
	report.bench("mat/gemm-square-192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.Mul(square, squareB)
		}
	})

	// Tall-skinny product: m·n is tiny but m·n·k is large — the shape the
	// old row-count gate refused to parallelize.
	tall := mat.NewDense(64, 4096)
	thin := mat.NewDense(4096, 8)
	fillDense(rng, tall)
	fillDense(rng, thin)
	report.bench("mat/gemm-tall-skinny-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.MulWorkers(tall, thin, 1)
		}
	})
	report.bench("mat/gemm-tall-skinny-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.MulWorkers(tall, thin, 0)
		}
	})

	gram := mat.NewDense(512, 96)
	fillDense(rng, gram)
	report.bench("mat/ata-512x96", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.AtA(gram)
		}
	})

	spd := mat.AddRidge(mat.AtA(gram), 1)
	report.bench("mat/chol-blocked-96", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mat.NewCholeskyBlockedWorkers(spd, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	// ---- admm: one factorize-once/solve-many LASSO path ----

	n, p := 1024, 64
	if *short {
		n, p = 256, 32
	}
	reg := datagen.MakeRegression(7, n, p, &datagen.RegressionOptions{NNZ: 8, NoiseStd: 0.3})
	lambda := admm.LambdaMax(reg.X, reg.Y) / 50
	report.bench("admm/lasso", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := admm.Lasso(reg.X, reg.Y, lambda, &admm.Options{MaxIter: 2000}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// ---- uoi: serial and distributed fits, traced vs untraced ----

	b1, b2, q := 6, 4, 6
	if *short {
		b1, b2, q = 3, 2, 4
	}
	cfg := func(tr *trace.Tracer) *uoi.LassoConfig {
		return &uoi.LassoConfig{B1: b1, B2: b2, Q: q, Seed: 1, Trace: tr}
	}
	report.bench("uoi/lasso-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := uoi.Lasso(reg.X, reg.Y, cfg(nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
	report.bench("uoi/lasso-serial-traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := uoi.Lasso(reg.X, reg.Y, cfg(trace.New())); err != nil {
				b.Fatal(err)
			}
		}
	})
	const ranks = 4
	report.bench("uoi/lasso-distributed-4ranks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				lo, hi := admm.RowBlock(reg.X.Rows, c.Size(), c.Rank())
				at := cfg(nil)
				at.Placement = &uoi.Placement{Comm: c, Partitioned: true}
				_, err := uoi.Lasso(reg.X.SubRows(lo, hi), reg.Y[lo:hi], at)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	// Checkpointed engine (DESIGN.md §11): replicated data, durable cells,
	// a fresh checkpoint file per iteration. The delta vs lasso-serial is
	// the whole-fit cost of durability at the default save cadence.
	ckptDir, err := os.MkdirTemp("", "benchjson-ckpt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(ckptDir)
	report.bench("uoi/lasso-checkpointed-4ranks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(ckptDir, fmt.Sprintf("b%d.uoickpt", i))
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				ccfg := cfg(nil)
				ccfg.Checkpoint = &uoi.CheckpointConfig{Path: path}
				ccfg.Placement = &uoi.Placement{Comm: c}
				_, err := uoi.Lasso(reg.X, reg.Y, ccfg)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			os.Remove(path)
		}
	})

	// ---- grid: 2-D bootstrap × λ fits, tree/ring vs flat collectives ----

	if err := benchGrid(report, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// ---- serve: closed-loop inference load at 1/8/64 clients ----

	if err := benchServing(report, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// ---- fleet: replicated serving at 1/2/4 replicas + kill-and-recover ----

	if err := benchFleet(report, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// ---- stream: warm-vs-cold refit + ingest throughput ----

	if err := benchStream(report, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// ---- graph: 1024-channel all-pairs inference + top-k query QPS ----

	if err := benchGraph(report, *short); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}
