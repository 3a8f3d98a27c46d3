package main

// The catalogue is the benchmark's declared surface: BENCHMARK.json lists
// the same names, and bench_test.go checks the two agree.

type workload struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening of the median
}

var workloads = []workload{
	{"lasso_tall", "kernel-bound cold UoI-LASSO fits: each selection cell rebuilds an 8192x256 Gram and its Cholesky, solves are cheap; Gram work shows here only", runLassoTall},
	{"var_network", "the paper's Granger-network fit: one small Gram per bootstrap shared by 60 equations x 16 lambdas, so the ADMM solve loop dominates and Gram work is bypassed", runVARNetwork},
	{"dist_mix", "2-rank job queue: HBF read, randomized distribution, consensus-ADMM lasso and Kronecker-assembled VAR, artifact write in the timed path; comm-bound", runDistMix},
	{"stream_serve", "ingest, warm anchored refit, hot swap and batched forecasts over loopback HTTP; the 2 ms batch window, not compute, sets forecast latency", runStreamServe},
}

// Every workload reports every end-to-end metric. op and aux name the
// workload's primary and secondary user-visible operation:
//
//	lasso_tall    op = FitLasso                  aux = load artifact, score 4096 rows
//	var_network   op = FitVAR                    aux = load artifact, forecast 256 steps
//	dist_mix      op = 2-rank lasso job          aux = 2-rank VAR job
//	stream_serve  op = ingest to fresh forecast  aux = one forecast request
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p25_ms", "ms", "lower", 0.25},
	{"aux_p25_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"pred_err_ratio", "ratio", "lower", 0.05},
}

// Per-layer metrics come from the traced run only. A layer a workload does
// not pass through reports 0 there.
var perLayer = []metricDef{
	{"mat.ata_ms", "ms", "lower", 0},
	{"mat.ata_gflops", "GFLOP/s", "higher", 0},
	{"mat.chol_ms", "ms", "lower", 0},
	{"mat.select_rows_ms", "ms", "lower", 0},
	{"mat.select_rows_mb", "MB", "lower", 0},
	{"mat.mulabt_us", "us", "lower", 0},

	{"admm.factor_ms", "ms", "lower", 0},
	{"admm.solve_us", "us", "lower", 0},
	{"admm.us_per_iter", "us", "lower", 0},
	{"admm.iters_per_solve", "count", "lower", 0},
	{"admm.iters_per_fit", "count", "lower", 0},
	{"admm.solves_per_fit", "count", "lower", 0},
	{"admm.ols_us", "us", "lower", 0},
	{"admm.consensus_solve_ms", "ms", "lower", 0},
	{"admm.consensus_iters", "count", "lower", 0},

	{"resample.draw_us", "us", "lower", 0},

	{"uoi.selection_s", "s", "lower", 0},
	{"uoi.estimation_s", "s", "lower", 0},
	{"uoi.other_s", "s", "lower", 0},
	{"uoi.first_fit_s", "s", "lower", 0},
	{"uoi.selection_explained", "ratio", "higher", 0},
	{"uoi.warm_iters_ratio", "ratio", "lower", 0},
	{"uoi.cells_reused_frac", "ratio", "higher", 0},
	{"uoi.dist_vs_serial_maxdiff", "abs", "lower", 0},
	{"uoi.support_f1", "ratio", "higher", 0},
	{"uoi.coef_rel_err", "ratio", "lower", 0},

	{"mpi.lasso_calls_per_fit", "count", "lower", 0},
	{"mpi.lasso_mb_per_fit", "MB", "lower", 0},
	{"mpi.lasso_wait_s_per_fit", "s", "lower", 0},
	{"mpi.var_calls_per_fit", "count", "lower", 0},
	{"mpi.var_mb_per_fit", "MB", "lower", 0},
	{"mpi.var_wait_s_per_fit", "s", "lower", 0},
	{"mpi.allreduce_us", "us", "lower", 0},
	{"mpi.get_us", "us", "lower", 0},
	{"mpi.run_spawn_us", "us", "lower", 0},
	{"mpi.lasso_1rank_p50_ms", "ms", "lower", 0},
	{"mpi.scaling_eff", "ratio", "higher", 0},

	{"hbf.create_ms", "ms", "lower", 0},
	{"hbf.create_mb_per_s", "MB/s", "higher", 0},
	{"hbf.read_ms", "ms", "lower", 0},
	{"hbf.read_mb_per_s", "MB/s", "higher", 0},
	{"hbf.retries", "count", "lower", 0},

	{"distio.distribute_ms", "ms", "lower", 0},
	{"distio.mb_moved", "MB", "lower", 0},

	{"kron.assemble_ms", "ms", "lower", 0},
	{"kron.assemble_mb", "MB", "lower", 0},
	{"kron.gets_per_assemble", "count", "lower", 0},

	{"model.encode_ms", "ms", "lower", 0},
	{"model.save_ms", "ms", "lower", 0},
	{"model.artifact_kb", "kB", "lower", 0},
	{"model.decode_ms", "ms", "lower", 0},
	{"model.forecast_us", "us", "lower", 0},

	{"stream.ingest_ms", "ms", "lower", 0},
	{"stream.refit_p50_ms", "ms", "lower", 0},
	{"stream.refit_iters", "count", "lower", 0},
	{"stream.publish_ms", "ms", "lower", 0},
	{"stream.freshness_p75_ms", "ms", "lower", 0},

	{"serve.batch_window_ms", "ms", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serve.noop_get_us", "us", "lower", 0},
	{"serve.coalescing", "ratio", "higher", 0},
	{"serve.forecast_p99_ms", "ms", "lower", 0},
	{"serve.forecast_during_refit_p50_ms", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
