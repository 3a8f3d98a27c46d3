package telemetry

import (
	"strconv"

	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// BridgeTrace mirrors a trace.Tracer's counters, gauges, and phase
// aggregates into reg at every scrape, so fit-side numbers (ADMM
// iterations, bootstrap counts, refit spans) and the serving tier's
// latency histograms land on the same /metrics page. The mirror writes:
//
//	uoivar_trace_counter{name="serve/requests"}       — counters and gauges
//	uoivar_trace_phase_seconds{phase="stream/refit"}  — accumulated span time
//	uoivar_trace_phase_count{phase="stream/refit"}    — span completions
//
// The families are typed gauge even though most sources are monotone: the
// tracer owns the values and can be swapped or reset between scrapes, so
// the registry does not promise counter monotonicity on their behalf.
// Nil registry or nil tracer disables the bridge.
func BridgeTrace(reg *Registry, tr *trace.Tracer) {
	if reg == nil || tr == nil {
		return
	}
	counters := reg.Gauge("uoivar_trace_counter",
		"Mirrored internal/trace counters and gauges, by counter name.", "name")
	phaseSecs := reg.Gauge("uoivar_trace_phase_seconds",
		"Mirrored internal/trace span time, accumulated seconds by phase.", "phase")
	phaseCount := reg.Gauge("uoivar_trace_phase_count",
		"Mirrored internal/trace span completions by phase.", "phase")
	reg.OnScrape(func() {
		for name, v := range tr.Counters() {
			counters.With(name).Set(float64(v))
		}
		for _, ph := range tr.Phases() {
			phaseSecs.With(ph.Name).Set(ph.Seconds)
			phaseCount.With(ph.Name).Set(float64(ph.Count))
		}
	})
}

// BridgeMPI mirrors per-rank communication stats (from a source like
// mpi.ProcessStats or Comm.AllStats) into reg at every scrape:
//
//	uoivar_mpi_calls{rank="0",category="collective"}
//	uoivar_mpi_bytes{rank="0",category="collective"}
//	uoivar_mpi_seconds{rank="0",category="collective"}
//	uoivar_mpi_wait_seconds{rank="0",category="collective"}
//
// One gauge set per mpi.Stats.Rows row, so categories with zero calls are
// skipped. Nil arguments disable the bridge.
func BridgeMPI(reg *Registry, stats func() []mpi.Stats) {
	if reg == nil || stats == nil {
		return
	}
	calls := reg.Gauge("uoivar_mpi_calls",
		"Mirrored MPI call counts by rank and category.", "rank", "category")
	bytes := reg.Gauge("uoivar_mpi_bytes",
		"Mirrored MPI bytes on the wire by rank and category.", "rank", "category")
	seconds := reg.Gauge("uoivar_mpi_seconds",
		"Mirrored MPI wall time by rank and category.", "rank", "category")
	wait := reg.Gauge("uoivar_mpi_wait_seconds",
		"Mirrored MPI blocked time (part of uoivar_mpi_seconds) by rank and category.", "rank", "category")
	reg.OnScrape(func() {
		for r, st := range stats() {
			rank := strconv.Itoa(r)
			for _, row := range st.Rows("") {
				calls.With(rank, row.Category).Set(float64(row.Calls))
				bytes.With(rank, row.Category).Set(float64(row.Bytes))
				seconds.With(rank, row.Category).Set(row.Seconds)
				wait.With(rank, row.Category).Set(row.WaitSeconds)
			}
		}
	})
}
