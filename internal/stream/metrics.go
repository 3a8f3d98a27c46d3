package stream

import (
	"uoivar/internal/telemetry"
)

// streamRefitBuckets spans refit wall times from 1ms to ~17min: streaming
// refits are whole UoI-VAR fits, orders of magnitude above request latency.
var streamRefitBuckets = telemetry.LogBuckets(1e-3, 2, 21)

// streamMetrics bundles one engine set's telemetry families, all labeled by
// model. It is nil when Config.Metrics is nil; every method is nil-safe, so
// the telemetry-off ingest/refit path costs only nil checks.
//
// Families:
//
//	uoivar_stream_window_rows{model}            — current sliding-window fill
//	uoivar_stream_refit_seconds{model}          — successful refit wall time
//	uoivar_stream_refits_total{model}           — published refits
//	uoivar_stream_refit_errors_total{model}     — failed refits
//	uoivar_stream_refit_iters{model}            — last refit's ADMM iterations
//	uoivar_stream_warm_iters_saved_total{model} — ADMM iterations avoided vs
//	                                              the first (cold) refit
//
// Gauges are updated eagerly (at ingest and refit time) rather than via
// scrape hooks: engines are recreated on replica restarts while the
// telemetry registry is shared and long-lived, so scrape hooks would pin
// dead engines.
type streamMetrics struct {
	windowRows *telemetry.GaugeVec
	refitSec   *telemetry.HistogramVec
	refits     *telemetry.CounterVec
	refitErrs  *telemetry.CounterVec
	refitIters *telemetry.GaugeVec
	itersSaved *telemetry.CounterVec
}

func newStreamMetrics(reg *telemetry.Registry) *streamMetrics {
	if !reg.Enabled() {
		return nil
	}
	return &streamMetrics{
		windowRows: reg.Gauge("uoivar_stream_window_rows",
			"Rows currently buffered in the model's sliding window.", "model"),
		refitSec: reg.Histogram("uoivar_stream_refit_seconds",
			"Wall time of successful streaming refits.", streamRefitBuckets, "model"),
		refits: reg.Counter("uoivar_stream_refits_total",
			"Streaming refits published into the registry.", "model"),
		refitErrs: reg.Counter("uoivar_stream_refit_errors_total",
			"Streaming refits that failed (fit, save, or publish).", "model"),
		refitIters: reg.Gauge("uoivar_stream_refit_iters",
			"ADMM iterations spent by the last successful refit.", "model"),
		itersSaved: reg.Counter("uoivar_stream_warm_iters_saved_total",
			"ADMM iterations avoided relative to the model's first, cold refit.", "model"),
	}
}

func (m *streamMetrics) observeWindow(model string, rows int) {
	if m != nil {
		m.windowRows.With(model).Set(float64(rows))
	}
}

func (m *streamMetrics) observeRefitError(model string) {
	if m != nil {
		m.refitErrs.With(model).Inc()
	}
}

// observeRefit records one successful refit. coldIters is the iteration
// count of the model's first refit (the cold baseline); iterations saved is
// the shortfall of this refit against it, clamped at zero so a later,
// harder window never "un-saves" work.
func (m *streamMetrics) observeRefit(model string, seconds float64, iters, coldIters int) {
	if m == nil {
		return
	}
	m.refitSec.With(model).Observe(seconds)
	m.refits.With(model).Inc()
	m.refitIters.With(model).Set(float64(iters))
	if saved := coldIters - iters; saved > 0 {
		m.itersSaved.With(model).Add(float64(saved))
	}
}
