package serve

import (
	"net/http"
	"time"

	"uoivar/internal/telemetry"
)

// serveMetrics bundles the server's native telemetry families. It is nil
// when Config.Metrics is nil, and every method is nil-safe, so the
// telemetry-off request path costs only nil checks (benchmarked by
// BenchmarkServeTelemetryOff).
//
// Families (all carrying a replica label so fleet replicas can share one
// registry):
//
//	uoivar_serve_requests_total{endpoint,code,replica}   — status-code counters
//	uoivar_serve_request_seconds{endpoint,code,replica}  — latency histogram
//	uoivar_serve_response_bytes{endpoint,replica}        — response-size histogram
//	uoivar_serve_inflight{endpoint,replica}              — in-flight gauge
//	uoivar_serve_batch_size{model,replica}               — coalesced batch depth
//	uoivar_serve_service_seconds{replica}                — service-time EWMA
//	uoivar_serve_stage_seconds{stage,replica}            — forecast stage times
//
// Label cardinality is bounded by construction: endpoints and codes are
// fixed sets, model and replica are operator-chosen.
type serveMetrics struct {
	replica   string
	requests  *telemetry.CounterVec
	latency   *telemetry.HistogramVec
	respBytes *telemetry.HistogramVec
	inflight  *telemetry.GaugeVec
	batchSize *telemetry.HistogramVec
	ewma      *telemetry.GaugeVec
	// stages holds one resolved series per forecast stage, so an
	// observation is a bucket scan with no label lookup.
	stages [numStages]telemetry.Histogram
}

// stage is one layer of a forecast's server-side time.
type stage int

const (
	stageBatchWait stage = iota // enqueue → dispatch of the request's batch
	stageForecast               // Predictor.ForecastBatch, once per batch
	stageEncode                 // JSON encoding of one response
	numStages
)

func newServeMetrics(reg *telemetry.Registry, replica string) *serveMetrics {
	if !reg.Enabled() {
		return nil
	}
	m := &serveMetrics{
		replica: replica,
		requests: reg.Counter("uoivar_serve_requests_total",
			"Completed requests by endpoint and HTTP status code.",
			"endpoint", "code", "replica"),
		latency: reg.Histogram("uoivar_serve_request_seconds",
			"Request wall time by endpoint and HTTP status code.",
			telemetry.DefLatencyBuckets, "endpoint", "code", "replica"),
		respBytes: reg.Histogram("uoivar_serve_response_bytes",
			"Response body size by endpoint.",
			telemetry.DefSizeBuckets, "endpoint", "replica"),
		inflight: reg.Gauge("uoivar_serve_inflight",
			"Requests currently being served by endpoint.",
			"endpoint", "replica"),
		batchSize: reg.Histogram("uoivar_serve_batch_size",
			"Coalesced forecast batch sizes by model.",
			telemetry.DefDepthBuckets, "model", "replica"),
		ewma: reg.Gauge("uoivar_serve_service_seconds",
			"EWMA of per-request service time (the Retry-After estimator).",
			"replica"),
	}
	// 1 µs to ~33 s: a forecast stage is microseconds, a batch wait up to
	// the batch window, both well below DefLatencyBuckets' 100 µs floor.
	stages := reg.Histogram("uoivar_serve_stage_seconds",
		"Forecast time by stage: batch_wait (enqueue to dispatch), forecast (ForecastBatch), encode (JSON).",
		telemetry.LogBuckets(1e-6, 2, 26), "stage", "replica")
	for s, name := range [numStages]string{"batch_wait", "forecast", "encode"} {
		m.stages[s] = stages.With(name, replica)
	}
	return m
}

// observeStage records one stage duration. Nil-safe like observeBatch.
func (m *serveMetrics) observeStage(s stage, d time.Duration) {
	if m == nil {
		return
	}
	m.stages[s].Observe(d.Seconds())
}

// observeBatch records one coalesced batch flush. Nil-safe: a batcher on a
// telemetry-off server carries a nil *serveMetrics.
func (m *serveMetrics) observeBatch(model string, n int) {
	if m == nil {
		return
	}
	m.batchSize.With(model, m.replica).Observe(float64(n))
}

// statusRecorder captures the status code and body size a handler wrote, so
// the telemetry skin can label its counters and log lines (and carries the
// forecast's batch wait to the access log). It wraps the
// ResponseWriter only on instrumented servers.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	// batchWait is the forecast handler's batch wait, for the access log.
	batchWait time.Duration
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}
