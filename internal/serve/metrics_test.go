package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uoivar/internal/resample"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

func TestServeMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	_, _, ts := newTestServer(t, func(c *Config) {
		c.Metrics = reg
		c.AccessLog = telemetry.NewAccessLogger(&logBuf, 1)
		c.Replica = "7"
	})

	rng := resample.NewRNG(11)
	req := ForecastRequest{Model: "mkt", History: randHistory(rng, 4, 8), Horizon: 2}
	status, hdr, _ := post(t, ts.URL+"/v1/forecast", req)
	if status != http.StatusOK {
		t.Fatalf("forecast status = %d", status)
	}
	if hdr.Get(telemetry.HeaderRequestID) == "" {
		t.Fatal("instrumented server did not echo X-Request-ID")
	}
	if status, _, _ := post(t, ts.URL+"/v1/forecast", ForecastRequest{Model: "absent"}); status != http.StatusNotFound {
		t.Fatalf("missing-model status = %d", status)
	}

	exp, err := telemetry.ParseExposition(strings.NewReader(reg.Expose()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, reg.Expose())
	}
	if v, ok := exp.Value("uoivar_serve_requests_total",
		map[string]string{"endpoint": "/v1/forecast", "code": "200", "replica": "7"}); !ok || v != 1 {
		t.Fatalf("requests_total 200 = %g %v", v, ok)
	}
	if v, ok := exp.Value("uoivar_serve_requests_total",
		map[string]string{"endpoint": "/v1/forecast", "code": "404"}); !ok || v != 1 {
		t.Fatalf("requests_total 404 = %g %v", v, ok)
	}
	if n, ok := exp.Value("uoivar_serve_request_seconds_count",
		map[string]string{"endpoint": "/v1/forecast", "code": "200"}); !ok || n != 1 {
		t.Fatalf("latency histogram count = %g %v", n, ok)
	}
	if q, ok := exp.HistogramQuantile("uoivar_serve_request_seconds",
		map[string]string{"endpoint": "/v1/forecast"}, 0.99); !ok || q <= 0 {
		t.Fatalf("latency p99 = %g %v", q, ok)
	}
	if n, ok := exp.Value("uoivar_serve_batch_size_count",
		map[string]string{"model": "mkt", "replica": "7"}); !ok || n < 1 {
		t.Fatalf("batch size count = %g %v", n, ok)
	}
	if v, ok := exp.Value("uoivar_serve_inflight",
		map[string]string{"endpoint": "/v1/forecast", "replica": "7"}); !ok || v != 0 {
		t.Fatalf("inflight after completion = %g %v", v, ok)
	}

	// Access log: one serve-layer line per request, carrying the echoed ID.
	wantID := hdr.Get(telemetry.HeaderRequestID)
	if !strings.Contains(logBuf.String(), `"request_id":"`+wantID+`"`) {
		t.Fatalf("access log missing request id %q:\n%s", wantID, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), `"layer":"serve"`) || !strings.Contains(logBuf.String(), `"replica":"7"`) {
		t.Fatalf("access log missing layer/replica:\n%s", logBuf.String())
	}
}

// TestStageTimers: the stage histogram splits a forecast into batch_wait,
// forecast and encode, and the access log carries batch_wait_ms. With a
// refit in flight a lone forecast's batch wait covers the window; with
// none it is far below it.
func TestStageTimers(t *testing.T) {
	const window = 50 * time.Millisecond
	for _, mode := range []struct {
		name      string
		refitting bool
	}{{"contended", true}, {"idle", false}} {
		t.Run(mode.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			var logBuf bytes.Buffer
			fs := &fakeStreamer{}
			fs.refitting.Store(mode.refitting)
			_, _, ts := newTestServer(t, func(c *Config) {
				c.Metrics = reg
				c.AccessLog = telemetry.NewAccessLogger(&logBuf, 1)
				c.BatchWindow = window
				c.Streams = fs
			})
			req := ForecastRequest{Model: "mkt", History: randHistory(resample.NewRNG(2), 4, 8), Horizon: 2}
			if status, _, body := post(t, ts.URL+"/v1/forecast", req); status != http.StatusOK {
				t.Fatalf("forecast: %d %s", status, body)
			}
			exp, err := telemetry.ParseExposition(strings.NewReader(reg.Expose()))
			if err != nil {
				t.Fatalf("exposition invalid: %v", err)
			}
			for _, st := range []string{"batch_wait", "forecast", "encode"} {
				if n, ok := exp.Value("uoivar_serve_stage_seconds_count", map[string]string{"stage": st}); !ok || n != 1 {
					t.Fatalf("stage %s count = %g %v, want 1", st, n, ok)
				}
			}
			// One observation, so the histogram sum is the request's wait.
			wait, _ := exp.Value("uoivar_serve_stage_seconds_sum", map[string]string{"stage": "batch_wait"})
			if mode.refitting && wait < window.Seconds() {
				t.Fatalf("contended batch_wait %gs, want >= the %v window", wait, window)
			}
			if !mode.refitting && wait >= window.Seconds() {
				t.Fatalf("idle batch_wait %gs, want < the %v window", wait, window)
			}
			var line struct {
				BatchWaitMs float64 `json:"batch_wait_ms"`
			}
			if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
				t.Fatalf("access log line: %v\n%s", err, logBuf.String())
			}
			if line.BatchWaitMs <= 0 || math.Abs(line.BatchWaitMs-1e3*wait) > 1e-6 {
				t.Fatalf("access log batch_wait_ms = %g, histogram says %g ms", line.BatchWaitMs, 1e3*wait)
			}
		})
	}
}

func TestServeRequestIDPreserved(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, _, ts := newTestServer(t, func(c *Config) { c.Metrics = reg })
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
	req.Header.Set(telemetry.HeaderRequestID, "caller-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.HeaderRequestID); got != "caller-chosen-id" {
		t.Fatalf("echoed id = %q, want caller's", got)
	}
}

// Telemetry off must leave the request path untouched: no request-ID echo,
// no recorder wrapper (limited returns the bare handler).
func TestServeTelemetryOffAddsNothing(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.HeaderRequestID); got != "" {
		t.Fatalf("telemetry-off server set X-Request-ID %q", got)
	}
}

func TestErrorCounterSplit(t *testing.T) {
	tr := trace.New()
	s := New(Config{Registry: NewRegistry(), Tracer: tr})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeError(rec, http.StatusTooManyRequests, "limit")
	s.writeError(rec, http.StatusServiceUnavailable, "draining")
	s.writeError(rec, http.StatusInternalServerError, "boom")
	s.writeError(rec, http.StatusGatewayTimeout, "deadline")
	s.writeError(rec, http.StatusBadRequest, "bad json")
	s.writeError(rec, http.StatusNotFound, "no model")
	c := tr.Counters()
	if c["serve/rejected"] != 2 {
		t.Fatalf("serve/rejected = %d, want 2", c["serve/rejected"])
	}
	if c["serve/errors"] != 2 {
		t.Fatalf("serve/errors = %d, want 2", c["serve/errors"])
	}
	if c["serve/client_errors"] != 2 {
		t.Fatalf("serve/client_errors = %d, want 2", c["serve/client_errors"])
	}
	if c["serve/http_errors"] != 6 {
		t.Fatalf("serve/http_errors = %d, want 6 (total preserved)", c["serve/http_errors"])
	}
}

// Benchmarks for the acceptance criterion "telemetry disabled adds zero
// allocations on the hot serve path": compare the two allocs/op columns —
// Off must match the pre-telemetry baseline (the wrapper is bypassed
// entirely), On shows the instrumented cost.
func benchModels(b *testing.B, mutate func(*Config)) {
	b.Helper()
	_, art, _ := fitVAR(b)
	reg := NewRegistry()
	if _, err := reg.Set("mkt", art, ""); err != nil {
		b.Fatal(err)
	}
	cfg := Config{Registry: reg, BatchWindow: 0}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req, _ := http.NewRequest(http.MethodGet, "/v1/models", nil)
		h.ServeHTTP(rec, req)
	}
}

func BenchmarkModelsTelemetryOff(b *testing.B) { benchModels(b, nil) }

func BenchmarkModelsTelemetryOn(b *testing.B) {
	benchModels(b, func(c *Config) { c.Metrics = telemetry.NewRegistry() })
}
