package stream

import (
	"strings"
	"testing"
	"time"

	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

func TestEngineTelemetryFamilies(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	treg := telemetry.NewRegistry()
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 200, MinRows: 40, Tracer: trace.New(), Metrics: treg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(rowsOf(long, 0, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(rowsOf(long, 200, 220)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}

	exp, err := telemetry.ParseExposition(strings.NewReader(treg.Expose()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, treg.Expose())
	}
	model := map[string]string{"model": "net"}
	if v, ok := exp.Value("uoivar_stream_refits_total", model); !ok || v != 2 {
		t.Fatalf("refits_total = %g %v, want 2", v, ok)
	}
	if n, ok := exp.Value("uoivar_stream_refit_seconds_count", model); !ok || n != 2 {
		t.Fatalf("refit_seconds count = %g %v, want 2", n, ok)
	}
	if s, ok := exp.Value("uoivar_stream_refit_seconds_sum", model); !ok || s <= 0 {
		t.Fatalf("refit_seconds sum = %g %v, want > 0", s, ok)
	}
	if v, ok := exp.Value("uoivar_stream_window_rows", model); !ok || v != 200 {
		t.Fatalf("window_rows = %g %v, want 200 (window cap)", v, ok)
	}
	if v, ok := exp.Value("uoivar_stream_refit_iters", model); !ok || v <= 0 {
		t.Fatalf("refit_iters = %g %v, want > 0", v, ok)
	}
	if v, ok := exp.Value("uoivar_stream_refit_errors_total", model); ok && v != 0 {
		t.Fatalf("refit_errors_total = %g, want 0", v)
	}
}

func TestEngineTelemetryDisabledIsFree(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 200, MinRows: 40, Tracer: trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.metrics != nil {
		t.Fatal("nil Config.Metrics should yield a nil metrics bundle")
	}
	if _, err := e.Ingest(rowsOf(long, 0, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}
}

func TestStatusRefitTiming(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 200, MinRows: 40, RefitEvery: 100, Tracer: trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two spaced ingests establish an ingest-rate EWMA; with RefitEvery 100
	// and fewer than 100 un-fitted rows, the next refit is a positive,
	// finite prediction away.
	if _, err := e.Ingest(rowsOf(long, 0, 20)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	st, err := e.Ingest(rowsOf(long, 20, 40))
	if err != nil {
		t.Fatal(err)
	}
	if st.NextRefitInMs <= 0 {
		t.Fatalf("NextRefitInMs = %g, want > 0 once an ingest rate is observed", st.NextRefitInMs)
	}
	if st.RefitRunningMs != 0 {
		t.Fatalf("RefitRunningMs = %g while idle, want 0", st.RefitRunningMs)
	}

	// Simulate an in-flight refit: RefitRunningMs surfaces its age.
	e.mu.Lock()
	e.refitStart = time.Now().Add(-2 * time.Second)
	e.mu.Unlock()
	if got := e.Status().RefitRunningMs; got < 1900 {
		t.Fatalf("RefitRunningMs = %g, want ~2000", got)
	}
}

func TestManagerDegradedSlowAndStuckRefits(t *testing.T) {
	reg, long, _ := seedModel(t, "net", 400, 200)
	m := NewManager(reg, Options{Window: 200, MinRows: 40, Tracer: trace.New()})
	if _, err := m.Ingest("net", rowsOf(long, 0, 200)); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Engine("net")
	if !ok {
		t.Fatal("engine not created")
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}
	if d := m.Degraded(); len(d) != 0 {
		t.Fatalf("healthy manager degraded: %v", d)
	}

	// A refit running a few seconds past a millisecond-scale baseline is
	// slow; one past the absolute stuck floor is stuck.
	e.mu.Lock()
	e.lastMs = 1
	e.refitStart = time.Now().Add(-5 * time.Second)
	e.mu.Unlock()
	d := m.Degraded()
	if len(d) != 1 || !strings.Contains(d[0], "refit slow") {
		t.Fatalf("degraded = %v, want one 'refit slow' reason", d)
	}

	e.mu.Lock()
	e.refitStart = time.Now().Add(-60 * time.Second)
	e.mu.Unlock()
	d = m.Degraded()
	if len(d) != 1 || !strings.Contains(d[0], "refit stuck") {
		t.Fatalf("degraded = %v, want one 'refit stuck' reason", d)
	}

	e.mu.Lock()
	e.refitStart = time.Time{}
	e.mu.Unlock()
	if d := m.Degraded(); len(d) != 0 {
		t.Fatalf("degraded after refit completes = %v, want none", d)
	}
}
