// Package trace is the pipeline's performance-observability layer: named
// spans aggregate wall time per phase (λ-grid construction, selection
// bootstraps, intersection, estimation bootstraps, union), and named
// counters aggregate solver work (ADMM iterations, Cholesky solves,
// factorizations) and kernel parallelism. Together with the communication
// meters of internal/mpi it reproduces the paper's §IV computation-vs-
// communication phase breakdowns (Figures 2 and 7) for any run.
//
// A Tracer is a view over its own telemetry.Registry, the one aggregate
// store: Add is a counter, SetMax a max-gauge and every finished span one
// observation of a per-phase histogram. Phases, Counters and the other
// readers read those families back, and internal/monitor renders the same
// registry on /metrics, so a report and a scrape cannot disagree.
//
// The design goal is near-zero overhead when disabled: a nil *Tracer is a
// valid, permanently-disabled tracer, every method is nil-safe, and the
// disabled fast path performs no allocation, no time syscall, and no lock —
// just a nil check (verified by TestDisabledTracerAllocatesNothing and the
// <1% budget asserted over the bench suite). Enabled tracers are safe for
// concurrent use from any number of goroutines (the in-process bootstrap
// workers and mpi rank goroutines all share or own tracers freely), and an
// enabled Add, SetMax or span on an already-seen name allocates nothing.
package trace

import (
	"sort"
	"time"

	"uoivar/internal/telemetry"
)

// The families a tracer's registry holds. Their label values are the
// program's own phase and counter names — a few dozen constants, far below
// telemetry.MaxSeriesPerFamily — never values from the wire.
const (
	counterFamily = "uoivar_trace_counter"
	maxFamily     = "uoivar_trace_max"
	phaseFamily   = "uoivar_trace_phase_seconds"
)

// phaseBuckets spans 1 µs to ~268 s in ×4 steps: a cell's solve and a
// whole fit on one axis.
var phaseBuckets = telemetry.LogBuckets(1e-6, 4, 15)

// Tracer aggregates spans and counters into families of its own
// telemetry.Registry. The zero value is NOT ready to use; call New. A nil
// *Tracer is the canonical disabled tracer: every method on it is a cheap
// no-op.
type Tracer struct {
	reg      *telemetry.Registry
	counters *telemetry.CounterVec
	maxes    *telemetry.GaugeVec
	phases   *telemetry.HistogramVec
	// rec, when non-nil, additionally receives span begin/end and instant
	// events on the per-rank timeline (see Recorder). Aggregation semantics
	// are unchanged; the recorder only adds the event stream.
	rec *Recorder
}

// New returns an enabled tracer over a fresh registry.
func New() *Tracer {
	reg := telemetry.NewRegistry()
	return &Tracer{
		reg: reg,
		counters: reg.Counter(counterFamily,
			"internal/trace counters (solver work, bootstrap and request counts) by name.", "name"),
		maxes: reg.Gauge(maxFamily,
			"internal/trace maxima (kernel worker budgets) by name.", "name"),
		phases: reg.Histogram(phaseFamily,
			"internal/trace span durations by phase.", phaseBuckets, "phase"),
	}
}

// Registry returns the registry holding the tracer's aggregates (nil when
// disabled), for rendering on a /metrics page.
func (t *Tracer) Registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// WithRecorder attaches a per-rank event recorder: every span Start/End and
// Instant is mirrored onto rec's timeline. Returns t for chaining; a nil
// tracer ignores the attachment.
func (t *Tracer) WithRecorder(rec *Recorder) *Tracer {
	if t != nil {
		t.rec = rec
	}
	return t
}

// EventRecorder returns the attached recorder (nil when none or disabled).
func (t *Tracer) EventRecorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Instant forwards a point event (a dropped bootstrap, an observed fault)
// to the attached recorder. Aggregates are untouched; without a recorder
// this is a no-op.
func (t *Tracer) Instant(name, cat string) {
	if t == nil || t.rec == nil {
		return
	}
	t.rec.Instant(name, cat, 0)
}

// Span is an in-flight timed region. Spans are small values (never heap
// allocated by the tracer) so the disabled path stays allocation-free.
// A span taken from a nil tracer is inert: End and Child are no-ops.
type Span struct {
	t     *Tracer
	name  string
	start time.Duration // on the monotonic clock, since epoch
}

// epoch anchors span timing: time.Since of a monotonic reading reads only
// the monotonic clock, one clock read per span end instead of time.Now's
// wall-plus-monotonic pair.
var epoch = time.Now()

// Start opens a span. Phase names use '/' to express nesting
// ("selection/bootstrap"); top-level names (no '/') are the phases a
// PerfReport treats as the wall-time partition.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	t.rec.Begin(name)
	return Span{t: t, name: name, start: time.Since(epoch)}
}

// Child opens a nested span named parent/name. Children of concurrent
// sibling spans aggregate into the same bucket, which is exactly what the
// per-phase totals want (B1 concurrent selection bootstraps all fold into
// "selection/bootstrap").
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.Start(s.name + "/" + name)
}

// End closes the span: one observation of its elapsed seconds in the
// phase histogram.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.phases.With(s.name).Observe((time.Since(epoch) - s.start).Seconds())
	s.t.rec.End(s.name)
}

// Add increments counter name by delta. Counters are monotone: a negative
// delta is ignored.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.counters.With(name).Add(float64(delta))
}

// SetMax raises gauge name to v if v exceeds the recorded maximum (a new
// gauge starts at 0). Gauges are reported alongside counters (e.g.
// "mat/workers" records the largest kernel worker budget observed).
func (t *Tracer) SetMax(name string, v int64) {
	if t == nil {
		return
	}
	t.maxes.With(name).SetMax(float64(v))
}

// Counter returns the current value of a counter (0 if absent or disabled).
func (t *Tracer) Counter(name string) int64 { return t.value(counterFamily, name) }

// Max returns the current value of a gauge (0 if absent or disabled).
func (t *Tracer) Max(name string) int64 { return t.value(maxFamily, name) }

// value reads one series of a name-labeled family.
func (t *Tracer) value(family, name string) (v int64) {
	t.Registry().Each(family, func(l []string, x float64, _ uint64) {
		if l[0] == name {
			v = int64(x)
		}
	})
	return v
}

// PhaseSeconds returns the accumulated seconds of a phase (0 if absent).
func (t *Tracer) PhaseSeconds(name string) float64 {
	for _, p := range t.Phases() {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// Phases returns every phase aggregate, sorted by name (deterministic for
// reports and goldens): Count is the phase histogram's observation count,
// Seconds its sum.
func (t *Tracer) Phases() []PhaseStat {
	if t == nil {
		return nil
	}
	out := []PhaseStat{}
	t.reg.Each(phaseFamily, func(l []string, sum float64, n uint64) {
		out = append(out, PhaseStat{Name: l[0], Count: int64(n), Seconds: sum})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters returns a copy of all counters, with gauges merged in (a gauge
// and counter sharing a name would collide; by convention they do not).
func (t *Tracer) Counters() map[string]int64 {
	var out map[string]int64
	for _, family := range []string{counterFamily, maxFamily} {
		t.Registry().Each(family, func(l []string, v float64, _ uint64) {
			if out == nil {
				out = make(map[string]int64)
			}
			out[l[0]] = int64(v)
		})
	}
	return out
}
