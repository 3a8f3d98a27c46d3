// Package trace is the pipeline's performance-observability layer: named
// spans aggregate wall time per phase (λ-grid construction, selection
// bootstraps, intersection, estimation bootstraps, union), and named
// counters aggregate solver work (ADMM iterations, Cholesky solves,
// factorizations) and kernel parallelism. Together with the communication
// meters of internal/mpi it reproduces the paper's §IV computation-vs-
// communication phase breakdowns (Figures 2 and 7) for any run.
//
// The design goal is near-zero overhead when disabled: a nil *Tracer is a
// valid, permanently-disabled tracer, every method is nil-safe, and the
// disabled fast path performs no allocation, no time syscall, and no lock —
// just a nil check (verified by TestDisabledTracerAllocatesNothing and the
// <1% budget asserted over the bench suite). Enabled tracers are safe for
// concurrent use from any number of goroutines (the in-process bootstrap
// workers and mpi rank goroutines all share or own tracers freely).
package trace

import (
	"sort"
	"sync"
	"time"
)

// Tracer aggregates spans and counters. The zero value is NOT ready to use;
// call New. A nil *Tracer is the canonical disabled tracer: every method on
// it is a cheap no-op.
type Tracer struct {
	mu       sync.Mutex
	phases   map[string]*phaseAgg
	counters map[string]int64
	maxes    map[string]int64
	// rec, when non-nil, additionally receives span begin/end and instant
	// events on the per-rank timeline (see Recorder). Aggregation semantics
	// are unchanged; the recorder only adds the event stream.
	rec *Recorder
}

type phaseAgg struct {
	count int64
	nanos int64
}

// New returns an enabled tracer.
func New() *Tracer {
	return &Tracer{
		phases:   make(map[string]*phaseAgg),
		counters: make(map[string]int64),
		maxes:    make(map[string]int64),
	}
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
	start time.Time
}

// Start opens a span. Phase names use '/' to express nesting
// ("selection/bootstrap"); top-level names (no '/') are the phases a
// PerfReport treats as the wall-time partition.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	t.rec.Begin(name)
	return Span{t: t, name: name, start: time.Now()}
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

// End closes the span, folding its elapsed time into the tracer.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	a := s.t.phases[s.name]
	if a == nil {
		a = &phaseAgg{}
		s.t.phases[s.name] = a
	}
	a.count++
	a.nanos += int64(d)
	s.t.mu.Unlock()
	s.t.rec.End(s.name)
}

// Add increments counter name by delta.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// SetMax raises gauge name to v if v exceeds the recorded maximum. Gauges
// are reported alongside counters, prefixed with "max:" semantics by name
// convention (e.g. "mat/workers" records the largest kernel worker budget
// observed).
func (t *Tracer) SetMax(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if cur, ok := t.maxes[name]; !ok || v > cur {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// Counter returns the current value of a counter (0 if absent or disabled).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Max returns the current value of a gauge (0 if absent or disabled).
func (t *Tracer) Max(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxes[name]
}

// PhaseSeconds returns the accumulated seconds of a phase (0 if absent).
func (t *Tracer) PhaseSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.phases[name]; a != nil {
		return time.Duration(a.nanos).Seconds()
	}
	return 0
}

// Phases returns every phase aggregate, sorted by name (deterministic for
// reports and goldens).
func (t *Tracer) Phases() []PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseStat, 0, len(t.phases))
	for name, a := range t.phases {
		out = append(out, PhaseStat{
			Name:    name,
			Count:   a.count,
			Seconds: time.Duration(a.nanos).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters returns a copy of all counters, with gauges merged in (a gauge
// and counter sharing a name would collide; by convention they do not).
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counters) == 0 && len(t.maxes) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.counters)+len(t.maxes))
	for k, v := range t.counters {
		out[k] = v
	}
	for k, v := range t.maxes {
		out[k] = v
	}
	return out
}
