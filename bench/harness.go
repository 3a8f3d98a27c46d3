package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples is a set of timings in seconds.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// p25 is the lower quartile, the statistic of the end-to-end timings: on a
// shared machine interference only ever adds time, and the lower quartile
// stays inside the undisturbed ops for as long as a quarter of them are.
func (s samples) p25() float64 { return s.quantile(0.25) }

// describe renders a timing's quartiles, range and count in milliseconds for
// the human lines.
func (s samples) describe() string {
	if len(s) == 0 {
		return "n=0"
	}
	v := s.sorted()
	return fmt.Sprintf("p25 %.3f  p50 %.3f  p75 %.3f ms (min %.3f, max %.3f, n=%d)",
		1e3*s.p25(), 1e3*s.median(), 1e3*s.quantile(0.75), 1e3*v[0], 1e3*v[len(v)-1], len(v))
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// medianOf runs fn n times and returns the median wall time in seconds.
func medianOf(n int, fn func()) float64 {
	s := make(samples, n)
	for i := range s {
		s[i] = timeIt(fn)
	}
	return s.median()
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocMeter measures heap bytes allocated since it was started, leaving
// out what is allocated between pause and resume.
type allocMeter struct{ start, pausedAt, skipped uint64 }

func startAllocMeter() *allocMeter { return &allocMeter{start: totalAlloc()} }

func (a *allocMeter) pause() { a.pausedAt = totalAlloc() }

func (a *allocMeter) resume() { a.skipped += totalAlloc() - a.pausedAt }

func (a *allocMeter) perOpMB(ops int) float64 {
	return float64(totalAlloc()-a.start-a.skipped) / float64(max(ops, 1)) / (1 << 20)
}

// ---- Boundary spans ----

// span is one harness-recorded interval around a call into a layer. Times
// are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // shared by the spans of one timed op
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	tr *tracer
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing, and so does a nil span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil = root) for op.
func (t *tracer) start(parent *span, op int, layer, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Op: op, Layer: layer, Name: name, Start: time.Since(t.t0).Nanoseconds(), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = time.Since(s.tr.t0).Nanoseconds()
}

// record adds a span of known length under parent, starting offset seconds
// into it — for intervals the program timed itself and returned.
func (t *tracer) record(parent *span, op int, layer, name string, offset, seconds float64) {
	if t == nil {
		return
	}
	s := t.start(parent, op, layer, name)
	s.Start = parent.Start + int64(offset*1e9)
	s.End = s.Start + int64(seconds*1e9)
}

// spanSummary is one span name's row in the traced run's printout.
type spanSummary struct {
	name        string
	n           int
	total, self float64 // medians, seconds
}

// summary returns, per "layer.name", the span count and the medians of the
// spans' durations and self times. A span's self time is its duration minus
// the part its direct children cover.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total, self := make(map[string]samples), make(map[string]samples)
	var names []string
	for _, s := range t.spans {
		key := s.Layer + "." + s.Name
		if _, seen := total[key]; !seen {
			names = append(names, key)
		}
		total[key] = append(total[key], float64(s.End-s.Start)/1e9)
		self[key] = append(self[key], float64(s.End-s.Start-child[s.ID])/1e9)
	}
	out := make([]spanSummary, len(names))
	for i, k := range names {
		out[i] = spanSummary{k, len(total[k]), total[k].median(), self[k].median()}
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Schema string  `json:"schema"`
		Spans  []*span `json:"spans"`
	}{"uoivar/bench-trace/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- Result collection ----

// report gathers one run's metrics and its correctness tally.
type report struct {
	mu        sync.Mutex
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// attempt counts one op or check; a non-nil err counts it as failed.
func (r *report) attempt(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, what+": "+err.Error())
		}
	}
}

// check is attempt for a boolean condition.
func (r *report) check(what string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.attempt(what, err)
}

// deadline is a time box for a measured loop: more reports whether another
// op may start. The first two always may, so the traced run has one op with
// spans and one without. Time the loop spends on something other than its
// ops is taken out of the box with pause.
type deadline struct {
	start           time.Time
	seconds, paused float64
	done            int
}

func newDeadline(seconds float64) *deadline {
	return &deadline{start: time.Now(), seconds: seconds}
}

// used is the share of the time box the ops have taken so far.
func (d *deadline) used() float64 {
	return (time.Since(d.start).Seconds() - d.paused) / d.seconds
}

func (d *deadline) pause(seconds float64) { d.paused += seconds }

func (d *deadline) more() bool {
	ok := d.done < 2 || d.used() < 1
	d.done++
	return ok
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// relErr returns ‖est−truth‖₂ / ‖truth‖₂.
func relErr(est, truth []float64) float64 {
	var num, den float64
	for i := range truth {
		d := est[i] - truth[i]
		num += d * d
		den += truth[i] * truth[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
