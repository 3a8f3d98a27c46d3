// Package telemetry is the process's metrics store: a registry of labeled
// counters, gauges, and fixed-bucket histograms exposed in Prometheus text
// format (version 0.0.4) on GET /metrics, plus the serving tier's
// request-tracing glue — X-Request-ID generation/propagation and sampled
// structured JSON access logs — that lets one request be followed through
// router → replica → batch.
//
// A nil *Registry is the canonical disabled registry: every method on it
// (and on the nil vectors and nil handles it hands out) is a cheap no-op,
// and the disabled path performs no allocation (asserted by
// TestDisabledRegistryAllocatesNothing). Enabled registries are safe for
// concurrent use from any number of goroutines: counters and gauges are
// single atomic words, histograms are arrays of atomic bucket counts, so
// Observe/Add/Set never take a lock on the hot path — only series lookup
// (Vec.With) and exposition take the family's lock.
//
// The registry is the process's one aggregate store: internal/trace keeps
// its counters, maxima and span durations in one and reads them back
// through Each, the serving tier registers its families directly, and
// internal/monitor renders them on one /metrics page.
package telemetry

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is a family's Prometheus type.
type MetricType string

// The metric types the registry supports (and the parser understands).
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// MaxSeriesPerFamily caps the label-set cardinality of one family. Label
// values arrive from the wire (tenant names, model names), so an unbounded
// registry would let a client mint unlimited series; past the cap every new
// label set collapses into a single overflow series (its first label value
// is OverflowLabel) so totals stay right while memory stays bounded.
const MaxSeriesPerFamily = 512

// OverflowLabel is the label value of a family's cardinality-overflow
// series.
const OverflowLabel = "_overflow"

// Registry holds metric families and renders them as Prometheus text
// exposition. Create with NewRegistry; a nil *Registry is permanently
// disabled (all derived vectors and handles are nil and no-op).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// OnScrape registers a hook run at the start of every exposition. The
// serving tier uses it to publish values it keeps in its own atomics (an
// EWMA, the router's in-flight count) just in time for the scrape.
func (r *Registry) OnScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// family is one named metric with a fixed type, label schema, and (for
// histograms) bucket layout.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	buckets    []float64 // upper bounds, strictly increasing, no +Inf

	// index maps a series key to its series. It is replaced, never
	// mutated, so a lookup of an existing series takes no lock; mu
	// serializes series creation and guards order.
	index atomic.Pointer[map[string]*series]
	mu    sync.Mutex
	order []*series // insertion order; sorted at exposition
}

// series is one label-set instance of a family. Counter and gauge values
// live in valBits (float64 bits); histograms use counts and sumBits, and
// their observation count is the sum of counts, so a scrape's +Inf bucket
// and _count always agree.
type series struct {
	labelValues []string
	valBits     atomic.Uint64

	counts  []atomic.Uint64 // one per finite bucket, then the +Inf bucket
	sumBits atomic.Uint64
}

// count returns a histogram series' observation count.
func (s *series) count() uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return n
}

func (s *series) addFloat(b *atomic.Uint64, v float64) {
	for {
		old := b.Load()
		if b.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// seriesKey joins label values into a map key. The separator cannot appear
// in values (label values with \x00 are rejected by sanitizeValue).
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

var nameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns (creating if needed) the named family, enforcing that
// re-registrations agree on type, labels, and buckets — two packages
// binding the same name with different schemas is a programming error the
// registry surfaces immediately rather than exporting garbage.
func (r *Registry) register(name, help string, typ MetricType, labels []string, buckets []float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.typ != typ || !equalStrings(f.labelNames, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: append([]string(nil), labels...),
		buckets:    append([]float64(nil), buckets...),
	}
	f.index.Store(&map[string]*series{})
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// with returns (creating if needed) the series for the given label values,
// collapsing into the overflow series past MaxSeriesPerFamily.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	if s := (*f.index.Load())[key]; s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	index := *f.index.Load()
	if s := index[key]; s != nil {
		return s
	}
	if len(f.order) >= MaxSeriesPerFamily {
		ov := make([]string, len(values))
		for i := range ov {
			ov[i] = OverflowLabel
		}
		okey := seriesKey(ov)
		if s := index[okey]; s != nil {
			return s
		}
		values = ov
		key = okey
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	next := maps.Clone(index)
	next[key] = s
	f.index.Store(&next)
	f.order = append(f.order, s)
	return s
}

// Each calls fn with every series of the named family, in creation order:
// its label values (not to be modified), its value — a counter's or a
// gauge's value, a histogram's observation sum — and a histogram's
// observation count (0 otherwise). A nil registry or an unknown family
// calls nothing.
func (r *Registry) Each(name string, fn func(labels []string, value float64, count uint64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return
	}
	for _, s := range f.snapshot() {
		if f.typ == TypeHistogram {
			fn(s.labelValues, math.Float64frombits(s.sumBits.Load()), s.count())
		} else {
			fn(s.labelValues, math.Float64frombits(s.valBits.Load()), 0)
		}
	}
}

// snapshot returns the family's series in creation order.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*series(nil), f.order...)
}

// ---- Vectors and handles ----

// CounterVec is a labeled family of monotonically increasing counters.
type CounterVec struct{ f *family }

// GaugeVec is a labeled family of gauges (set-to-current-value metrics).
type GaugeVec struct{ f *family }

// HistogramVec is a labeled family of fixed-bucket histograms.
type HistogramVec struct{ f *family }

// Counter registers (or finds) a counter family. Nil registries return a
// nil, no-op vector.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, TypeCounter, labels, nil)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, TypeGauge, labels, nil)}
}

// Histogram registers (or finds) a histogram family over the given bucket
// upper bounds (strictly increasing; +Inf is implicit). A nil or empty
// buckets slice selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly increasing", name))
		}
	}
	if len(buckets) > 0 && math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1]
	}
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labels, buckets)}
}

// Counter is one counter series. Nil handles no-op.
type Counter struct{ s *series }

// Gauge is one gauge series. Nil handles no-op.
type Gauge struct{ s *series }

// Histogram is one histogram series. Nil handles no-op.
type Histogram struct {
	s      *series
	bounds []float64
}

// With resolves the series for the given label values (nil-safe).
func (v *CounterVec) With(values ...string) Counter {
	if v == nil {
		return Counter{}
	}
	return Counter{s: v.f.with(values)}
}

// With resolves the series for the given label values (nil-safe).
func (v *GaugeVec) With(values ...string) Gauge {
	if v == nil {
		return Gauge{}
	}
	return Gauge{s: v.f.with(values)}
}

// With resolves the series for the given label values (nil-safe).
func (v *HistogramVec) With(values ...string) Histogram {
	if v == nil {
		return Histogram{}
	}
	return Histogram{s: v.f.with(values), bounds: v.f.buckets}
}

// Add increments the counter by delta (negative deltas are ignored — a
// counter is monotone by contract).
func (c Counter) Add(delta float64) {
	if c.s == nil || delta < 0 {
		return
	}
	c.s.addFloat(&c.s.valBits, delta)
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Set stores v.
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.valBits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds its current value (a new
// series starts at 0).
func (g Gauge) SetMax(v float64) {
	if g.s == nil {
		return
	}
	for {
		old := g.s.valBits.Load()
		if v <= math.Float64frombits(old) || g.s.valBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Add adjusts the gauge by delta (either sign).
func (g Gauge) Add(delta float64) {
	if g.s == nil {
		return
	}
	g.s.addFloat(&g.s.valBits, delta)
}

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	if h.s == nil {
		return
	}
	// Buckets are few (≤ ~25) and log-spaced; linear scan beats binary
	// search at this size and branch-predicts well for clustered latencies.
	// NaN and values above the last bound land in the +Inf bucket.
	i := 0
	for i < len(h.bounds) && !(v <= h.bounds[i]) {
		i++
	}
	h.s.counts[i].Add(1)
	h.s.addFloat(&h.s.sumBits, v)
}

// bucketQuantile interpolates the q-quantile from cumulative bucket counts
// (cum has one entry per finite bound plus the +Inf total). Shared with the
// exposition parser so scraped histograms yield the same estimate.
func bucketQuantile(q float64, bounds []float64, cum []uint64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	idx := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if idx >= len(bounds) {
		// Inside the +Inf bucket: the honest answer is "at least the last
		// finite bound".
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lo, loCount := 0.0, uint64(0)
	if idx > 0 {
		lo, loCount = bounds[idx-1], cum[idx-1]
	}
	hi := bounds[idx]
	inBucket := cum[idx] - loCount
	if inBucket == 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(loCount))/float64(inBucket)
}

// ---- Standard bucket layouts ----

// LogBuckets returns count upper bounds log-spaced by factor starting at
// start: start, start·factor, start·factor², … — the fixed layout every
// latency histogram in the serving tier shares so scrapes diff cleanly
// across processes.
func LogBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count <= 0 {
		panic("telemetry: LogBuckets wants start > 0, factor > 1, count > 0")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets is the default request-latency layout: 100 µs to ~105 s
// in ×2 steps (21 buckets) — wide enough for a cache hit and a cold
// 30-second refit on the same axis.
var DefLatencyBuckets = LogBuckets(100e-6, 2, 21)

// DefSizeBuckets is the default byte-size layout: 64 B to ~256 MiB in ×4
// steps (12 buckets).
var DefSizeBuckets = LogBuckets(64, 4, 12)

// DefDepthBuckets is the default small-count layout (batch depths, attempt
// counts): 1 to 1024 in ×2 steps.
var DefDepthBuckets = LogBuckets(1, 2, 11)

// runScrapeHooks snapshots and runs the OnScrape callbacks.
func (r *Registry) runScrapeHooks() {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}
