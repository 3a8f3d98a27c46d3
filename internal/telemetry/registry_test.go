package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("uoivar_test_requests_total", "requests", "endpoint", "code")
	reqs.With("/v1/forecast", "200").Add(3)
	reqs.With("/v1/forecast", "200").Inc()
	reqs.With("/v1/forecast", "429").Inc()
	if v := reqs.With("/v1/forecast", "200").Value(); v != 4 {
		t.Fatalf("counter = %g, want 4", v)
	}
	// Negative deltas are ignored: counters are monotone.
	reqs.With("/v1/forecast", "200").Add(-2)
	if v := reqs.With("/v1/forecast", "200").Value(); v != 4 {
		t.Fatalf("counter after negative add = %g, want 4", v)
	}

	g := reg.Gauge("uoivar_test_inflight", "in flight", "endpoint")
	g.With("/v1/forecast").Set(7)
	g.With("/v1/forecast").Add(-2)
	if v := g.With("/v1/forecast").Value(); v != 5 {
		t.Fatalf("gauge = %g, want 5", v)
	}
}

func TestReRegistrationIdempotentAndChecked(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("uoivar_test_total", "", "x")
	b := reg.Counter("uoivar_test_total", "", "x")
	a.With("1").Inc()
	b.With("1").Inc()
	if v := a.With("1").Value(); v != 2 {
		t.Fatalf("re-registered counter = %g, want 2 (same series)", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema-changing re-registration did not panic")
		}
	}()
	reg.Gauge("uoivar_test_total", "", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			reg.Counter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reserved label name did not panic")
			}
		}()
		reg.Counter("uoivar_ok_total", "", "__reserved")
	}()
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("uoivar_test_latency_seconds", "latency",
		[]float64{0.001, 0.01, 0.1, 1}, "endpoint").With("/v1/forecast")
	// 100 observations uniform over (0, 0.1]: ~exponential-bucket spread.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5.05) > 1e-9 {
		t.Fatalf("sum = %g, want 5.05", h.Sum())
	}
	// p50: rank 50 lands exactly at the 0.01..0.1 bucket boundary region:
	// buckets hold [1], [9], [90], [0] observations cumulatively 1,10,100.
	p50 := h.Quantile(0.5)
	want := 0.01 + (0.1-0.01)*(50-10)/90.0
	if math.Abs(p50-want) > 1e-9 {
		t.Fatalf("p50 = %g, want %g", p50, want)
	}
	// p999 within the last occupied bucket.
	p999 := h.Quantile(0.999)
	if p999 < 0.09 || p999 > 0.1 {
		t.Fatalf("p999 = %g, want in (0.09, 0.1]", p999)
	}
	// Above every bucket: clamps to the largest finite bound.
	h.Observe(100)
	if q := h.Quantile(1); q != 1 {
		t.Fatalf("q1 with +Inf observation = %g, want clamp to 1", q)
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("uoivar_test_empty_seconds", "", []float64{1, 2}).With()
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %g, want NaN", q)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for i := 1; i < len(DefLatencyBuckets); i++ {
		if DefLatencyBuckets[i] <= DefLatencyBuckets[i-1] {
			t.Fatal("DefLatencyBuckets not increasing")
		}
	}
}

func TestCardinalityOverflow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("uoivar_test_tenants_total", "", "tenant")
	for i := 0; i < MaxSeriesPerFamily+50; i++ {
		c.With(fmt.Sprintf("tenant-%d", i)).Inc()
	}
	// Everything past the cap collapsed into one overflow series; the total
	// across series is conserved.
	if v := c.With(OverflowLabel).Value(); v != 50 {
		t.Fatalf("overflow series = %g, want 50", v)
	}
	text := reg.Expose()
	if n := strings.Count(text, "uoivar_test_tenants_total{"); n != MaxSeriesPerFamily+1 {
		t.Fatalf("exposed series = %d, want %d", n, MaxSeriesPerFamily+1)
	}
}

func TestConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("uoivar_test_conc_total", "", "worker")
	h := reg.Histogram("uoivar_test_conc_seconds", "", []float64{0.5}, "worker")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprint(w % 2)
			for i := 0; i < per; i++ {
				c.With(lbl).Inc()
				h.With(lbl).Observe(0.25)
			}
		}(w)
	}
	wg.Wait()
	total := c.With("0").Value() + c.With("1").Value()
	if total != workers*per {
		t.Fatalf("concurrent counter total = %g, want %d", total, workers*per)
	}
	if n := h.With("0").Count() + h.With("1").Count(); n != workers*per {
		t.Fatalf("concurrent histogram count = %d, want %d", n, workers*per)
	}
}

// TestGaugeSetMaxAndEach: SetMax only raises a gauge, and Each reads a
// family's series back in creation order — the read path internal/trace's
// accessors stand on.
func TestGaugeSetMaxAndEach(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("uoivar_x_max", "", "name")
	for _, v := range []float64{4, 2, 7, 5} {
		g.With("a").SetMax(v)
	}
	g.With("b").SetMax(1)
	c := reg.Counter("uoivar_x_total", "", "name")
	c.With("z").Add(2)
	c.With("y").Add(3)
	h := reg.Histogram("uoivar_x_seconds", "", []float64{1, 2}, "phase")
	h.With("p").Observe(0.5)
	h.With("p").Observe(5)

	var got []string
	for _, name := range []string{"uoivar_x_max", "uoivar_x_total", "uoivar_x_seconds", "uoivar_absent"} {
		reg.Each(name, func(l []string, v float64, n uint64) {
			got = append(got, fmt.Sprint(l[0], "=", v, "/", n))
		})
	}
	want := []string{"a=7/0", "b=1/0", "z=2/0", "y=3/0", "p=5.5/2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	var nilReg *Registry
	nilReg.Each("uoivar_x_max", func([]string, float64, uint64) { t.Fatal("nil registry has series") })
}

// The whole disabled path — nil registry, nil vectors, nil handles, nil
// logger — must allocate nothing, so telemetry-off serving costs only the
// nil checks (the same contract internal/trace makes).
func TestDisabledRegistryAllocatesNothing(t *testing.T) {
	var reg *Registry
	cv := reg.Counter("uoivar_x_total", "", "a")
	gv := reg.Gauge("uoivar_x", "", "a")
	hv := reg.Histogram("uoivar_x_seconds", "", nil, "a")
	var al *AccessLogger
	allocs := testing.AllocsPerRun(100, func() {
		cv.With("v").Inc()
		gv.With("v").Set(1)
		gv.With("v").SetMax(2)
		hv.With("v").Observe(0.1)
		reg.OnScrape(func() {})
		al.Log(AccessEntry{Status: 200})
		if reg.Enabled() {
			t.Fatal("nil registry enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("uoivar_bench_total", "", "l").With("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("uoivar_bench_seconds", "", nil, "l").With("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkDisabledVecWith(b *testing.B) {
	var reg *Registry
	hv := reg.Histogram("uoivar_bench_seconds", "", nil, "l")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hv.With("x").Observe(0.003)
	}
}

// Value returns the counter's current value (0 for a nil handle).
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.valBits.Load())
}

// Value returns the gauge's current value (0 for a nil handle).
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.valBits.Load())
}

// Count returns the histogram's total observation count.
func (h Histogram) Count() uint64 {
	if h.s == nil {
		return 0
	}
	return h.s.count()
}

// Sum returns the histogram's observation sum.
func (h Histogram) Sum() float64 {
	if h.s == nil {
		return 0
	}
	return math.Float64frombits(h.s.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the target bucket — the same estimate
// Prometheus's histogram_quantile gives for this layout. Observations in
// the +Inf bucket clamp to the largest finite bound; an empty histogram
// returns NaN.
func (h Histogram) Quantile(q float64) float64 {
	if h.s == nil {
		return math.NaN()
	}
	cum := make([]uint64, len(h.s.counts))
	var total uint64
	for i := range h.s.counts {
		total += h.s.counts[i].Load()
		cum[i] = total
	}
	return bucketQuantile(q, h.bounds, cum)
}
