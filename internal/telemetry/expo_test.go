package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// buildSample populates a registry with every metric type, including label
// values that need escaping.
func buildSample() *Registry {
	reg := NewRegistry()
	c := reg.Counter("uoivar_serve_requests_total", "Requests by endpoint and code.", "endpoint", "code")
	c.With("/v1/forecast", "200").Add(42)
	c.With("/v1/forecast", "429").Add(3)
	c.With("/v1/granger", "200").Add(7)

	g := reg.Gauge("uoivar_fleet_replica_healthy", "1 while healthy.", "replica")
	g.With("0").Set(1)
	g.With("1").Set(0)

	h := reg.Histogram("uoivar_serve_request_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, "endpoint")
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 2.5} {
		h.With("/v1/forecast").Observe(v)
	}

	esc := reg.Counter("uoivar_test_escapes_total", `Help with \ backslash`, "tenant")
	esc.With("quo\"te\\slash\nnewline").Inc()
	return reg
}

func TestExpositionFormat(t *testing.T) {
	text := buildSample().Expose()
	for _, want := range []string{
		"# HELP uoivar_serve_requests_total Requests by endpoint and code.\n",
		"# TYPE uoivar_serve_requests_total counter\n",
		`uoivar_serve_requests_total{endpoint="/v1/forecast",code="200"} 42` + "\n",
		"# TYPE uoivar_serve_request_seconds histogram\n",
		`uoivar_serve_request_seconds_bucket{endpoint="/v1/forecast",le="0.001"} 1` + "\n",
		`uoivar_serve_request_seconds_bucket{endpoint="/v1/forecast",le="0.01"} 3` + "\n",
		`uoivar_serve_request_seconds_bucket{endpoint="/v1/forecast",le="+Inf"} 5` + "\n",
		`uoivar_serve_request_seconds_count{endpoint="/v1/forecast"} 5` + "\n",
		`uoivar_fleet_replica_healthy{replica="1"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	// Deterministic: two expositions of the same registry are identical.
	if again := buildSample().Expose(); again != text {
		t.Error("exposition is not deterministic across identical registries")
	}
}

func TestRoundTrip(t *testing.T) {
	reg := buildSample()
	exp, err := ParseExposition(strings.NewReader(reg.Expose()))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, reg.Expose())
	}
	if v, ok := exp.Value("uoivar_serve_requests_total",
		map[string]string{"endpoint": "/v1/forecast", "code": "200"}); !ok || v != 42 {
		t.Fatalf("parsed counter = %g, %v", v, ok)
	}
	if v, ok := exp.Value("uoivar_test_escapes_total",
		map[string]string{"tenant": "quo\"te\\slash\nnewline"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip = %g, %v", v, ok)
	}
	fam := exp.Families["uoivar_serve_requests_total"]
	if fam == nil || fam.Type != TypeCounter || fam.Help != "Requests by endpoint and code." {
		t.Fatalf("family = %+v", fam)
	}
	if sum, n := exp.SumValues("uoivar_serve_requests_total",
		map[string]string{"endpoint": "/v1/forecast"}); sum != 45 || n != 2 {
		t.Fatalf("SumValues = %g over %d series, want 45 over 2", sum, n)
	}
	// Quantiles estimated from the scraped buckets match the live registry.
	liveQ := reg.Histogram("uoivar_serve_request_seconds", "Latency.",
		[]float64{0.001, 0.01, 0.1}, "endpoint").With("/v1/forecast").Quantile(0.5)
	parsedQ, ok := exp.HistogramQuantile("uoivar_serve_request_seconds",
		map[string]string{"endpoint": "/v1/forecast"}, 0.5)
	if !ok || math.Abs(parsedQ-liveQ) > 1e-12 {
		t.Fatalf("parsed p50 = %g (%v), live p50 = %g", parsedQ, ok, liveQ)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "uoivar_x_total 1\n",
		"bad value":             "# TYPE uoivar_x_total counter\nuoivar_x_total one\n",
		"trailing timestamp":    "# TYPE uoivar_x_total counter\nuoivar_x_total 1 123456\n",
		"unknown type":          "# TYPE uoivar_x_total summary\nuoivar_x_total 1\n",
		"duplicate TYPE":        "# TYPE uoivar_x gauge\n# TYPE uoivar_x gauge\nuoivar_x 1\n",
		"negative counter":      "# TYPE uoivar_x_total counter\nuoivar_x_total -1\n",
		"unterminated labels":   "# TYPE uoivar_x gauge\nuoivar_x{a=\"b 1\n",
		"duplicate label":       "# TYPE uoivar_x gauge\nuoivar_x{a=\"1\",a=\"2\"} 1\n",
		"bad metric name":       "# TYPE 9uoivar gauge\n9uoivar 1\n",
		"histogram no +Inf":     "# TYPE uoivar_h histogram\nuoivar_h_bucket{le=\"1\"} 1\nuoivar_h_sum 1\nuoivar_h_count 1\n",
		"histogram no sum":      "# TYPE uoivar_h histogram\nuoivar_h_bucket{le=\"+Inf\"} 1\nuoivar_h_count 1\n",
		"histogram count drift": "# TYPE uoivar_h histogram\nuoivar_h_bucket{le=\"+Inf\"} 1\nuoivar_h_sum 1\nuoivar_h_count 2\n",
		"histogram decreasing":  "# TYPE uoivar_h histogram\nuoivar_h_bucket{le=\"1\"} 5\nuoivar_h_bucket{le=\"2\"} 3\nuoivar_h_bucket{le=\"+Inf\"} 5\nuoivar_h_sum 1\nuoivar_h_count 5\n",
		"foreign sample":        "# TYPE uoivar_x gauge\nuoivar_y 1\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParserAcceptsSpecials(t *testing.T) {
	doc := "# some free-form comment\n" +
		"# TYPE uoivar_x gauge\n" +
		"uoivar_x{a=\"\"} +Inf\n" +
		"uoivar_x{a=\"n\"} NaN\n" +
		"uoivar_x{a=\"neg\"} -Inf\n" +
		"\n" +
		"# TYPE uoivar_plain counter\n" +
		"uoivar_plain 0\n"
	exp, err := ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("uoivar_x", map[string]string{"a": ""}); !ok || !math.IsInf(v, +1) {
		t.Fatalf("inf sample = %g %v", v, ok)
	}
	if v, ok := exp.Value("uoivar_plain", nil); !ok || v != 0 {
		t.Fatalf("label-free sample = %g %v", v, ok)
	}
}

// TestMetricsHandler: Handler renders its registries one after another
// (nil ones contribute nothing) as one valid exposition.
func TestMetricsHandler(t *testing.T) {
	reg := buildSample()
	other := NewRegistry()
	other.Counter("uoivar_other_total", "").With().Add(4)
	srv := httptest.NewServer(Handler(reg, nil, other))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	exp, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("served exposition invalid: %v", err)
	}
	if len(exp.Families) != len(reg.families)+1 {
		t.Fatalf("served %d families, want %d", len(exp.Families), len(reg.families)+1)
	}
	if v, ok := exp.Value("uoivar_other_total", nil); !ok || v != 4 {
		t.Fatalf("second registry's counter = %g %v", v, ok)
	}
}

func TestOnScrapeHookRuns(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("uoivar_bridge_value", "")
	n := 0
	reg.OnScrape(func() { n++; g.With().Set(float64(n)) })
	if !strings.Contains(reg.Expose(), "uoivar_bridge_value 1") {
		t.Fatal("first scrape missing hook value")
	}
	if !strings.Contains(reg.Expose(), "uoivar_bridge_value 2") {
		t.Fatal("second scrape did not re-run hook")
	}
}
