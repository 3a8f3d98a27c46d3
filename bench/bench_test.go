package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON pins the declared surface: the names,
// units, directions and bounds in BENCHMARK.json are the catalogue's.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalogue %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from the catalogue's %q", i, w.Name, workloads[i].Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v differs from the catalogue's %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q: bad name, unit or direction", kind, g.Name)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %q: bound missing, outside (0, 0.25], or not the catalogue's %g", kind, g.Name, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload once at tiny shapes, untraced and traced,
// and checks what a run must emit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(&w, 1, 0.2, false, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			res, err = runWorkload(&w, 1, 0.2, true, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run failed %d of %d", res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v)", d.Name, m, ok)
				}
			}
			if v := res.Metrics["uoi.selection_explained"].Value; !(v > 0) {
				t.Errorf("uoi.selection_explained = %v, want finite and positive", v)
			}
			checkTrace(t, filepath.Join(out, w.Name+".trace.json"))
		})
	}
}

// checkTrace asserts the trace file holds well-formed, parent-linked spans.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	byID := make(map[int]span)
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range tr.Spans {
		if s.ID <= 0 || s.Layer == "" || s.Name == "" || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d: parent %d not in the trace", s.ID, s.Parent)
			continue
		}
		if p.Op != s.Op {
			t.Errorf("span %d (op %d) has parent %d of op %d", s.ID, s.Op, p.ID, p.Op)
		}
	}
	if children == 0 {
		t.Error("trace has no child spans")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"op_p25_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	steady := samples{100, 101, 99, 100}
	cases := []struct {
		name string
		a, b samples
		def  metricDef
		want string
	}{
		{"within bound", steady, samples{104, 105, 103, 104}, lower, "ok"},
		{"slower beyond bound", steady, samples{120, 121, 119, 120}, lower, "regressed"},
		{"throughput drop beyond bound", steady, samples{80, 81, 79, 80}, higher, "regressed"},
		{"noisy", samples{80, 100, 120, 140}, samples{90, 110, 130, 150}, lower, "unresolved"},
		{"noisy but every run better", samples{80, 100, 120, 140}, samples{40, 50, 60, 70}, lower, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
