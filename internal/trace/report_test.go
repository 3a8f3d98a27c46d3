package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleReport builds a fully-populated report with hand-set numbers, the
// shape a 2-rank distributed fit emits.
func sampleReport() *PerfReport {
	ranks := make([]RankPerf, 2)
	for rank := 0; rank < 2; rank++ {
		rp := RankPerf{
			Rank: rank,
			Phases: []PhaseStat{
				{Name: "estimation", Count: 1, Seconds: 0.2},
				{Name: "estimation/bootstrap", Count: 4, Seconds: 0.18},
				{Name: "intersection", Count: 1, Seconds: 0.01},
				{Name: "lambda_grid", Count: 1, Seconds: 0.02},
				{Name: "selection", Count: 1, Seconds: 0.5},
				{Name: "selection/bootstrap", Count: 8, Seconds: 0.45},
				{Name: "union", Count: 1, Seconds: 0.03},
			},
			Counters: map[string]int64{
				"admm/solves":        12,
				"admm/iters":         480,
				"mat/kernel_workers": 2,
			},
		}
		rp.Comm = []CommStat{
			{Category: "collective", Calls: 24, Bytes: 4096, Seconds: 0.11},
			{Category: "p2p", Calls: 6, Bytes: 1024, Seconds: 0.04},
		}
		rp.FinalizeCompute()
		ranks[rank] = rp
	}
	// Feed ranks unsorted to exercise NewPerfReport's ordering.
	return NewPerfReport("lasso", 0.8, []RankPerf{ranks[1], ranks[0]})
}

func TestTopLevelSecondsIgnoresNested(t *testing.T) {
	rp := sampleReport().Ranks[0]
	// lambda_grid + selection + intersection + estimation + union,
	// NOT the "/" children.
	want := 0.02 + 0.5 + 0.01 + 0.2 + 0.03
	if got := rp.TopLevelSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TopLevelSeconds = %v, want %v", got, want)
	}
}

func TestFinalizeCompute(t *testing.T) {
	rp := sampleReport().Ranks[0]
	if math.Abs(rp.CommSeconds-0.15) > 1e-12 {
		t.Fatalf("CommSeconds = %v, want 0.15", rp.CommSeconds)
	}
	want := rp.TopLevelSeconds() - 0.15
	if math.Abs(rp.ComputeSeconds-want) > 1e-12 {
		t.Fatalf("ComputeSeconds = %v, want %v", rp.ComputeSeconds, want)
	}
}

func TestFinalizeComputeClampsAtZero(t *testing.T) {
	rp := RankPerf{Phases: []PhaseStat{{Name: "selection", Seconds: 0.1}}}
	rp.Comm = []CommStat{{Category: "collective", Calls: 1, Bytes: 8, Seconds: 0.5}} // comm exceeds phase total
	rp.FinalizeCompute()
	if rp.ComputeSeconds != 0 {
		t.Fatalf("ComputeSeconds = %v, want clamped 0", rp.ComputeSeconds)
	}
	if rp.CommSeconds != 0.5 {
		t.Fatalf("CommSeconds = %v, want 0.5", rp.CommSeconds)
	}
}

func TestNewPerfReportSortsRanks(t *testing.T) {
	p := sampleReport()
	for i, rp := range p.Ranks {
		if rp.Rank != i {
			t.Fatalf("rank at index %d is %d", i, rp.Rank)
		}
	}
}

// TestPerfReportRoundTrip serializes and reparses; the decoded report must
// be structurally identical.
func TestPerfReportRoundTrip(t *testing.T) {
	p := sampleReport()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePerfReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip mismatch:\nout: %+v\nin:  %+v", p, back)
	}
}

// Only the current schema parses: a v0 document and a legacy v1 artifact
// (well-formed, no peers/dropped_events) are both refused.
func TestParsePerfReportRejectsWrongSchema(t *testing.T) {
	for _, doc := range []string{
		`{"schema":"uoivar/perf-report/v0"}`,
		`{"schema":"uoivar/perf-report/v1","name":"old","wall_seconds":1,
			"ranks":[{"rank":0,"phases":[],"compute_seconds":0,"comm_seconds":0}]}`,
	} {
		if _, err := ParsePerfReport([]byte(doc)); err == nil {
			t.Fatalf("want schema error for %s", doc)
		}
	}
	if _, err := ParsePerfReport([]byte(`{not json`)); err == nil {
		t.Fatal("want parse error")
	}
}

// TestPerfReportGolden pins the exact serialized layout: field names, key
// order, and schema string. Changing any of these is a consumer-visible
// break and must come with a schema bump.
func TestPerfReportGolden(t *testing.T) {
	rp := RankPerf{
		Rank:     0,
		Phases:   []PhaseStat{{Name: "selection", Count: 2, Seconds: 0.5}},
		Counters: map[string]int64{"admm/iters": 40},
	}
	rp.Comm = []CommStat{{Category: "collective", Calls: 3, Bytes: 256, Seconds: 0.125}}
	rp.AddPeer(1, "p2p", "send", 2, 128, 0.01)
	rp.FinalizeCompute()
	p := NewPerfReport("golden", 1.5, []RankPerf{rp})
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "schema": "uoivar/perf-report/v2",
  "name": "golden",
  "wall_seconds": 1.5,
  "ranks": [
    {
      "rank": 0,
      "phases": [
        {
          "name": "selection",
          "count": 2,
          "seconds": 0.5
        }
      ],
      "counters": {
        "admm/iters": 40
      },
      "comm": [
        {
          "category": "collective",
          "calls": 3,
          "bytes": 256,
          "seconds": 0.125
        }
      ],
      "compute_seconds": 0.375,
      "comm_seconds": 0.125,
      "peers": [
        {
          "peer": 1,
          "category": "p2p",
          "direction": "send",
          "calls": 2,
          "bytes": 128,
          "seconds": 0.01
        }
      ]
    }
  ]
}
`
	if got := buf.String(); got != golden {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestRankPerfFromTracer checks the tracer snapshot path end to end.
func TestRankPerfFromTracer(t *testing.T) {
	tr := New()
	tr.Start("selection").End()
	tr.Add("admm/solves", 5)
	tr.SetMax("mat/kernel_workers", 3)
	rp := tr.RankPerf(2)
	if rp.Rank != 2 {
		t.Fatalf("rank = %d, want 2", rp.Rank)
	}
	if len(rp.Phases) != 1 || rp.Phases[0].Name != "selection" {
		t.Fatalf("phases = %+v", rp.Phases)
	}
	if rp.Counters["admm/solves"] != 5 || rp.Counters["mat/kernel_workers"] != 3 {
		t.Fatalf("counters = %+v", rp.Counters)
	}
}

// Empty counters must serialize as an omitted field, not "null"/"{}" noise.
func TestEmptyCountersOmitted(t *testing.T) {
	p := NewPerfReport("x", 0, []RankPerf{New().RankPerf(0)})
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "counters") || strings.Contains(buf.String(), "comm\"") {
		t.Fatalf("empty optional fields serialized:\n%s", buf.String())
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
}
