package monitor

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uoivar/internal/datagen"
	"uoivar/internal/mpi"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// TestMonitorMetricsEndpoint: SetMetrics mounts the registry's Prometheus
// exposition at GET /metrics, followed by the SetTracer registry; without a
// SetMetrics registry the endpoint answers 404 even when a tracer is set.
func TestMonitorMetricsEndpoint(t *testing.T) {
	s := New("metrics")
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := trace.New()
	tr.Add("serve/requests", 2)
	s.SetTracer(tr)
	if code, _ := get(t, addr, "/metrics"); code != http.StatusNotFound {
		t.Fatalf("metrics without registry = %d, want 404", code)
	}

	reg := telemetry.NewRegistry()
	reg.Counter("uoivar_test_requests_total", "test counter").With().Add(3)
	s.SetMetrics(reg)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if v, ok := exp.Value("uoivar_test_requests_total", nil); !ok || v != 3 {
		t.Fatalf("counter = %g %v", v, ok)
	}
	if v, ok := exp.Value("uoivar_trace_counter", map[string]string{"name": "serve/requests"}); !ok || v != 2 {
		t.Fatalf("trace counter = %g %v", v, ok)
	}
}

// TestMonitorSettersRaceServing drives every setter concurrently with
// Register, Snapshot, and live /healthz + /metrics traffic; run under -race
// this pins the lock discipline around the Server's mutable sources.
func TestMonitorSettersRaceServing(t *testing.T) {
	s := New("race")
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rounds = 50
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	run(func(i int) {
		if i%2 == 0 {
			s.SetDegraded(func() []string { return []string{"replica 0 evicted"} })
		} else {
			s.SetDegraded(nil)
		}
	})
	run(func(i int) {
		if i%2 == 0 {
			s.SetReadiness(func() error { return nil })
		} else {
			s.SetReadiness(nil)
		}
	})
	run(func(i int) {
		if i%2 == 0 {
			s.SetMetrics(telemetry.NewRegistry())
		} else {
			s.SetMetrics(nil)
		}
	})
	run(func(i int) { s.SetState(func() map[string]any { return map[string]any{"i": i} }) })
	run(func(i int) {
		tr := trace.New()
		tr.Add("c", int64(i))
		s.SetTracer(tr)
	})
	run(func(i int) {
		s.SetStats(func() []mpi.Stats { return make([]mpi.Stats, i%3) })
	})
	run(func(int) { s.Register(http.NewServeMux()) })
	run(func(int) { _ = s.Snapshot() })
	run(func(int) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
	})
	run(func(int) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			resp.Body.Close()
		}
	})
	wg.Wait()
}

// TestExpvarFollowsLatestServer: the process-wide expvar "uoivar" tracks the
// most recently registered Server, so successive servers in one process
// (replica restarts, sequential tests) hand the name off cleanly.
func TestExpvarFollowsLatestServer(t *testing.T) {
	s1 := New("first-server")
	s1.Register(http.NewServeMux())
	if got := expvar.Get("uoivar").String(); !strings.Contains(got, "first-server") {
		t.Fatalf("expvar after first Register = %s", got)
	}
	s2 := New("second-server")
	mux := http.NewServeMux()
	s2.Register(mux)
	if got := expvar.Get("uoivar").String(); !strings.Contains(got, "second-server") {
		t.Fatalf("expvar did not swap to the latest server: %s", got)
	}
	// The swapped-in server serves the same document over HTTP.
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "second-server") {
		t.Fatalf("/debug/vars = %s", body)
	}
}

// TestCommRowsMatchStats is the agreement test for the numbers the system
// reports about itself. One monitor sits over a traced 4-rank partitioned
// UoI_LASSO fit (SetStats + SetTracer + SetMetrics), after a labeled
// exchange that makes rank 0 block. The /debug/uoivar comm map, the
// uoivar_mpi_* gauges and uoi.RankPerf's Comm rows must all carry the
// meters of LocalStats and LocalLabelStats, blocked time included. Rank 0's
// Tracer.Counters(), the snapshot's state, the scraped uoivar_trace_counter
// and uoivar_trace_max series, the scraped uoivar_trace_phase_seconds
// _count/_sum and RankPerf's phases must agree exactly.
func TestCommRowsMatchStats(t *testing.T) {
	const ranks = 4
	data := datagen.MakeRegression(43, 240, 16, nil)
	local := make([]mpi.Stats, ranks)
	labeled := make([]map[string]mpi.Stats, ranks)
	perf := make([]trace.RankPerf, ranks)
	tracers := make([]*trace.Tracer, ranks)
	var world *mpi.Comm
	if err := mpi.Run(ranks, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			world = c
			c.Send(1, 0, []float64{1, 2})
		case 1:
			c.Recv(0, 0)
			time.Sleep(2 * time.Millisecond) // rank 0 waits in the Allreduce
		}
		row := c.WithLabel("row")
		row.Allreduce(mpi.OpSum, []float64{1, 2, 3})
		row.Barrier()
		tr := trace.New()
		lo, hi := c.Rank()*60, (c.Rank()+1)*60
		cfg := &uoi.LassoConfig{B1: 4, B2: 3, Q: 5, Seed: 13, Trace: tr,
			Placement: &uoi.Placement{Comm: c, Partitioned: true}}
		if _, err := uoi.Lasso(data.X.SubRows(lo, hi), data.Y[lo:hi], cfg); err != nil {
			return err
		}
		local[c.Rank()], labeled[c.Rank()] = c.LocalStats(), c.LocalLabelStats()
		perf[c.Rank()], tracers[c.Rank()] = uoi.RankPerf(c, tr), tr
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if local[0].Wait[mpi.CatCollective] == 0 {
		t.Fatal("the stalled Allreduce recorded no blocked time")
	}

	s := New("rows")
	s.SetStats(world.AllStats)
	s.SetTracer(tracers[0])
	s.SetMetrics(telemetry.NewRegistry())
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body := get(t, addr, "/debug/uoivar")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, addr, "/metrics")
	exp, err := telemetry.ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}

	cats := []mpi.Category{mpi.CatP2P, mpi.CatCollective, mpi.CatOneSided}
	for r := range local {
		var want []trace.CommStat
		rows := func(st mpi.Stats, suffix string) {
			for _, cat := range cats {
				if st.Calls[cat] > 0 {
					want = append(want, trace.CommStat{Category: cat.String() + suffix,
						Calls: st.Calls[cat], Bytes: st.Bytes[cat],
						Seconds: st.Time[cat].Seconds(), WaitSeconds: st.Wait[cat].Seconds()})
				}
			}
		}
		rows(local[r], "")
		comm := map[string]CommCounters{}
		for _, w := range want {
			comm[w.Category] = CommCounters{Calls: w.Calls, Bytes: w.Bytes, Seconds: w.Seconds, WaitSeconds: w.WaitSeconds}
			at := map[string]string{"rank": strconv.Itoa(r), "category": w.Category}
			for name, v := range map[string]float64{
				"uoivar_mpi_calls": float64(w.Calls), "uoivar_mpi_bytes": float64(w.Bytes),
				"uoivar_mpi_seconds": w.Seconds, "uoivar_mpi_wait_seconds": w.WaitSeconds,
			} {
				if got, ok := exp.Value(name, at); !ok || got != v {
					t.Errorf("%s%v = %g (present %v), want %g", name, at, got, ok, v)
				}
			}
		}
		if !reflect.DeepEqual(snap.Ranks[r].Comm, comm) {
			t.Errorf("rank %d snapshot comm %+v, want %+v", r, snap.Ranks[r].Comm, comm)
		}
		if _, ok := labeled[r]["row"]; !ok {
			t.Errorf("rank %d: no [row] breakdown in %v", r, labeled[r])
		}
		labels := make([]string, 0, len(labeled[r]))
		for l := range labeled[r] {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, label := range labels {
			rows(labeled[r][label], "["+label+"]")
		}
		if !reflect.DeepEqual(perf[r].Comm, want) {
			t.Errorf("rank %d RankPerf comm %+v, want %+v", r, perf[r].Comm, want)
		}
	}

	counters := tracers[0].Counters()
	if counters["admm/solves"] == 0 || counters["mat/kernel_workers"] == 0 {
		t.Fatalf("rank 0 tracer counted no solver work: %v", counters)
	}
	if len(snap.State) != len(counters) {
		t.Errorf("snapshot state has %d keys, tracer %d counters", len(snap.State), len(counters))
	}
	_, nCounters := exp.SumValues("uoivar_trace_counter", nil)
	_, nMaxes := exp.SumValues("uoivar_trace_max", nil)
	if nCounters+nMaxes != len(counters) {
		t.Errorf("scrape carries %d+%d trace series, tracer %d counters", nCounters, nMaxes, len(counters))
	}
	for k, v := range counters {
		if got, ok := snap.State[k].(float64); !ok || got != float64(v) {
			t.Errorf("state[%q] = %v, tracer %d", k, snap.State[k], v)
		}
		got, ok := exp.Value("uoivar_trace_counter", map[string]string{"name": k})
		if !ok {
			got, ok = exp.Value("uoivar_trace_max", map[string]string{"name": k})
		}
		if !ok || got != float64(v) {
			t.Errorf("scraped trace series %q = %g (present %v), tracer %d", k, got, ok, v)
		}
	}
	phases := tracers[0].Phases()
	if !reflect.DeepEqual(perf[0].Phases, phases) {
		t.Errorf("RankPerf phases %+v, tracer %+v", perf[0].Phases, phases)
	}
	if _, n := exp.SumValues("uoivar_trace_phase_seconds_count", nil); n != len(phases) {
		t.Errorf("scrape carries %d phase series, tracer %d phases", n, len(phases))
	}
	for _, ph := range phases {
		at := map[string]string{"phase": ph.Name}
		if got, ok := exp.Value("uoivar_trace_phase_seconds_count", at); !ok || got != float64(ph.Count) {
			t.Errorf("%s _count = %g (present %v), tracer %d", ph.Name, got, ok, ph.Count)
		}
		if got, ok := exp.Value("uoivar_trace_phase_seconds_sum", at); !ok || got != ph.Seconds {
			t.Errorf("%s _sum = %g (present %v), tracer %g", ph.Name, got, ok, ph.Seconds)
		}
	}
}
