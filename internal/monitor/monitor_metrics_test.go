package monitor

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uoivar/internal/mpi"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// TestMonitorMetricsEndpoint: SetMetrics mounts the registry's Prometheus
// exposition at GET /metrics; without a registry the endpoint answers 404.
func TestMonitorMetricsEndpoint(t *testing.T) {
	s := New("metrics")
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

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

// TestCommRowsMatchStats: for one labeled 2-rank world, the /debug/uoivar
// comm map, the uoivar_mpi_* gauges on /metrics and uoi.RankPerf's Comm
// rows all carry the meters of LocalStats and LocalLabelStats, blocked time
// included.
func TestCommRowsMatchStats(t *testing.T) {
	local := make([]mpi.Stats, 2)
	labeled := make([]map[string]mpi.Stats, 2)
	perf := make([]trace.RankPerf, 2)
	var world *mpi.Comm
	if err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			world = c
			c.Send(1, 0, []float64{1, 2})
		} else {
			c.Recv(0, 0)
			time.Sleep(2 * time.Millisecond) // rank 0 waits in the Allreduce
		}
		row := c.WithLabel("row")
		row.Allreduce(mpi.OpSum, []float64{1, 2, 3})
		row.Barrier()
		local[c.Rank()], labeled[c.Rank()] = c.LocalStats(), c.LocalLabelStats()
		perf[c.Rank()] = uoi.RankPerf(c, trace.New())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if local[0].Wait[mpi.CatCollective] == 0 {
		t.Fatal("the stalled Allreduce recorded no blocked time")
	}

	s := New("rows")
	s.SetStats(world.AllStats)
	reg := telemetry.NewRegistry()
	telemetry.BridgeMPI(reg, world.AllStats)
	s.SetMetrics(reg)
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
		rows(labeled[r]["row"], "[row]")
		if len(labeled[r]) != 1 || !reflect.DeepEqual(perf[r].Comm, want) {
			t.Errorf("rank %d RankPerf comm %+v (labels %v), want %+v", r, perf[r].Comm, labeled[r], want)
		}
	}
}
