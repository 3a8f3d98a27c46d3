// Package monitor serves a live metrics/health endpoint for a running fit:
// an expvar-style JSON snapshot of the in-flight phase per rank, per-rank
// health and communication counters, and any caller-registered state
// (quorum/degradation, run configuration). It is the runtime companion to
// the post-hoc PerfReport: the report says what happened, the monitor says
// what is happening.
//
// Endpoints:
//
//	/healthz       — "ok" (200) while no rank has failed, "degraded" (503)
//	                 with the failed-rank list otherwise
//	/debug/uoivar  — the full JSON snapshot
//	/debug/vars    — standard expvar (the snapshot is also published as the
//	                 expvar "uoivar" for stock tooling)
//	/metrics       — Prometheus text exposition (404 until SetMetrics)
//
// The monitor is the one renderer of the numbers the system keeps about
// itself, into both views: SetStats feeds the JSON comm map and the
// uoivar_mpi_* gauges, SetTracer the JSON state and the trace families.
//
// Everything is pull-based and lock-scoped to the snapshot, so polling the
// endpoint never blocks ranks: the sources (trace.Recorder, trace.Tracer,
// mpi stats) are themselves safe for concurrent readers.
package monitor

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"uoivar/internal/mpi"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

// CommCounters is one communication category's live totals: an
// mpi.Stats.Rows row keyed by its category.
type CommCounters struct {
	Calls   int64   `json:"calls"`
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
	// WaitSeconds is the blocked portion of Seconds.
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// RankSnapshot is one rank's live view.
type RankSnapshot struct {
	Rank int `json:"rank"`
	// Phase is the innermost open phase span ("" when idle or unknown).
	Phase string `json:"phase,omitempty"`
	// Events/Dropped describe the rank's event ring.
	Events  int    `json:"events,omitempty"`
	Dropped int64  `json:"dropped_events,omitempty"`
	Health  string `json:"health,omitempty"`
	// Comm maps category name to live totals.
	Comm map[string]CommCounters `json:"comm,omitempty"`
}

// Snapshot is the /debug/uoivar document.
type Snapshot struct {
	Name          string         `json:"name"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Goroutines    int            `json:"goroutines"`
	Ranks         []RankSnapshot `json:"ranks,omitempty"`
	// State carries caller-registered run state (quorum/degradation,
	// configuration, progress counters).
	State map[string]any `json:"state,omitempty"`
}

// Server assembles snapshots from registered sources and serves them over
// HTTP. All setters are safe to call concurrently with serving, before or
// after the sources exist — absent sources simply contribute nothing.
type Server struct {
	name  string
	start time.Time

	mu        sync.Mutex
	recs      []*trace.Recorder
	health    func() []mpi.RankState
	stats     func() []mpi.Stats
	state     func() map[string]any
	readiness func() error
	degraded  func() []string
	metrics   *telemetry.Registry
	tracer    *trace.Tracer

	srv *http.Server
	ln  net.Listener
}

// New creates a monitor for a run with the given display name.
func New(name string) *Server {
	return &Server{name: name, start: time.Now()}
}

// SetRecorders registers the per-rank event recorders (phase + ring stats).
func (s *Server) SetRecorders(recs []*trace.Recorder) {
	s.mu.Lock()
	s.recs = recs
	s.mu.Unlock()
}

// SetHealth registers a per-world-rank health source (e.g. a closure over
// Comm.Health, which is atomics-only and safe from any goroutine).
func (s *Server) SetHealth(fn func() []mpi.RankState) {
	s.mu.Lock()
	s.health = fn
	s.mu.Unlock()
}

// SetStats registers a per-world-rank communication-counter source (e.g.
// Comm.AllStats for a single world, mpi.ProcessStats for a process running
// many worlds).
func (s *Server) SetStats(fn func() []mpi.Stats) {
	s.mu.Lock()
	s.stats = fn
	s.mu.Unlock()
}

// SetState registers an arbitrary-state source merged into the snapshot
// (quorum/degradation flags, run progress). fn returns a fresh map on every
// call: the SetTracer counters are merged into it.
func (s *Server) SetState(fn func() map[string]any) {
	s.mu.Lock()
	s.state = fn
	s.mu.Unlock()
}

// SetReadiness registers an application-level readiness probe: when it
// returns a non-nil error, /healthz reports 503 with the error text. The
// serving layer uses this to fail health checks while draining or before
// any model is loaded; a fit monitor typically leaves it unset.
func (s *Server) SetReadiness(fn func() error) {
	s.mu.Lock()
	s.readiness = fn
	s.mu.Unlock()
}

// SetDegraded registers a degraded-components source: when it returns a
// non-empty list (e.g. evicted serving replicas), /healthz reports 503
// "degraded: ..." even though the system is still answering requests —
// the same convention the fit monitor uses for failed MPI ranks. An empty
// list restores "ok", so a probe watching /healthz sees the full
// degraded-then-recovered arc.
func (s *Server) SetDegraded(fn func() []string) {
	s.mu.Lock()
	s.degraded = fn
	s.mu.Unlock()
}

// SetMetrics registers the telemetry registry served at GET /metrics in
// Prometheus text-exposition format. Like every setter it may be called
// before or after Register/Serve; while unset (or nil), /metrics answers
// 404 so scrapers learn telemetry is off rather than reading an empty page.
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	s.metrics = reg
	s.mu.Unlock()
}

// SetTracer registers a tracer: its counters and maxima are merged into
// the snapshot's State (over the SetState keys), and its registry is
// rendered on /metrics after the SetMetrics registry.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

// Snapshot assembles the current live view.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	recs, healthFn, statsFn, stateFn, tr := s.recs, s.health, s.stats, s.state, s.tracer
	s.mu.Unlock()
	snap := Snapshot{
		Name:          s.name,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
	}
	var health []mpi.RankState
	if healthFn != nil {
		health = healthFn()
	}
	var stats []mpi.Stats
	if statsFn != nil {
		stats = statsFn()
	}
	n := len(recs)
	if len(health) > n {
		n = len(health)
	}
	if len(stats) > n {
		n = len(stats)
	}
	for r := 0; r < n; r++ {
		rs := RankSnapshot{Rank: r}
		if r < len(recs) && recs[r] != nil {
			rs.Phase = recs[r].CurrentPhase()
			rs.Events = recs[r].Len()
			rs.Dropped = recs[r].Dropped()
		}
		if r < len(health) {
			rs.Health = health[r].String()
		}
		if r < len(stats) {
			rs.Comm = map[string]CommCounters{}
			for _, row := range stats[r].Rows("") {
				rs.Comm[row.Category] = CommCounters{Calls: row.Calls, Bytes: row.Bytes, Seconds: row.Seconds, WaitSeconds: row.WaitSeconds}
			}
		}
		snap.Ranks = append(snap.Ranks, rs)
	}
	if stateFn != nil {
		snap.State = stateFn()
	}
	for k, v := range tr.Counters() {
		if snap.State == nil {
			snap.State = map[string]any{}
		}
		snap.State[k] = v
	}
	return snap
}

// commMetrics renders the ranks' comm maps as the uoivar_mpi_* gauges, one
// series per (rank, category) — the same rows /debug/uoivar shows.
func commMetrics(ranks []RankSnapshot) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	gauge := func(name, what string) *telemetry.GaugeVec {
		return reg.Gauge("uoivar_mpi_"+name, "MPI "+what+" by rank and category.", "rank", "category")
	}
	calls, bytes := gauge("calls", "call counts"), gauge("bytes", "bytes on the wire")
	seconds, wait := gauge("seconds", "wall time"), gauge("wait_seconds", "blocked time (part of uoivar_mpi_seconds)")
	for _, rs := range ranks {
		rank := strconv.Itoa(rs.Rank)
		for cat, c := range rs.Comm {
			calls.With(rank, cat).Set(float64(c.Calls))
			bytes.With(rank, cat).Set(float64(c.Bytes))
			seconds.With(rank, cat).Set(c.Seconds)
			wait.With(rank, cat).Set(c.WaitSeconds)
		}
	}
	return reg
}

// expvarOnce guards the process-wide expvar name (Publish panics on
// duplicates; tests create many Servers).
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarCur  *Server
)

func publishExpvar(s *Server) {
	expvarMu.Lock()
	expvarCur = s
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("uoivar", expvar.Func(func() any {
			expvarMu.Lock()
			cur := expvarCur
			expvarMu.Unlock()
			if cur == nil {
				return nil
			}
			return cur.Snapshot()
		}))
	})
}

// Register mounts the monitor's handlers — /healthz, /debug/uoivar,
// /debug/vars — onto an existing mux, for callers that run their own HTTP
// server (the inference server mounts them next to its /v1 endpoints).
func (s *Server) Register(mux *http.ServeMux) {
	publishExpvar(s)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/uoivar", s.handleSnapshot)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", s.handleMetrics)
}

// Serve starts the HTTP endpoint on addr (host:port; ":0" picks a free
// port) and returns the bound address. The server runs until Close.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s.Register(mux)
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close stops the HTTP endpoint.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot()) //nolint:errcheck // client hangup
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reg, tr := s.metrics, s.tracer
	s.mu.Unlock()
	if !reg.Enabled() {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	telemetry.Handler(reg, commMetrics(s.Snapshot().Ranks), tr.Registry()).ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.readiness
	degraded := s.degraded
	s.mu.Unlock()
	if ready != nil {
		if err := ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unavailable: %v\n", err)
			return
		}
	}
	if degraded != nil {
		if items := degraded(); len(items) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: %s\n", strings.Join(items, ", "))
			return
		}
	}
	snap := s.Snapshot()
	var failed []int
	for _, r := range snap.Ranks {
		if r.Health == mpi.RankFailed.String() {
			failed = append(failed, r.Rank)
		}
	}
	if len(failed) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: failed ranks %v\n", failed)
		return
	}
	fmt.Fprintln(w, "ok")
}
