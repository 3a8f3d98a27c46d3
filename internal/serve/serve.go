package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// Config configures a Server. The zero value of every field selects a sane
// default; only Registry is required.
type Config struct {
	// Registry holds the served models.
	Registry *Registry
	// BatchWindow is how long a forecast batch collects companions while a
	// streaming refit is in flight (Streams.Refitting; default 2ms). With no
	// refit running a batch takes what is already queued and dispatches at
	// once, so a lone forecast never waits; 0 never waits at all.
	BatchWindow time.Duration
	// BatchMax caps the coalesced batch size (default 64).
	BatchMax int
	// QueueDepth bounds each model's pending-forecast queue (default
	// 4×BatchMax); a full queue applies backpressure, not drops.
	QueueDepth int
	// CacheEntries sizes the LRU response cache (default 256; negative
	// disables caching).
	CacheEntries int
	// MaxInflight caps concurrently-served requests per endpoint; excess
	// requests get 429 (default 256).
	MaxInflight int
	// Timeout is the per-request deadline; exceeding it returns 504
	// (default 30s).
	Timeout time.Duration
	// MaxHorizon caps requested forecast horizons (default 4096).
	MaxHorizon int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Streams, when non-nil, enables the streaming endpoints POST
	// /v1/ingest and GET /v1/stream/status backed by per-model refit
	// engines (stream.Manager). Nil serves 404 on both.
	Streams Streamer
	// Graphs backs the /v1/graph/* endpoints with cached CSR adjacency
	// stores. Nil gives the server a private provider; fleet replicas over
	// one registry may share a provider to build each store once.
	Graphs *GraphProvider
	// Tracer, when non-nil, receives serving spans and counters
	// (serve/requests, serve/forecast_batches, serve/cache_hits, ...).
	Tracer *trace.Tracer
	// Monitor, when non-nil, has its /healthz, /debug/uoivar and
	// /debug/vars mounted on the server's mux, with readiness wired to the
	// registry and drain state.
	Monitor *monitor.Server
	// Metrics, when non-nil, receives native serving telemetry: latency and
	// response-size histograms, status-code counters, in-flight gauges, and
	// batch-depth observations (see serveMetrics for the family list). Nil
	// disables metrics at zero request-path cost.
	Metrics *telemetry.Registry
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (sampled; see telemetry.NewAccessLogger), keyed by the
	// propagated X-Request-ID.
	AccessLog *telemetry.AccessLogger
	// Replica labels this server's metric series and access-log lines when
	// several replicas share one registry (fleet mode); "" for a standalone
	// server.
	Replica string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BatchWindow < 0 {
		out.BatchWindow = 0
	}
	if out.BatchMax <= 0 {
		out.BatchMax = 64
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 4 * out.BatchMax
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 256
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 256
	}
	if out.Timeout <= 0 {
		out.Timeout = 30 * time.Second
	}
	if out.MaxHorizon <= 0 {
		out.MaxHorizon = 4096
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 64 << 20
	}
	return out
}

// ---- Wire types ----

// ForecastRequest is the /v1/forecast body.
type ForecastRequest struct {
	// Model names the registered model to forecast with.
	Model string `json:"model"`
	// History is the recent observed series, one row per time step, newest
	// last; at least d (the model's order) rows.
	History [][]float64 `json:"history"`
	// Horizon is the number of steps ahead to forecast.
	Horizon int `json:"horizon"`
}

// ForecastResponse is the /v1/forecast reply.
type ForecastResponse struct {
	Model   string `json:"model"`   // echoed model name
	Version int    `json:"version"` // registry version that answered
	Horizon int    `json:"horizon"` // echoed horizon
	// Forecast has Horizon rows of the model's conditional means.
	Forecast [][]float64 `json:"forecast"`
}

// GrangerRequest is the /v1/granger body.
type GrangerRequest struct {
	Model     string  `json:"model"`      // registered model to read edges from
	Tol       float64 `json:"tol"`        // |coefficient| threshold for an edge
	SelfLoops bool    `json:"self_loops"` // include i→i edges
}

// Edge is one directed Granger edge on the wire.
type Edge struct {
	Source int     `json:"source"` // causing series index
	Target int     `json:"target"` // caused series index
	Weight float64 `json:"weight"` // largest-magnitude coefficient across lags
}

// GrangerResponse is the /v1/granger reply.
type GrangerResponse struct {
	Model   string `json:"model"`   // echoed model name
	Version int    `json:"version"` // registry version that answered
	Edges   []Edge `json:"edges"`   // directed Granger edges above Tol
}

// ModelInfo is one row of the /v1/models listing.
type ModelInfo struct {
	Name        string    `json:"name"`            // registry name
	Version     int       `json:"version"`         // load count for this name
	Kind        string    `json:"kind"`            // "var" | "lasso"
	P           int       `json:"p"`               // series dimension / feature count
	Order       int       `json:"order,omitempty"` // VAR lag order
	SupportSize int       `json:"support_size"`    // nonzero coefficients
	LoadedAt    time.Time `json:"loaded_at"`       // when this version was registered
	Path        string    `json:"path,omitempty"`  // source artifact file
}

// ModelsResponse is the /v1/models (and /v1/reload) reply.
type ModelsResponse struct {
	// Models lists every registered model, sorted by name.
	Models []ModelInfo `json:"models"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- Server ----

// Server is the batched inference server. Create with New, mount via
// Handler or run with ListenAndServe, stop with Shutdown (graceful) or
// Close (abrupt).
type Server struct {
	cfg       Config
	reg       *Registry
	graphs    *GraphProvider
	cache     *lruCache
	tracer    *trace.Tracer
	metrics   *serveMetrics
	accessLog *telemetry.AccessLogger
	replica   string

	mu       sync.Mutex
	batchers map[string]*batcher
	sems     map[string]chan struct{}
	httpSrv  *http.Server
	ln       net.Listener

	draining atomic.Bool
	// ewmaNanos tracks the observed per-request service time (EWMA,
	// α = 1/8) so 429s can tell shed clients how long a queue slot
	// actually takes to free up, instead of a hardcoded guess.
	ewmaNanos atomic.Int64
}

// New builds a server over cfg.Registry.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	graphs := c.Graphs
	if graphs == nil {
		graphs = NewGraphProvider(0)
	}
	s := &Server{
		cfg:       c,
		reg:       c.Registry,
		graphs:    graphs,
		cache:     newLRUCache(c.CacheEntries),
		tracer:    c.Tracer,
		metrics:   newServeMetrics(c.Metrics, c.Replica),
		accessLog: c.AccessLog,
		replica:   c.Replica,
		batchers:  make(map[string]*batcher),
		sems:      make(map[string]chan struct{}),
	}
	if c.Monitor != nil {
		c.Monitor.SetReadiness(s.readiness)
	}
	if m := s.metrics; m != nil {
		// The EWMA lives in an atomic; mirror it at scrape time instead of
		// on every request completion.
		c.Metrics.OnScrape(func() {
			m.ewma.With(s.replica).Set(float64(s.ewmaNanos.Load()) / 1e9)
		})
	}
	return s
}

// readiness is the monitor's /healthz gate: failing while draining (so load
// balancers stop routing during shutdown) or while no model is loaded.
func (s *Server) readiness() error {
	if s.draining.Load() {
		return errors.New("draining")
	}
	if s.reg.Len() == 0 {
		return errors.New("no models loaded")
	}
	return nil
}

// Handler returns the server's mux: /v1/models, /v1/forecast, /v1/granger,
// /v1/reload, the /v1/graph/* query layer, plus the streaming and monitor
// endpoints when configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/forecast", s.handleForecast)
	mux.HandleFunc("/v1/granger", s.handleGranger)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/stream/status", s.handleStreamStatus)
	mux.HandleFunc("/v1/graph/topk", s.handleGraphTopK)
	mux.HandleFunc("/v1/graph/node/", s.handleGraphNode)
	mux.HandleFunc("/v1/graph/summary", s.handleGraphSummary)
	if s.cfg.Monitor != nil {
		s.cfg.Monitor.Register(mux)
	}
	return mux
}

// ListenAndServe binds addr (":0" picks a free port), serves in the
// background, and returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown/Close
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: readiness starts failing, the listener stops
// accepting, every in-flight request completes (including queued batch
// members), and only then do the batchers stop. No accepted request is
// dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.closeBatchers()
	return err
}

// Close stops the server abruptly (in-flight requests are abandoned).
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	s.closeBatchers()
	return err
}

func (s *Server) closeBatchers() {
	s.mu.Lock()
	bs := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	for _, b := range bs {
		b.close()
	}
}

// batcherFor returns (lazily creating) the micro-batcher for a model name.
func (s *Server) batcherFor(name string) *batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.batchers[name]
	if b == nil {
		b = newBatcher(name, s.reg, s.cfg.Streams, s.cfg.BatchWindow, s.cfg.BatchMax, s.cfg.QueueDepth, s.tracer, s.metrics)
		s.batchers[name] = b
	}
	return b
}

// acquire takes an inflight slot for endpoint, or reports saturation.
func (s *Server) acquire(endpoint string) (release func(), ok bool) {
	s.mu.Lock()
	sem := s.sems[endpoint]
	if sem == nil {
		sem = make(chan struct{}, s.cfg.MaxInflight)
		s.sems[endpoint] = sem
	}
	s.mu.Unlock()
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, true
	default:
		return nil, false
	}
}

// ---- Handlers ----

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeBody(w, status, body)
}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client hangup
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.tracer.Add("serve/http_errors", 1)
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// Deliberate rejections — shed, concurrency limit, draining. These
		// are the capacity policy working, not the server failing, so they
		// get their own counter and stay out of serve/errors.
		s.tracer.Add("serve/rejected", 1)
	case status >= 500:
		s.tracer.Add("serve/errors", 1)
	default:
		s.tracer.Add("serve/client_errors", 1)
	}
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds derives an honest Retry-After for a saturated
// endpoint: one batch window (the most a queued forecast waits before its
// batch runs, reached only while a refit is in flight) plus the observed
// service-time EWMA, rounded up to whole header seconds.
// Before any request completes the EWMA is zero and the answer degrades
// to the old constant 1.
func (s *Server) retryAfterSeconds() int {
	wait := s.cfg.BatchWindow + time.Duration(s.ewmaNanos.Load())
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// observeService folds one completed request's wall time into the
// service-time EWMA (α = 1/8, the classic RTT-estimator weight).
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.ewmaNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if s.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// limited wraps the pre-handler bookkeeping every /v1 endpoint shares:
// method check, inflight limit, request deadline, and the request counter.
// When telemetry is configured the handler additionally gets the
// instrumentation skin (request IDs, histograms, access log); with
// telemetry off the returned handler is byte-for-byte the old one, so the
// hot path pays nothing.
func (s *Server) limited(endpoint, method string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	inner := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			s.writeError(w, http.StatusMethodNotAllowed, "%s requires %s", endpoint, method)
			return
		}
		release, ok := s.acquire(endpoint)
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.writeError(w, http.StatusTooManyRequests, "%s: concurrency limit (%d) reached", endpoint, s.cfg.MaxInflight)
			return
		}
		defer release()
		s.tracer.Add("serve/requests", 1)
		sp := s.tracer.Start("serve" + endpoint)
		defer sp.End()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		start := time.Now()
		h(ctx, w, r.WithContext(ctx))
		s.observeService(time.Since(start))
	}
	if s.metrics == nil && s.accessLog == nil {
		return inner
	}
	return s.instrument(endpoint, inner)
}

// instrument is the telemetry skin around one endpoint handler: it ensures
// and echoes X-Request-ID, records status and response size, feeds the
// latency histograms and status-code counters, and emits the structured
// access-log line. Only instrumented servers route requests through it.
func (s *Server) instrument(endpoint string, inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := telemetry.EnsureRequestID(r)
		rec := &statusRecorder{ResponseWriter: w}
		rec.Header().Set(telemetry.HeaderRequestID, reqID)
		m := s.metrics
		if m != nil {
			m.inflight.With(endpoint, s.replica).Add(1)
		}
		start := time.Now()
		inner(rec, r)
		dur := time.Since(start)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if m != nil {
			m.inflight.With(endpoint, s.replica).Add(-1)
			code := strconv.Itoa(status)
			m.requests.With(endpoint, code, s.replica).Inc()
			m.latency.With(endpoint, code, s.replica).Observe(dur.Seconds())
			m.respBytes.With(endpoint, s.replica).Observe(float64(rec.bytes))
		}
		attempt, _ := strconv.Atoi(r.Header.Get(telemetry.HeaderAttempt))
		s.accessLog.Log(telemetry.AccessEntry{
			Layer: "serve", Replica: s.replica, RequestID: reqID,
			Method: r.Method, Path: endpoint, Status: status,
			Bytes: rec.bytes, DurMs: float64(dur) / 1e6,
			Tenant:      r.Header.Get("X-Tenant"),
			Attempt:     attempt,
			Cache:       rec.Header().Get("X-Cache"),
			BatchWaitMs: float64(rec.batchWait) / 1e6,
		})
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/models", http.MethodGet, func(_ context.Context, w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, modelsResponse(s.reg.List()))
	})(w, r)
}

func modelsResponse(entries []*Entry) ModelsResponse {
	resp := ModelsResponse{Models: []ModelInfo{}}
	for _, e := range entries {
		resp.Models = append(resp.Models, ModelInfo{
			Name: e.Name, Version: e.Version, Kind: e.Artifact.Meta.Kind,
			P: e.Artifact.Meta.P, Order: e.Artifact.Meta.Order,
			SupportSize: e.Artifact.Meta.Stats.SupportSize,
			LoadedAt:    e.LoadedAt, Path: e.Path,
		})
	}
	return resp
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/reload", http.MethodPost, func(_ context.Context, w http.ResponseWriter, _ *http.Request) {
		entries, err := s.reg.Reload()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		s.tracer.Add("serve/reloads", 1)
		s.writeJSON(w, http.StatusOK, modelsResponse(entries))
	})(w, r)
}

// readBody slurps the (size-capped) request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
}

// cacheKey digests a request against the model version that would answer
// it; a hot-swap changes the version and thus silently invalidates.
func cacheKey(endpoint string, entry *Entry, body []byte) string {
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%s|%s@%d|%x", endpoint, entry.Name, entry.Version, sum)
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/forecast", http.MethodPost, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		body, err := s.readBody(w, r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var req ForecastRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		entry := s.reg.Get(req.Model)
		if entry == nil {
			s.writeError(w, http.StatusNotFound, "model %q not found", req.Model)
			return
		}
		if req.Horizon < 0 || req.Horizon > s.cfg.MaxHorizon {
			s.writeError(w, http.StatusBadRequest, "horizon %d outside [0, %d]", req.Horizon, s.cfg.MaxHorizon)
			return
		}
		key := cacheKey("forecast", entry, body)
		if cached, ok := s.cache.Get(key); ok {
			s.tracer.Add("serve/cache_hits", 1)
			w.Header().Set("X-Cache", "hit")
			s.writeBody(w, http.StatusOK, cached)
			return
		}
		s.tracer.Add("serve/cache_misses", 1)
		history, err := denseFromRows(req.History)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "history: %v", err)
			return
		}
		res := s.batcherFor(req.Model).submit(ctx, history, req.Horizon)
		if rec, ok := w.(*statusRecorder); ok {
			rec.batchWait = res.wait
		}
		if err := res.err; err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.writeError(w, http.StatusGatewayTimeout, "forecast deadline (%s) exceeded", s.cfg.Timeout)
			case errors.Is(err, errBatcherClosed):
				s.writeError(w, http.StatusServiceUnavailable, "draining")
			case errors.Is(err, context.Canceled):
				s.writeError(w, http.StatusServiceUnavailable, "canceled")
			case errors.Is(err, model.ErrKind):
				s.writeError(w, http.StatusBadRequest, "%v", err)
			default:
				s.writeError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
		resp := ForecastResponse{
			Model: res.entry.Name, Version: res.entry.Version,
			Horizon: req.Horizon, Forecast: rowsFromDense(res.forecast),
		}
		t0 := time.Now()
		out, err := json.Marshal(resp)
		s.metrics.observeStage(stageEncode, time.Since(t0))
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "encode: %v", err)
			return
		}
		// Key the stored bytes under the version that actually answered, so
		// a hit never serves bytes across a hot-swap boundary.
		s.cache.Put(cacheKey("forecast", res.entry, body), out)
		w.Header().Set("X-Cache", "miss")
		s.writeBody(w, http.StatusOK, out)
	})(w, r)
}

func (s *Server) handleGranger(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/granger", http.MethodPost, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		body, err := s.readBody(w, r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var req GrangerRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		entry := s.reg.Get(req.Model)
		if entry == nil {
			s.writeError(w, http.StatusNotFound, "model %q not found", req.Model)
			return
		}
		key := cacheKey("granger", entry, body)
		if cached, ok := s.cache.Get(key); ok {
			s.tracer.Add("serve/cache_hits", 1)
			w.Header().Set("X-Cache", "hit")
			s.writeBody(w, http.StatusOK, cached)
			return
		}
		s.tracer.Add("serve/cache_misses", 1)
		edges, err := entry.Pred.Edges(req.Tol, req.SelfLoops)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp := GrangerResponse{Model: entry.Name, Version: entry.Version, Edges: edgesToWire(edges)}
		out, err := json.Marshal(resp)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "encode: %v", err)
			return
		}
		s.cache.Put(key, out)
		w.Header().Set("X-Cache", "miss")
		s.writeBody(w, http.StatusOK, out)
	})(w, r)
}

func edgesToWire(edges []varsim.GrangerEdge) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{Source: e.Source, Target: e.Target, Weight: e.Weight}
	}
	return out
}

// denseFromRows validates and packs a JSON row list into a matrix.
func denseFromRows(rows [][]float64) (*mat.Dense, error) {
	if len(rows) == 0 {
		return nil, errors.New("empty")
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, errors.New("empty rows")
	}
	m := mat.NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d values, row 0 has %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

func rowsFromDense(m *mat.Dense) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}
