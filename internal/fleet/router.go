package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uoivar/internal/fault"
	"uoivar/internal/monitor"
	"uoivar/internal/resample"
	"uoivar/internal/serve"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

// Backend is one routable fleet member: a stable ring identity plus
// whatever address it currently listens on. *Replica implements it; tests
// substitute stubs.
type Backend interface {
	// ID is the stable ring identity.
	ID() int
	// Addr is the current host:port ("" while down).
	Addr() string
}

// Config configures a Router. Backends is required; every other field's
// zero value selects a sane default.
type Config struct {
	// Backends are the fleet members, ring-hashed by their IDs.
	Backends []Backend
	// ReplicationFactor is how many ring successors own each model name
	// (default 2, clamped to the fleet size). Failover prefers the owners
	// in ring order before falling back to the rest of the fleet — every
	// replica loads every artifact, so owners are a locality preference
	// (batching + cache affinity), not a data-placement constraint.
	ReplicationFactor int
	// Vnodes is the virtual-node count per replica (default DefaultVnodes).
	Vnodes int
	// AttemptTimeout bounds each forwarded attempt (default 5s).
	AttemptTimeout time.Duration
	// Timeout bounds a whole routed request across all attempts
	// (default 30s; 504 past it).
	Timeout time.Duration
	// MaxAttempts caps forwarded attempts per request (default: one per
	// candidate replica).
	MaxAttempts int
	// RetryBase is the first failover backoff step; successive attempts
	// double it (default 5ms).
	RetryBase time.Duration
	// RetryCap clamps the exponential backoff growth (default 250ms).
	RetryCap time.Duration
	// Seed drives the deterministic backoff jitter (per-request streams
	// derived from it), so retry storms never synchronize yet replay
	// identically under test.
	Seed uint64
	// HedgeDelay, when positive, enables hedged sends for idempotent
	// reads: if the preferred replica has not answered within the delay, a
	// second copy goes to the next candidate and the loser is canceled.
	HedgeDelay time.Duration
	// TenantRate is the per-tenant token-bucket refill rate in requests
	// per second, keyed on the X-Tenant header (0 disables tenant
	// admission).
	TenantRate float64
	// TenantBurst is the per-tenant bucket capacity (minimum 1).
	TenantBurst int
	// ShedWatermark is the aggregate-inflight level beyond which the
	// router sheds load with 503 + Retry-After (default 4096).
	ShedWatermark int
	// ProbeInterval is the background health-probe period (default 250ms;
	// negative disables the background prober — tests drive ProbeNow).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// FaultPlan, when non-nil, injects ReplicaKill and ConnRefused events
	// on the routing path (chaos tests).
	FaultPlan *fault.Plan
	// Kill is the ReplicaKill callback (default: Backends that are
	// *Replica are killed in place; other backends ignore the event).
	Kill func(id int)
	// Tracer receives router spans and counters (fleet/requests,
	// fleet/failovers, fleet/hedges, fleet/evictions, ...).
	Tracer *trace.Tracer
	// Monitor, when non-nil, has /healthz wired to fleet readiness
	// (degraded while any replica is evicted) and is mounted on the
	// router's mux.
	Monitor *monitor.Server
	// Metrics, when non-nil, receives native fleet telemetry: routed-request
	// histograms, replica-health gauges, failover/hedge/shed counters, and
	// scrape-time gauges for inflight, the service-time EWMA, and tenant
	// token buckets (see fleetMetrics). Nil disables metrics at zero
	// routing-path cost. When telemetry is on, the router also generates and
	// propagates X-Request-ID (with X-Fleet-Attempt / X-Fleet-Hedge
	// annotations) on every forwarded attempt.
	Metrics *telemetry.Registry
	// AccessLog, when non-nil, receives one router-layer JSON line per
	// request carrying the request ID, attempt count, winning backend, and
	// hedge outcome — joinable with the replicas' serve-layer lines.
	AccessLog *telemetry.AccessLogger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ReplicationFactor <= 0 {
		out.ReplicationFactor = 2
	}
	if n := len(out.Backends); out.ReplicationFactor > n {
		out.ReplicationFactor = n
	}
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 5 * time.Second
	}
	if out.Timeout <= 0 {
		out.Timeout = 30 * time.Second
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 5 * time.Millisecond
	}
	if out.RetryCap <= 0 {
		out.RetryCap = 250 * time.Millisecond
	}
	if out.ShedWatermark <= 0 {
		out.ShedWatermark = 4096
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = 250 * time.Millisecond
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 64 << 20
	}
	return out
}

// replicaState is the router's health view of one backend.
type replicaState struct {
	backend Backend
	healthy atomic.Bool
}

// Router fronts the fleet: one HTTP surface mirroring serve's /v1
// endpoints, with consistent-hash routing, failover, hedging, tenant
// quotas, and load shedding. Create with NewRouter, serve with
// ListenAndServe or mount Handler, stop with Shutdown/Close.
type Router struct {
	cfg       Config
	ring      *Ring
	reps      map[int]*replicaState
	order     []int // backend IDs in config order (stable reporting)
	client    *http.Client
	tenants   *TenantLimiter
	tracer    *trace.Tracer
	metrics   *fleetMetrics
	accessLog *telemetry.AccessLogger

	inflight  atomic.Int64
	opSeq     atomic.Int64
	ewmaNanos atomic.Int64 // service-time EWMA feeding honest Retry-After
	draining  atomic.Bool

	mu        sync.Mutex
	httpSrv   *http.Server
	ln        net.Listener
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter builds a router over cfg.Backends. Backends are admitted
// optimistically (healthy until a probe or a request says otherwise).
func NewRouter(cfg Config) (*Router, error) {
	c := cfg.withDefaults()
	if len(c.Backends) == 0 {
		return nil, errors.New("fleet: no backends")
	}
	rt := &Router{
		cfg:       c,
		ring:      NewRing(c.Vnodes),
		reps:      make(map[int]*replicaState, len(c.Backends)),
		tracer:    c.Tracer,
		metrics:   newFleetMetrics(c.Metrics),
		accessLog: c.AccessLog,
		tenants:   nil,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
		}},
	}
	if c.TenantRate > 0 {
		rt.tenants = NewTenantLimiter(c.TenantRate, c.TenantBurst)
	}
	for _, b := range c.Backends {
		if _, dup := rt.reps[b.ID()]; dup {
			return nil, fmt.Errorf("fleet: duplicate backend ID %d", b.ID())
		}
		st := &replicaState{backend: b}
		st.healthy.Store(true)
		rt.reps[b.ID()] = st
		rt.order = append(rt.order, b.ID())
		rt.ring.Add(b.ID())
	}
	if c.Monitor != nil {
		c.Monitor.SetReadiness(rt.readiness)
		c.Monitor.SetDegraded(rt.degradedList)
	}
	if rt.metrics != nil {
		inflight := c.Metrics.Gauge("uoivar_fleet_inflight",
			"Requests currently inside the router.")
		ewma := c.Metrics.Gauge("uoivar_fleet_service_seconds",
			"EWMA of end-to-end routed service time (the Retry-After estimator).")
		tokens := c.Metrics.Gauge("uoivar_fleet_tenant_tokens",
			"Current token-bucket occupancy per tenant.", "tenant")
		c.Metrics.OnScrape(func() {
			inflight.With().Set(float64(rt.inflight.Load()))
			ewma.With().Set(float64(rt.ewmaNanos.Load()) / 1e9)
			for tenant, left := range rt.tenants.Occupancy() {
				tokens.With(tenant).Set(left)
			}
			for _, id := range rt.order {
				v := 0.0
				if rt.reps[id].healthy.Load() {
					v = 1
				}
				rt.metrics.healthy.With(strconv.Itoa(id)).Set(v)
			}
		})
	}
	return rt, nil
}

// readiness fails when draining or when no replica is healthy.
func (rt *Router) readiness() error {
	if rt.draining.Load() {
		return errors.New("draining")
	}
	if rt.healthyCount() == 0 {
		return errors.New("no healthy replicas")
	}
	return nil
}

// degradedList names evicted replicas for /healthz's degraded report.
func (rt *Router) degradedList() []string {
	var out []string
	for _, id := range rt.order {
		if !rt.reps[id].healthy.Load() {
			out = append(out, fmt.Sprintf("replica %d evicted", id))
		}
	}
	return out
}

func (rt *Router) healthyCount() int {
	n := 0
	for _, st := range rt.reps {
		if st.healthy.Load() {
			n++
		}
	}
	return n
}

// State summarizes the fleet for a monitor snapshot.
func (rt *Router) State() map[string]any {
	healthy := []int{}
	evicted := []int{}
	for _, id := range rt.order {
		if rt.reps[id].healthy.Load() {
			healthy = append(healthy, id)
		} else {
			evicted = append(evicted, id)
		}
	}
	return map[string]any{
		"fleet/replicas":         len(rt.order),
		"fleet/healthy_replicas": healthy,
		"fleet/evicted_replicas": evicted,
		"fleet/inflight":         rt.inflight.Load(),
		"fleet/tenants":          rt.tenants.Tenants(),
	}
}

// ---- Health probing ----

// ProbeNow runs one synchronous probe cycle over every backend: /healthz
// 200 admits (or re-admits) the replica, anything else — including a dead
// listener — evicts it. Because a restarting replica answers 503 until its
// artifact warm-up completes, re-admission cannot outrun warm-up.
func (rt *Router) ProbeNow() {
	var wg sync.WaitGroup
	for _, id := range rt.order {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rt.probeOne(id)
		}(id)
	}
	wg.Wait()
}

func (rt *Router) probeOne(id int) {
	st := rt.reps[id]
	addr := st.backend.Addr()
	if addr == "" {
		rt.markHealth(id, false)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		rt.markHealth(id, false)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markHealth(id, false)
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
	resp.Body.Close()
	rt.markHealth(id, resp.StatusCode == http.StatusOK)
}

// markHealth flips a replica's health state, counting transitions.
func (rt *Router) markHealth(id int, healthy bool) {
	st := rt.reps[id]
	if st == nil {
		return
	}
	was := st.healthy.Swap(healthy)
	switch {
	case was && !healthy:
		rt.tracer.Add("fleet/evictions", 1)
	case !was && healthy:
		rt.tracer.Add("fleet/readmissions", 1)
	}
	rt.metrics.markHealth(id, healthy, was)
}

func (rt *Router) probeLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.ProbeNow()
		case <-stop:
			return
		}
	}
}

// ---- Serving ----

// Handler returns the router's mux: the /v1 endpoints plus the monitor
// endpoints when configured.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", rt.handleModels)
	mux.HandleFunc("/v1/forecast", rt.handleRouted("/v1/forecast"))
	mux.HandleFunc("/v1/granger", rt.handleRouted("/v1/granger"))
	mux.HandleFunc("/v1/ingest", rt.handleIngest)
	mux.HandleFunc("/v1/stream/status", rt.handleStreamStatus)
	mux.HandleFunc("/v1/graph/topk", rt.handleRouted("/v1/graph/topk"))
	mux.HandleFunc("/v1/graph/node/", rt.handleGraphGet("/v1/graph/node"))
	mux.HandleFunc("/v1/graph/summary", rt.handleGraphGet("/v1/graph/summary"))
	mux.HandleFunc("/v1/reload", rt.handleReload)
	if rt.cfg.Monitor != nil {
		rt.cfg.Monitor.Register(mux)
	}
	return mux
}

// ListenAndServe binds addr (":0" picks a free port), starts the
// background health prober, serves in the background, and returns the
// bound address.
func (rt *Router) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: rt.Handler()}
	rt.mu.Lock()
	rt.ln = ln
	rt.httpSrv = srv
	if rt.cfg.ProbeInterval > 0 && rt.probeStop == nil {
		rt.probeStop = make(chan struct{})
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(rt.probeStop, rt.probeDone)
	}
	rt.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown/Close
	return ln.Addr().String(), nil
}

// Shutdown drains the router: readiness fails, the prober stops, and
// in-flight routed requests complete. Backends are not touched — the
// caller owns their lifecycle.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	rt.stopProber()
	rt.mu.Lock()
	srv := rt.httpSrv
	rt.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Close stops the router abruptly.
func (rt *Router) Close() error {
	rt.draining.Store(true)
	rt.stopProber()
	rt.mu.Lock()
	srv := rt.httpSrv
	rt.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (rt *Router) stopProber() {
	rt.mu.Lock()
	stop, done := rt.probeStop, rt.probeDone
	rt.probeStop, rt.probeDone = nil, nil
	rt.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ---- Admission ----

type errorResponse struct {
	Error string `json:"error"`
}

func (rt *Router) writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.tracer.Add("fleet/http_errors", 1)
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// Deliberate rejections — quota, shed, draining — are the admission
		// policy working, so they stay out of fleet/errors.
		rt.tracer.Add("fleet/rejected", 1)
	case status >= 500:
		rt.tracer.Add("fleet/errors", 1)
	default:
		rt.tracer.Add("fleet/client_errors", 1)
	}
	body, _ := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client hangup
}

// serviceRetryAfter derives an honest Retry-After from the observed
// service-time EWMA: roughly how long until currently-queued work drains.
func (rt *Router) serviceRetryAfter() int {
	return retryAfterSeconds(time.Duration(rt.ewmaNanos.Load()))
}

// observeService folds one completed request's duration into the EWMA
// (α = 1/8, the classic RTT-estimator weight).
func (rt *Router) observeService(d time.Duration) {
	for {
		old := rt.ewmaNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if rt.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// admitted wraps an endpoint handler with the fleet-level admission
// pipeline: method check, drain check, per-tenant quota, and aggregate
// load shedding, plus the inflight/EWMA bookkeeping every routed request
// shares. With telemetry configured the handler additionally gets the
// instrumentation skin (request IDs, histograms, the router access-log
// line); with telemetry off the returned handler is exactly the old one.
func (rt *Router) admitted(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	inner := func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			rt.writeJSONError(w, http.StatusMethodNotAllowed, "%s requires %s", endpoint, method)
			return
		}
		if rt.draining.Load() {
			rt.writeJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		if ok, retry := rt.tenants.Allow(r.Header.Get("X-Tenant")); !ok {
			rt.tracer.Add("fleet/tenant_rejections", 1)
			rt.metrics.observeTenantRejection(r.Header.Get("X-Tenant"))
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(retry)))
			rt.writeJSONError(w, http.StatusTooManyRequests,
				"tenant %q over quota (%.3g req/s, burst %d)", r.Header.Get("X-Tenant"), rt.cfg.TenantRate, rt.cfg.TenantBurst)
			return
		}
		if n := rt.inflight.Add(1); n > int64(rt.cfg.ShedWatermark) {
			rt.inflight.Add(-1)
			rt.tracer.Add("fleet/shed", 1)
			rt.metrics.observeShed()
			w.Header().Set("Retry-After", fmt.Sprint(rt.serviceRetryAfter()))
			rt.writeJSONError(w, http.StatusServiceUnavailable,
				"fleet overloaded: %d requests in flight (watermark %d)", n-1, rt.cfg.ShedWatermark)
			return
		}
		start := time.Now()
		defer func() {
			rt.inflight.Add(-1)
			rt.observeService(time.Since(start))
		}()
		rt.tracer.Add("fleet/requests", 1)
		sp := rt.tracer.Start("fleet" + endpoint)
		defer sp.End()
		h(w, r)
	}
	if rt.metrics == nil && rt.accessLog == nil {
		return inner
	}
	return rt.instrument(endpoint, inner)
}

// instrument is the router's telemetry skin around one admitted handler:
// it ensures and echoes X-Request-ID (which forward then propagates to the
// replicas), records status and response size, feeds the routed-request
// histograms, and emits the router-layer access-log line with the routing
// metadata relay stashed into the recorder.
func (rt *Router) instrument(endpoint string, inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := telemetry.EnsureRequestID(r)
		rec := &routeRecorder{ResponseWriter: w}
		rec.Header().Set(telemetry.HeaderRequestID, reqID)
		start := time.Now()
		inner(rec, r)
		dur := time.Since(start)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if m := rt.metrics; m != nil {
			code := strconv.Itoa(status)
			m.requests.With(endpoint, code).Inc()
			m.latency.With(endpoint, code).Observe(dur.Seconds())
			if rec.attempts > 0 {
				m.attempts.With(endpoint).Observe(float64(rec.attempts))
			}
		}
		rt.accessLog.Log(telemetry.AccessEntry{
			Layer: "router", RequestID: reqID,
			Method: r.Method, Path: endpoint, Status: status,
			Bytes: rec.bytes, DurMs: float64(dur) / 1e6,
			Tenant:   r.Header.Get("X-Tenant"),
			Attempts: rec.attempts, Backend: rec.backend,
			Hedge: rec.hedge, Cache: rec.Header().Get("X-Cache"),
			Err: rec.errMsg,
		})
	}
}

// ---- Routing core ----

// proxyResult is the outcome of one forwarded attempt (or a hedged pair).
type proxyResult struct {
	status    int
	header    http.Header
	body      []byte
	replica   int
	err       error
	retryable bool
	// attempts is the total forwards made for the request (stamped by
	// route; >1 means failover or hedging happened).
	attempts int
	// hedge is "primary"/"secondary" for the winner of a hedged pair, ""
	// for unhedged requests.
	hedge string
}

// attemptSpec is the immutable description of what to forward.
type attemptSpec struct {
	method string
	path   string
	ctype  string
	body   []byte
	// reqID, when non-empty, is propagated to the replica as X-Request-ID
	// (with per-attempt X-Fleet-Attempt / X-Fleet-Hedge annotations), so
	// router and replica access-log lines join on it.
	reqID string
}

// candidates returns the full failover order for key: the R ring owners
// first (healthy before evicted is handled by the caller's ordering,
// below), then the remaining replicas in ring-successor order. Healthy
// replicas always precede evicted ones; evicted ones stay as a last
// resort because an eviction may be stale and a hail-mary beats a 502.
func (rt *Router) candidates(key string) []int {
	full := rt.ring.Lookup(key, rt.ring.Len())
	healthy := make([]int, 0, len(full))
	evicted := make([]int, 0)
	for _, id := range full {
		if rt.reps[id].healthy.Load() {
			healthy = append(healthy, id)
		} else {
			evicted = append(evicted, id)
		}
	}
	return append(healthy, evicted...)
}

// backoffDelay is the capped, jittered failover backoff: base·2^(attempt−1)
// clamped to cap, jittered to [d/2, d) from the request's seeded stream.
func backoffDelay(rng *resample.RNG, attempt int, base, cap time.Duration) time.Duration {
	d := base << uint(attempt-1)
	if d > cap || d <= 0 {
		d = cap
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(rng.Uint64()%uint64(half)))
}

// route runs the full attempt loop for spec: per-attempt timeouts,
// seeded-jitter backoff between failovers, bounded by MaxAttempts and the
// candidate list, with an optional hedged first pair for idempotent reads.
func (rt *Router) route(ctx context.Context, key string, spec *attemptSpec, hedgeable bool) proxyResult {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return proxyResult{err: errors.New("no replicas"), status: http.StatusServiceUnavailable}
	}
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}
	rng := resample.NewRNG(rt.cfg.Seed ^ uint64(rt.opSeq.Add(1))*0x9e3779b97f4a7c15)
	var last proxyResult
	next, sent := 0, 0
	for attempt := 0; attempt < maxAttempts && next < len(cands); attempt++ {
		if attempt > 0 {
			rt.tracer.Add("fleet/failovers", 1)
			rt.metrics.observeFailover()
			select {
			case <-time.After(backoffDelay(rng, attempt, rt.cfg.RetryBase, rt.cfg.RetryCap)):
			case <-ctx.Done():
				return proxyResult{err: ctx.Err(), attempts: sent}
			}
		}
		var res proxyResult
		if attempt == 0 && hedgeable && rt.cfg.HedgeDelay > 0 && next+1 < len(cands) {
			var pairSent int
			res, pairSent = rt.hedged(ctx, cands[next], cands[next+1], spec)
			sent += pairSent
			next += 2 // a hedged pair consumes both candidates
		} else {
			sent++
			res = rt.forward(ctx, cands[next], spec, sent, "")
			next++
		}
		res.attempts = sent
		if res.err == nil && !res.retryable {
			return res
		}
		if ctx.Err() != nil {
			return proxyResult{err: ctx.Err(), attempts: sent}
		}
		last = res
	}
	return last
}

// hedged races primary against a delayed copy on secondary: the hedge
// launches when primary is slow (HedgeDelay) or failed outright, the
// first relayable response wins, and the loser's context is canceled. The
// second return value is how many forwards were actually sent (1 or 2).
func (rt *Router) hedged(ctx context.Context, primary, secondary int, spec *attemptSpec) (proxyResult, int) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser
	ch := make(chan proxyResult, 2)
	go func() { ch <- rt.forward(hctx, primary, spec, 1, "") }()
	timer := time.NewTimer(rt.cfg.HedgeDelay)
	defer timer.Stop()
	pending, launched := 1, false
	launch := func(counted bool) {
		launched = true
		pending++
		if counted {
			rt.tracer.Add("fleet/hedges", 1)
			rt.metrics.observeHedge(false)
		}
		go func() { ch <- rt.forward(hctx, secondary, spec, 2, "secondary") }()
	}
	var last proxyResult
	sent := func() int {
		if launched {
			return 2
		}
		return 1
	}
	for pending > 0 {
		select {
		case res := <-ch:
			pending--
			if res.err == nil && !res.retryable {
				if launched {
					if res.replica == secondary {
						rt.tracer.Add("fleet/hedge_wins", 1)
						rt.metrics.observeHedge(true)
						res.hedge = "secondary"
					} else {
						res.hedge = "primary"
					}
				}
				return res, sent()
			}
			last = res
			if !launched {
				// Primary failed before the hedge timer: fail over to the
				// secondary immediately (counted as failover, not hedge).
				rt.tracer.Add("fleet/failovers", 1)
				rt.metrics.observeFailover()
				launch(false)
			}
		case <-timer.C:
			if !launched {
				launch(true)
			}
		}
	}
	return last, sent()
}

// forward sends one attempt to replica id, buffering the full response so
// a mid-body connection loss converts into a retryable failure rather
// than a torn relay. Forecast and Granger responses are pure functions of
// the artifact, so re-sending after a partial response is safe. attempt is
// the request's forward ordinal (1-based) and hedge is "secondary" for the
// hedged copy; both travel to the replica as headers alongside the
// request ID so replica access logs show which attempt reached them.
func (rt *Router) forward(ctx context.Context, id int, spec *attemptSpec, attempt int, hedge string) proxyResult {
	st := rt.reps[id]
	if plan := rt.cfg.FaultPlan; plan != nil {
		kill, refuse := plan.HTTPOp(id)
		if kill {
			rt.tracer.Add("fleet/injected_kills", 1)
			rt.killBackend(id)
		}
		if refuse != nil {
			rt.tracer.Add("fleet/injected_refusals", 1)
			rt.markHealth(id, false)
			return proxyResult{replica: id, err: refuse, retryable: true}
		}
	}
	addr := st.backend.Addr()
	if addr == "" {
		rt.markHealth(id, false)
		return proxyResult{replica: id, err: fmt.Errorf("replica %d down", id), retryable: true}
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, spec.method, "http://"+addr+spec.path, bytes.NewReader(spec.body))
	if err != nil {
		return proxyResult{replica: id, err: err}
	}
	if spec.ctype != "" {
		req.Header.Set("Content-Type", spec.ctype)
	}
	if spec.reqID != "" {
		req.Header.Set(telemetry.HeaderRequestID, spec.reqID)
		req.Header.Set(telemetry.HeaderAttempt, strconv.Itoa(attempt))
		if hedge != "" {
			req.Header.Set(telemetry.HeaderHedge, hedge)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Parent canceled or deadline passed (including hedge-loser
			// cancellation): not the replica's fault, do not evict.
			return proxyResult{replica: id, err: ctx.Err()}
		}
		// Attempt timeout or transport failure (refused, reset): evict now;
		// the prober re-admits once /healthz recovers.
		rt.markHealth(id, false)
		return proxyResult{replica: id, err: err, retryable: true}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes))
	resp.Body.Close()
	if err != nil {
		if ctx.Err() != nil {
			return proxyResult{replica: id, err: ctx.Err()}
		}
		rt.markHealth(id, false)
		return proxyResult{replica: id, err: fmt.Errorf("replica %d: read response: %w", id, err), retryable: true}
	}
	retryable := false
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// Saturated or draining replica: alive, so no eviction, but another
		// replica may have capacity.
		retryable = true
	}
	return proxyResult{status: resp.StatusCode, header: resp.Header, body: body, replica: id, retryable: retryable}
}

// killBackend delivers an injected ReplicaKill.
func (rt *Router) killBackend(id int) {
	if rt.cfg.Kill != nil {
		rt.cfg.Kill(id)
		return
	}
	if rep, ok := rt.reps[id].backend.(*Replica); ok {
		rep.Kill()
	}
}

// relay writes the chosen attempt's response (or the failure synthesis)
// to the client, stashing the routing metadata into the instrumented
// recorder (when present) for the router's access-log line.
func (rt *Router) relay(ctx context.Context, w http.ResponseWriter, res proxyResult) {
	if rec, ok := w.(*routeRecorder); ok {
		rec.attempts = res.attempts
		rec.hedge = res.hedge
		if res.err != nil {
			rec.errMsg = res.err.Error()
		} else {
			rec.backend = strconv.Itoa(res.replica)
		}
	}
	if res.err != nil || res.status == 0 {
		switch {
		case errors.Is(res.err, context.DeadlineExceeded) || ctx.Err() != nil:
			rt.writeJSONError(w, http.StatusGatewayTimeout, "fleet: deadline exceeded")
		case res.status == http.StatusServiceUnavailable:
			rt.writeJSONError(w, http.StatusServiceUnavailable, "fleet: %v", res.err)
		default:
			rt.writeJSONError(w, http.StatusBadGateway, "fleet: all replicas failed: %v", res.err)
		}
		return
	}
	for _, h := range []string{"Content-Type", "X-Cache", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Replica", fmt.Sprint(res.replica))
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // client hangup
}

// ---- Endpoint handlers ----

// handleGraphGet routes the GET graph endpoints (/v1/graph/node/{i},
// /v1/graph/summary) by their ?model= query key, forwarding path and
// query verbatim. Graph queries are pure functions of the artifact
// version, so hedging is ON — a hedged duplicate is harmless and the
// slowest replica stops mattering. endpoint is the admission/metric label
// ("/v1/graph/node", not the per-index path, to bound cardinality).
func (rt *Router) handleGraphGet(endpoint string) http.HandlerFunc {
	return rt.admitted(endpoint, http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		name := r.URL.Query().Get("model")
		if name == "" {
			rt.writeJSONError(w, http.StatusBadRequest, "missing ?model= (the routing key)")
			return
		}
		path := r.URL.Path
		if q := r.URL.RawQuery; q != "" {
			path += "?" + q
		}
		rt.tracer.Add("fleet/graph_queries", 1)
		spec := &attemptSpec{method: http.MethodGet, path: path, reqID: r.Header.Get(telemetry.HeaderRequestID)}
		res := rt.route(ctx, name, spec, true)
		rt.relay(ctx, w, res)
	})
}

// handleRouted serves the model-keyed POST endpoints (/v1/forecast,
// /v1/granger, /v1/graph/topk): the model name is peeked from the JSON
// body and consistent-hashed onto the ring. These endpoints are
// idempotent reads (responses are pure functions of the artifact), so
// hedging is safe.
func (rt *Router) handleRouted(path string) http.HandlerFunc {
	return rt.admitted(path, http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancelReq := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancelReq()
		defer r.Body.Close()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
		if err != nil {
			rt.writeJSONError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var peek struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(body, &peek); err != nil {
			rt.writeJSONError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		spec := &attemptSpec{method: http.MethodPost, path: path, ctype: "application/json", body: body, reqID: r.Header.Get(telemetry.HeaderRequestID)}
		res := rt.route(ctx, peek.Model, spec, true)
		rt.relay(ctx, w, res)
	})
}

// handleIngest routes POST /v1/ingest to the model's ring primary, exactly
// like forecast/granger — so a model's observation window accumulates on
// the replica that serves it — but with hedging OFF: appending rows is not
// idempotent, and a hedged duplicate would double-count them. Failover
// still applies; if the primary dies, its successor starts a fresh window
// and refits resume once it reaches the minimum row count.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	rt.admitted("/v1/ingest", http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		defer r.Body.Close()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
		if err != nil {
			rt.writeJSONError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var peek struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(body, &peek); err != nil {
			rt.writeJSONError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		rt.tracer.Add("fleet/ingests", 1)
		spec := &attemptSpec{method: http.MethodPost, path: "/v1/ingest", ctype: "application/json", body: body, reqID: r.Header.Get(telemetry.HeaderRequestID)}
		res := rt.route(ctx, peek.Model, spec, false)
		rt.relay(ctx, w, res)
	})(w, r)
}

// handleStreamStatus serves GET /v1/stream/status. With ?model= it routes
// to that model's ring primary (the replica holding its window); without,
// it fans out to every healthy replica and merges the rows, keeping each
// model's row from the replica that has ingested the most for it.
func (rt *Router) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	rt.admitted("/v1/stream/status", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		if name := r.URL.Query().Get("model"); name != "" {
			spec := &attemptSpec{method: http.MethodGet, path: "/v1/stream/status?model=" + url.QueryEscape(name), reqID: r.Header.Get(telemetry.HeaderRequestID)}
			res := rt.route(ctx, name, spec, false)
			rt.relay(ctx, w, res)
			return
		}
		spec := &attemptSpec{method: http.MethodGet, path: "/v1/stream/status", reqID: r.Header.Get(telemetry.HeaderRequestID)}
		byModel := make(map[string]serve.StreamStatus)
		var mu sync.Mutex
		var wg sync.WaitGroup
		var anyOK atomic.Bool
		var lastRes proxyResult
		for _, id := range rt.order {
			if !rt.reps[id].healthy.Load() {
				continue
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				res := rt.forward(ctx, id, spec, 1, "")
				mu.Lock()
				defer mu.Unlock()
				if res.err != nil || res.status != http.StatusOK {
					lastRes = res
					return
				}
				anyOK.Store(true)
				var resp serve.StreamStatusResponse
				if json.Unmarshal(res.body, &resp) != nil {
					return
				}
				for _, st := range resp.Streams {
					if have, ok := byModel[st.Model]; !ok || st.TotalRows > have.TotalRows {
						byModel[st.Model] = st
					}
				}
			}(id)
		}
		wg.Wait()
		if !anyOK.Load() {
			rt.relay(ctx, w, lastRes)
			return
		}
		names := make([]string, 0, len(byModel))
		for name := range byModel {
			names = append(names, name)
		}
		sort.Strings(names)
		out := serve.StreamStatusResponse{Streams: make([]serve.StreamStatus, 0, len(names))}
		for _, name := range names {
			out.Streams = append(out.Streams, byModel[name])
		}
		body, _ := json.Marshal(out)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body) //nolint:errcheck // client hangup
	})(w, r)
}

// handleModels serves GET /v1/models from any healthy replica (hedged —
// replicas agree on everything except load timestamps).
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	rt.admitted("/v1/models", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		spec := &attemptSpec{method: http.MethodGet, path: "/v1/models", reqID: r.Header.Get(telemetry.HeaderRequestID)}
		res := rt.route(ctx, "/v1/models", spec, true)
		rt.relay(ctx, w, res)
	})(w, r)
}

// handleReload fans POST /v1/reload out to every live replica — a reload
// must reach the whole fleet or report failure. The response of the
// lowest-ID replica that succeeded is relayed; any failure turns into 502
// naming the failed replicas (already-reloaded replicas stay reloaded;
// the operation is idempotent and can simply be retried).
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	rt.admitted("/v1/reload", http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		spec := &attemptSpec{method: http.MethodPost, path: "/v1/reload", reqID: r.Header.Get(telemetry.HeaderRequestID)}
		type outcome struct {
			id  int
			res proxyResult
		}
		var wg sync.WaitGroup
		outcomes := make([]outcome, 0, len(rt.order))
		var omu sync.Mutex
		for _, id := range rt.order {
			if !rt.reps[id].healthy.Load() {
				continue
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				res := rt.forward(ctx, id, spec, 1, "")
				omu.Lock()
				outcomes = append(outcomes, outcome{id: id, res: res})
				omu.Unlock()
			}(id)
		}
		wg.Wait()
		if len(outcomes) == 0 {
			rt.writeJSONError(w, http.StatusServiceUnavailable, "fleet: no healthy replicas")
			return
		}
		var best *outcome
		var failed []int
		for i := range outcomes {
			o := &outcomes[i]
			if o.res.err != nil || o.res.status != http.StatusOK {
				failed = append(failed, o.id)
				continue
			}
			if best == nil || o.id < best.id {
				best = o
			}
		}
		if len(failed) > 0 {
			rt.writeJSONError(w, http.StatusBadGateway, "fleet: reload failed on replicas %v", failed)
			return
		}
		rt.tracer.Add("fleet/reloads", 1)
		rt.relay(ctx, w, best.res)
	})(w, r)
}
