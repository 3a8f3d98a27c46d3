package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uoivar/internal/fault"
	"uoivar/internal/monitor"
	"uoivar/internal/trace"
)

// stubBackend is a Backend over an httptest server with a swappable
// handler and a severable address.
type stubBackend struct {
	id   int
	srv  *httptest.Server
	down atomic.Bool
	hits atomic.Int64
}

func newStub(t *testing.T, id int, handler http.HandlerFunc) *stubBackend {
	t.Helper()
	b := &stubBackend{id: id}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		handler(w, r)
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *stubBackend) ID() int { return b.id }

func (b *stubBackend) Addr() string {
	if b.down.Load() {
		return ""
	}
	return strings.TrimPrefix(b.srv.URL, "http://")
}

// okStub answers every request 200 with a body naming the stub.
func okStub(t *testing.T, id int) *stubBackend {
	return newStub(t, id, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%d}`, id)
	})
}

func backends(bs ...*stubBackend) []Backend {
	out := make([]Backend, len(bs))
	for i, b := range bs {
		out[i] = b
	}
	return out
}

func postForecast(t *testing.T, url, model string, header map[string]string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"history":[[0.1]],"horizon":1}`, model)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/forecast", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive ProbeNow explicitly
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, "http://" + addr
}

// TestRouterRoutesConsistently: the same model always lands on the same
// (healthy) replica — the ring's primary — and the response is relayed
// with the replica attributed in X-Fleet-Replica.
func TestRouterRoutesConsistently(t *testing.T) {
	a, b := okStub(t, 0), okStub(t, 1)
	rt, url := startRouter(t, Config{Backends: backends(a, b), Tracer: trace.New()})
	primary := rt.candidates("m-route")[0]
	for i := 0; i < 8; i++ {
		resp := postForecast(t, url, "m-route", nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Fleet-Replica"); got != strconv.Itoa(primary) {
			t.Fatalf("request %d served by replica %s, want %d", i, got, primary)
		}
		if want := fmt.Sprintf(`{"served_by":%d}`, primary); string(body) != want {
			t.Fatalf("body %s, want %s", body, want)
		}
	}
}

// TestRouterFailoverOnDeadPrimary: severing the primary's listener makes
// requests fail over to the next ring candidate; the primary is evicted
// and later re-admitted by a probe.
func TestRouterFailoverOnDeadPrimary(t *testing.T) {
	a, b := okStub(t, 0), okStub(t, 1)
	tr := trace.New()
	rt, url := startRouter(t, Config{Backends: backends(a, b), Tracer: tr})
	const model = "m-failover"
	primary := rt.candidates(model)[0]
	stubs := map[int]*stubBackend{0: a, 1: b}
	stubs[primary].down.Store(true)

	resp := postForecast(t, url, model, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", resp.StatusCode, body)
	}
	secondary := 1 - primary
	if want := fmt.Sprintf(`{"served_by":%d}`, secondary); string(body) != want {
		t.Fatalf("failover body %s, want %s", body, want)
	}
	if tr.Counter("fleet/failovers") == 0 {
		t.Fatal("failover not counted")
	}
	if rt.Healthy(primary) {
		t.Fatal("dead primary must be evicted")
	}
	// Subsequent requests go straight to the healthy secondary (evicted
	// primary is only a last resort).
	resp = postForecast(t, url, model, nil)
	readAll(t, resp)
	if got := resp.Header.Get("X-Fleet-Replica"); got != strconv.Itoa(secondary) {
		t.Fatalf("post-eviction request served by %s, want %d", got, secondary)
	}
	// Revive and probe: the replica rejoins.
	stubs[primary].down.Store(false)
	rt.ProbeNow()
	if !rt.Healthy(primary) {
		t.Fatal("revived primary must be re-admitted after probe")
	}
	if tr.Counter("fleet/readmissions") == 0 {
		t.Fatal("readmission not counted")
	}
}

// TestRouterConnRefusedInjection: a seeded ConnRefused plan forces
// failover without any real network failure, deterministically.
func TestRouterConnRefusedInjection(t *testing.T) {
	a, b := okStub(t, 0), okStub(t, 1)
	tr := trace.New()
	rt, err := NewRouter(Config{Backends: backends(a, b), Tracer: tr, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const model = "m-refused"
	primary := rt.candidates(model)[0]
	rt.cfg.FaultPlan = fault.NewPlan(2, fault.Event{Kind: fault.ConnRefused, Rank: primary, Op: 0, Count: 1})
	addr, err := rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	resp := postForecast(t, "http://"+addr, model, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Replica"); got != strconv.Itoa(1-primary) {
		t.Fatalf("served by %s, want failover to %d", got, 1-primary)
	}
	if tr.Counter("fleet/injected_refusals") != 1 {
		t.Fatalf("injected refusals %d, want 1", tr.Counter("fleet/injected_refusals"))
	}
}

// TestRouterRetryableStatusFailover: a 503 from a draining replica is
// retried on the next candidate without evicting the sender.
func TestRouterRetryableStatusFailover(t *testing.T) {
	busy := newStub(t, 0, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ok := okStub(t, 1)
	rt, url := startRouter(t, Config{Backends: backends(busy, ok), Tracer: trace.New()})
	resp := postForecast(t, url, "any-model", nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !rt.Healthy(0) {
		t.Fatal("a 503 must not evict (the replica is alive, just busy)")
	}
}

// TestRouterTenantQuota: per-tenant token buckets admit the burst, then
// 429 with an honest integer Retry-After; other tenants are unaffected.
func TestRouterTenantQuota(t *testing.T) {
	a := okStub(t, 0)
	tr := trace.New()
	_, url := startRouter(t, Config{
		Backends: backends(a), Tracer: tr,
		TenantRate: 0.5, TenantBurst: 2,
	})
	for i := 0; i < 2; i++ {
		resp := postForecast(t, url, "m", map[string]string{"X-Tenant": "acme"})
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postForecast(t, url, "m", map[string]string{"X-Tenant": "acme"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	// At 0.5 tokens/s an empty bucket needs ~2s for one token.
	if ra > 3 {
		t.Fatalf("Retry-After %d, want <= 3 for 0.5 tok/s", ra)
	}
	if tr.Counter("fleet/tenant_rejections") != 1 {
		t.Fatalf("tenant rejections %d", tr.Counter("fleet/tenant_rejections"))
	}
	// A different tenant still gets in.
	resp = postForecast(t, url, "m", map[string]string{"X-Tenant": "other"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status %d", resp.StatusCode)
	}
}

// TestRouterLoadShedding: once aggregate inflight crosses the watermark,
// excess requests get 503 + Retry-After instead of queueing.
func TestRouterLoadShedding(t *testing.T) {
	release := make(chan struct{})
	slow := newStub(t, 0, func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte(`{}`)) //nolint:errcheck // test stub
	})
	tr := trace.New()
	_, url := startRouter(t, Config{
		Backends: backends(slow), Tracer: tr, ShedWatermark: 2,
	})
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postForecast(t, url, "m", nil)
			readAll(t, resp)
			codes <- resp.StatusCode
		}()
	}
	// Wait for both to occupy inflight slots.
	deadline := time.Now().Add(5 * time.Second)
	for slow.hits.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slow backend never saw both requests")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postForecast(t, url, "m", nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if tr.Counter("fleet/shed") != 1 {
		t.Fatalf("shed counter %d", tr.Counter("fleet/shed"))
	}
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request finished with %d", c)
		}
	}
}

// TestRouterHedging: a slow primary is raced by a hedge to the secondary
// after HedgeDelay; the hedge wins, the loser is canceled, and the client
// sees the fast answer.
func TestRouterHedging(t *testing.T) {
	canceled := make(chan struct{}, 1)
	slow := newStub(t, 0, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can detect the
		// hedge-loser cancellation (client hangup).
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test stub
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-time.After(3 * time.Second):
		}
	})
	fast := newStub(t, 1, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fast":true}`)) //nolint:errcheck // test stub
	})
	tr := trace.New()
	rt, err := NewRouter(Config{
		Backends: backends(slow, fast), Tracer: tr,
		HedgeDelay: 20 * time.Millisecond, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Find a model whose primary is the slow stub so the hedge must fire.
	model := ""
	for i := 0; ; i++ {
		m := fmt.Sprintf("m-%d", i)
		if rt.candidates(m)[0] == 0 {
			model = m
			break
		}
	}
	start := time.Now()
	resp := postForecast(t, "http://"+addr, model, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != `{"fast":true}` {
		t.Fatalf("hedged response %d %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge took %v; loser's latency leaked into the client", elapsed)
	}
	if tr.Counter("fleet/hedges") != 1 || tr.Counter("fleet/hedge_wins") != 1 {
		t.Fatalf("hedges %d wins %d, want 1/1",
			tr.Counter("fleet/hedges"), tr.Counter("fleet/hedge_wins"))
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("loser was never canceled")
	}
	if !rt.Healthy(0) {
		t.Fatal("hedge-loser cancellation must not evict the slow replica")
	}
}

// TestRouterReloadFansOut: /v1/reload reaches every healthy replica.
func TestRouterReloadFansOut(t *testing.T) {
	var reloads [2]atomic.Int64
	mk := func(id int) *stubBackend {
		return newStub(t, id, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/reload" {
				reloads[id].Add(1)
			}
			w.Write([]byte(`{"models":[]}`)) //nolint:errcheck // test stub
		})
	}
	a, b := mk(0), mk(1)
	_, url := startRouter(t, Config{Backends: backends(a, b), Tracer: trace.New()})
	resp, err := http.Post(url+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	if reloads[0].Load() != 1 || reloads[1].Load() != 1 {
		t.Fatalf("reload fanout %d/%d, want 1/1", reloads[0].Load(), reloads[1].Load())
	}
}

// TestRouterModelsHedgeableGET: /v1/models is served from a healthy
// replica and rejects non-GET methods.
func TestRouterModelsGET(t *testing.T) {
	a := okStub(t, 0)
	_, url := startRouter(t, Config{Backends: backends(a), Tracer: trace.New()})
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status %d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/v1/models", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models status %d, want 405", resp.StatusCode)
	}
}

// TestRouterHealthzLifecycle: the mounted monitor reports ok → degraded
// (replica evicted) → ok (recovered), and 503-unavailable when the whole
// fleet is gone.
func TestRouterHealthzLifecycle(t *testing.T) {
	a, b := okStub(t, 0), okStub(t, 1)
	mon := monitor.New("fleet-test")
	rt, url := startRouter(t, Config{Backends: backends(a, b), Tracer: trace.New(), Monitor: mon})

	get := func() (int, string) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(readAll(t, resp))
	}
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("initial healthz %d %q", code, body)
	}
	a.down.Store(true)
	rt.ProbeNow()
	code, body := get()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "replica 0 evicted") {
		t.Fatalf("degraded healthz %d %q", code, body)
	}
	b.down.Store(true)
	rt.ProbeNow()
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "no healthy replicas") {
		t.Fatalf("dead-fleet healthz %d %q", code, body)
	}
	a.down.Store(false)
	b.down.Store(false)
	rt.ProbeNow()
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("recovered healthz %d %q", code, body)
	}
}

// TestRouterDrainRejects: a draining router answers 503 and its monitor
// readiness fails.
func TestRouterDrainRejects(t *testing.T) {
	a := okStub(t, 0)
	rt, url := startRouter(t, Config{Backends: backends(a), Tracer: trace.New()})
	if err := rt.Shutdown(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/forecast", "application/json", bytes.NewReader([]byte(`{"model":"m"}`)))
	if err != nil {
		// Listener already closed is also an acceptable drain behavior.
		return
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d", resp.StatusCode)
	}
}

// TestRouterBadRequests: malformed bodies and unknown models produce
// client errors, not failover storms.
func TestRouterBadRequests(t *testing.T) {
	notFound := newStub(t, 0, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"model not found"}`)) //nolint:errcheck // test stub
	})
	tr := trace.New()
	_, url := startRouter(t, Config{Backends: backends(notFound), Tracer: tr})
	resp, err := http.Post(url+"/v1/forecast", "application/json", bytes.NewReader([]byte(`{not json`)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}
	resp = postForecast(t, url, "ghost", nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d, want relayed 404", resp.StatusCode)
	}
	if tr.Counter("fleet/failovers") != 0 {
		t.Fatal("a 404 must not trigger failover")
	}
}

// TestBackoffDelayShape: capped and jittered within [d/2, d).
func TestBackoffDelayShape(t *testing.T) {
	rng := newTestRNG()
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		want := base << uint(attempt-1)
		if want > cap {
			want = cap
		}
		for i := 0; i < 20; i++ {
			d := backoffDelay(rng, attempt, base, cap)
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want)
			}
		}
	}
}

// Healthy reports the router's current view of replica id.
func (rt *Router) Healthy(id int) bool {
	st := rt.reps[id]
	return st != nil && st.healthy.Load()
}
