package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// fitted caches one small seeded UoI_VAR fit for the whole test binary.
var fitted struct {
	once   sync.Once
	series *mat.Dense
	cfg    *uoi.VARConfig
	res    *uoi.VARResult
	art    *model.Artifact
	pred   *model.Predictor
}

func fitVAR(t testing.TB) (*mat.Dense, *model.Artifact, *model.Predictor) {
	t.Helper()
	fitted.once.Do(func() {
		rng := resample.NewRNG(9)
		vm := varsim.GenerateStable(rng, 8, 1, nil)
		fitted.series = vm.Simulate(rng, 400, 50)
		fitted.cfg = &uoi.VARConfig{Order: 1, B1: 6, B2: 3, Q: 5, Seed: 3}
		res, err := uoi.VAR(fitted.series, fitted.cfg)
		if err != nil {
			panic(err)
		}
		fitted.res = res
		fitted.art = model.FromVAR(res, fitted.cfg)
		pred, err := model.NewPredictor(fitted.art)
		if err != nil {
			panic(err)
		}
		fitted.pred = pred
	})
	return fitted.series, fitted.art, fitted.pred
}

// newTestServer builds a server over a registry holding the fitted model as
// "mkt", returning the server, its tracer, and an httptest listener.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *trace.Tracer, *httptest.Server) {
	t.Helper()
	_, art, _ := fitVAR(t)
	reg := NewRegistry()
	if _, err := reg.Set("mkt", art, ""); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	cfg := Config{Registry: reg, Tracer: tr, BatchWindow: 2 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, tr, ts
}

func post(t *testing.T, url string, req any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func randHistory(rng *resample.RNG, rows, cols int) [][]float64 {
	h := make([][]float64, rows)
	for i := range h {
		h[i] = make([]float64, cols)
		for j := range h[i] {
			h[i][j] = rng.NormFloat64()
		}
	}
	return h
}

func toDense(rows [][]float64) *mat.Dense {
	m := mat.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// TestForecastBitIdenticalUnderConcurrency is the PR's serving acceptance
// test: many concurrent clients with different histories and horizons must
// each get back exactly the floats the in-memory Predictor computes —
// bit-identical, despite micro-batch coalescing (Go's JSON float64
// round-trip is exact, so equality after decoding is bit equality). It runs
// with no refit (batches dispatch at once) and with a refit in flight
// (batches wait out the window and must coalesce).
func TestForecastBitIdenticalUnderConcurrency(t *testing.T) {
	for _, mode := range []struct {
		name    string
		streams Streamer
	}{{"idle", nil}, {"refitting", refitInFlight()}} {
		t.Run(mode.name, func(t *testing.T) {
			tr := forecastConcurrently(t, mode.streams)
			if mode.streams == nil {
				return
			}
			// With 24 concurrent clients and a 10ms window held open by
			// the refit, at least some requests must have coalesced.
			batches := tr.Counter("serve/forecast_batches")
			reqs := tr.Counter("serve/forecast_requests_batched")
			if batches >= reqs {
				t.Errorf("no coalescing: %d batches for %d requests", batches, reqs)
			}
			t.Logf("coalescing factor: %.2f (%d requests in %d batches, max batch %d)",
				float64(reqs)/float64(batches), reqs, batches, tr.Max("serve/max_batch"))
		})
	}
}

// forecastConcurrently sends 24 concurrent forecasts through a server with
// a 10ms window and the given Streamer, checks every answer bit for bit
// against the in-memory Predictor, and returns the server's tracer.
func forecastConcurrently(t *testing.T, streams Streamer) *trace.Tracer {
	_, _, pred := fitVAR(t)
	_, tr, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 10 * time.Millisecond
		c.CacheEntries = -1 // every request must hit the batcher
		c.Streams = streams
	})
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := resample.NewRNG(uint64(100 + c))
			hist := randHistory(rng, 3+c%4, pred.P())
			horizon := 1 + c%5
			status, _, body := post(t, ts.URL+"/v1/forecast", ForecastRequest{
				Model: "mkt", History: hist, Horizon: horizon,
			})
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, status, body)
				return
			}
			var resp ForecastResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			want, err := pred.Forecast(toDense(hist), horizon)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Forecast) != horizon {
				errs <- fmt.Errorf("client %d: %d forecast rows, want %d", c, len(resp.Forecast), horizon)
				return
			}
			for i := range resp.Forecast {
				for j, v := range resp.Forecast[i] {
					if v != want.At(i, j) {
						errs <- fmt.Errorf("client %d: element (%d,%d) %v != %v", c, i, j, v, want.At(i, j))
						return
					}
				}
			}
			if resp.Version != 1 || resp.Model != "mkt" {
				errs <- fmt.Errorf("client %d: answered by %s@%d", c, resp.Model, resp.Version)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reqs := tr.Counter("serve/forecast_requests_batched"); reqs != clients {
		t.Fatalf("batched requests %d, want %d", reqs, clients)
	}
	return tr
}

// TestBatcherCoalesces drives the batcher directly: requests submitted
// while a refit holds the batch window open must share one ForecastBatch
// call.
func TestBatcherCoalesces(t *testing.T) {
	_, art, pred := fitVAR(t)
	reg := NewRegistry()
	if _, err := reg.Set("m", art, ""); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	b := newBatcher("m", reg, refitInFlight(), 50*time.Millisecond, 64, 64, tr, nil)
	defer b.close()
	const n = 8
	var wg sync.WaitGroup
	rng := resample.NewRNG(5)
	hists := make([]*mat.Dense, n)
	for i := range hists {
		hists[i] = toDense(randHistory(rng, 4, pred.P()))
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r := b.submit(context.Background(), hists[i], 2); r.err != nil {
				t.Error(r.err)
			}
		}(i)
	}
	wg.Wait()
	if batches := tr.Counter("serve/forecast_batches"); batches >= n {
		t.Errorf("%d batches for %d concurrent submits", batches, n)
	}
	if got := tr.Counter("serve/forecast_requests_batched"); got != n {
		t.Errorf("batched requests %d, want %d", got, n)
	}
}

// TestLoneForecastSkipsWindow: with no refit in flight a lone forecast is
// dispatched at once, however long the window — both with streaming off
// and with an idle Streamer.
func TestLoneForecastSkipsWindow(t *testing.T) {
	for _, mode := range []struct {
		name    string
		streams Streamer
	}{{"no-streams", nil}, {"idle-streams", &fakeStreamer{}}} {
		t.Run(mode.name, func(t *testing.T) {
			_, _, ts := newTestServer(t, func(c *Config) {
				c.BatchWindow = time.Second
				c.Streams = mode.streams
			})
			req := ForecastRequest{Model: "mkt", History: randHistory(resample.NewRNG(4), 4, 8), Horizon: 2}
			start := time.Now()
			status, _, body := post(t, ts.URL+"/v1/forecast", req)
			took := time.Since(start)
			if status != http.StatusOK {
				t.Fatalf("forecast: %d %s", status, body)
			}
			if took >= 250*time.Millisecond {
				t.Fatalf("lone forecast took %v under a 1s window: it waited for companions", took)
			}
		})
	}
}

// TestWindowHeldWhileRefitting: while a refit is in flight a lone forecast
// waits out the batch window.
func TestWindowHeldWhileRefitting(t *testing.T) {
	const window = 100 * time.Millisecond
	_, _, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = window
		c.Streams = refitInFlight()
	})
	req := ForecastRequest{Model: "mkt", History: randHistory(resample.NewRNG(4), 4, 8), Horizon: 2}
	start := time.Now()
	status, _, body := post(t, ts.URL+"/v1/forecast", req)
	took := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("forecast: %d %s", status, body)
	}
	if took < window {
		t.Fatalf("forecast took %v during a refit, want at least the %v window", took, window)
	}
}

// TestCacheHit: an identical repeated request is answered from the LRU with
// byte-identical body and an X-Cache: hit marker.
func TestCacheHit(t *testing.T) {
	_, tr, ts := newTestServer(t, nil)
	req := ForecastRequest{Model: "mkt", History: randHistory(resample.NewRNG(3), 4, 8), Horizon: 3}
	status, hdr, body1 := post(t, ts.URL+"/v1/forecast", req)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first request: %d cache=%q", status, hdr.Get("X-Cache"))
	}
	status, hdr, body2 := post(t, ts.URL+"/v1/forecast", req)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second request: %d cache=%q", status, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body1, body2)
	}
	if tr.Counter("serve/cache_hits") != 1 || tr.Counter("serve/cache_misses") != 1 {
		t.Fatalf("cache counters hits=%d misses=%d", tr.Counter("serve/cache_hits"), tr.Counter("serve/cache_misses"))
	}
}

// TestGrangerEndpoint must return exactly the edges varsim extracts from
// the fitted lag matrices.
func TestGrangerEndpoint(t *testing.T) {
	_, art, _ := fitVAR(t)
	_, _, ts := newTestServer(t, nil)
	status, _, body := post(t, ts.URL+"/v1/granger", GrangerRequest{Model: "mkt", Tol: 1e-7})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp GrangerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := varsim.GrangerEdges(art.A, 1e-7, false)
	if len(resp.Edges) != len(want) {
		t.Fatalf("%d edges, want %d", len(resp.Edges), len(want))
	}
	for i, e := range want {
		if resp.Edges[i] != (Edge{Source: e.Source, Target: e.Target, Weight: e.Weight}) {
			t.Fatalf("edge %d: %+v, want %+v", i, resp.Edges[i], e)
		}
	}
}

// TestModelsAndErrors covers the listing endpoint and the error statuses:
// unknown model 404, malformed histories 400, bad method 405.
func TestModelsAndErrors(t *testing.T) {
	_, _, ts := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models.Models) != 1 || models.Models[0].Name != "mkt" || models.Models[0].Kind != model.KindVAR {
		t.Fatalf("models listing: %+v", models)
	}
	if models.Models[0].SupportSize == 0 {
		t.Fatal("support size missing from listing")
	}

	if status, _, _ := post(t, ts.URL+"/v1/forecast", ForecastRequest{Model: "nope", Horizon: 1}); status != http.StatusNotFound {
		t.Fatalf("unknown model: %d", status)
	}
	if status, _, body := post(t, ts.URL+"/v1/forecast", ForecastRequest{
		Model: "mkt", History: randHistory(resample.NewRNG(1), 4, 3), Horizon: 1,
	}); status != http.StatusBadRequest {
		t.Fatalf("wrong width: %d %s", status, body)
	}
	if status, _, _ := post(t, ts.URL+"/v1/forecast", ForecastRequest{
		Model: "mkt", History: randHistory(resample.NewRNG(1), 4, 8), Horizon: -1,
	}); status != http.StatusBadRequest {
		t.Fatal("negative horizon accepted")
	}
	if status, _, _ := post(t, ts.URL+"/v1/models", struct{}{}); status != http.StatusMethodNotAllowed {
		t.Fatal("POST /v1/models accepted")
	}
	resp, err = http.Get(ts.URL + "/v1/forecast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/forecast: %d", resp.StatusCode)
	}
}

// TestInflightLimit: with the semaphore held, requests are refused with 429
// rather than queued.
func TestInflightLimit(t *testing.T) {
	s, _, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	release, ok := s.acquire("/v1/forecast")
	if !ok {
		t.Fatal("could not take the only slot")
	}
	status, hdr, _ := post(t, ts.URL+"/v1/forecast", ForecastRequest{Model: "mkt", Horizon: 1})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated endpoint: %d", status)
	}
	// With no completed requests yet, the derived Retry-After degrades to
	// the 1-second floor.
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("cold Retry-After = %q, want 1", got)
	}
	// Once the server has observed slow requests, the header must reflect
	// the service-time EWMA instead of a constant.
	s.ewmaNanos.Store(int64(2500 * time.Millisecond))
	status, hdr, _ = post(t, ts.URL+"/v1/forecast", ForecastRequest{Model: "mkt", Horizon: 1})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated endpoint: %d", status)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Fatalf("warm Retry-After = %q, want 3 (ceil of batch window + 2.5s EWMA)", got)
	}
	s.ewmaNanos.Store(0)
	release()
	if status, _, _ := post(t, ts.URL+"/v1/forecast", ForecastRequest{
		Model: "mkt", History: randHistory(resample.NewRNG(1), 4, 8), Horizon: 1,
	}); status != http.StatusOK {
		t.Fatalf("after release: %d", status)
	}
}

// TestDeadline: a batch window longer than the request timeout, held open
// by a refit in flight, forces the deadline to fire first → 504.
func TestDeadline(t *testing.T) {
	_, _, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 2 * time.Second
		c.Timeout = 30 * time.Millisecond
		c.Streams = refitInFlight()
	})
	status, _, body := post(t, ts.URL+"/v1/forecast", ForecastRequest{
		Model: "mkt", History: randHistory(resample.NewRNG(1), 4, 8), Horizon: 1,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired request: %d %s", status, body)
	}
}

// TestHotSwapVersioning: replacing a model bumps the version, responses name
// the version that answered, and the cache never serves stale bytes across
// the swap.
func TestHotSwapVersioning(t *testing.T) {
	_, art, _ := fitVAR(t)
	s, _, ts := newTestServer(t, nil)
	req := ForecastRequest{Model: "mkt", History: randHistory(resample.NewRNG(8), 4, 8), Horizon: 2}
	_, _, body := post(t, ts.URL+"/v1/forecast", req)
	var r1 ForecastResponse
	if err := json.Unmarshal(body, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Version != 1 {
		t.Fatalf("version %d, want 1", r1.Version)
	}

	// Hot-swap: same coefficients scaled by 2 — different forecasts.
	swapped := &model.Artifact{Meta: art.Meta, Mu: art.Mu}
	for _, aj := range art.A {
		c := mat.NewDense(aj.Rows, aj.Cols)
		for i, v := range aj.Data {
			c.Data[i] = 2 * v
		}
		swapped.A = append(swapped.A, c)
	}
	if _, err := s.reg.Set("mkt", swapped, ""); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := post(t, ts.URL+"/v1/forecast", req)
	if status != http.StatusOK {
		t.Fatalf("post-swap status %d", status)
	}
	if hdr.Get("X-Cache") == "hit" {
		t.Fatal("cache hit across a version swap")
	}
	var r2 ForecastResponse
	if err := json.Unmarshal(body, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", r2.Version)
	}
	if r2.Forecast[0][0] == r1.Forecast[0][0] {
		t.Fatal("swapped model returned identical forecast")
	}
}

// TestReloadFromDisk: /v1/reload re-reads artifacts from their files and
// hot-swaps new versions in.
func TestReloadFromDisk(t *testing.T) {
	_, art, _ := fitVAR(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "mkt"+model.Ext)
	if err := model.Save(path, art); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	entries, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "mkt" || entries[0].Version != 1 {
		t.Fatalf("LoadDir: %+v", entries)
	}
	s := New(Config{Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if err := model.Save(path, art); err != nil { // rewrite → version 2 on reload
		t.Fatal(err)
	}
	status, _, body := post(t, ts.URL+"/v1/reload", struct{}{})
	if status != http.StatusOK {
		t.Fatalf("reload: %d %s", status, body)
	}
	var models ModelsResponse
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Version != 2 {
		t.Fatalf("post-reload listing: %+v", models)
	}
	if got := reg.Get("mkt").Version; got != 2 {
		t.Fatalf("registry version %d, want 2", got)
	}
}

// TestGracefulDrain: requests in flight when Shutdown begins must all
// complete with 200 — the drain waits for them, and the batcher answers
// everything it accepted.
func TestGracefulDrain(t *testing.T) {
	_, art, _ := fitVAR(t)
	reg := NewRegistry()
	if _, err := reg.Set("mkt", art, ""); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New("serve-test")
	s := New(Config{
		Registry:     reg,
		BatchWindow:  100 * time.Millisecond, // requests linger in the window during drain
		Streams:      refitInFlight(),        // which a refit in flight holds open
		Monitor:      mon,
		CacheEntries: -1,
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr

	// Healthy before drain.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	const n = 6
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := post(t, url+"/v1/forecast", ForecastRequest{
				Model: "mkt", History: randHistory(resample.NewRNG(uint64(i)), 4, 8), Horizon: 2,
			})
			if status != http.StatusOK {
				t.Errorf("in-flight request %d dropped: %d %s", i, status, body)
			}
			statuses <- status
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the batch window
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(statuses)
	got := 0
	for st := range statuses {
		if st == http.StatusOK {
			got++
		}
	}
	if got != n {
		t.Fatalf("%d of %d in-flight requests completed", got, n)
	}
}

// TestReadinessReflectsRegistryAndDrain: /healthz is 503 with no models,
// 200 with one, 503 again when draining.
func TestReadinessReflectsRegistryAndDrain(t *testing.T) {
	reg := NewRegistry()
	mon := monitor.New("serve-ready")
	s := New(Config{Registry: reg, Monitor: mon})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with empty registry: %d", resp.StatusCode)
	}
	_, art, _ := fitVAR(t)
	if _, err := reg.Set("mkt", art, ""); err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with a model: %d", resp.StatusCode)
	}
	s.draining.Store(true)
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("healthz while draining: %d %s", resp.StatusCode, body)
	}
}

// TestLRUCacheEviction exercises the cache in isolation.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	d := newLRUCache(-1)
	d.Put("x", []byte("y"))
	if _, ok := d.Get("x"); ok {
		t.Fatal("disabled cache cached")
	}
}

// Len returns the number of cached responses.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
