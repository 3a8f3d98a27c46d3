package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uoivar/internal/model"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// benchArtifact is a p=40 order-1 VAR artifact — the stream_serve model
// shape — built from a stable simulated model rather than a fit, since only
// the forecast kernel's shape matters here.
func benchArtifact() *model.Artifact {
	const p = 40
	vm := varsim.GenerateStable(resample.NewRNG(17), p, 1, nil)
	return &model.Artifact{
		Meta: model.Meta{Schema: model.Schema, Kind: model.KindVAR, P: p, Order: 1, Intercept: true},
		A:    vm.A,
		Mu:   vm.Mu,
	}
}

// BenchmarkForecastServe measures closed-loop forecast traffic over
// loopback HTTP with the response cache off: every request goes through the
// batcher. "idle" has no refit in flight, so batches dispatch at once;
// "refitting" reports a refit, so every batch holds the default 2 ms window
// open. ns/op is wall time per answered request (its inverse is requests/s
// across all clients); req/batch is the coalescing factor.
func BenchmarkForecastServe(b *testing.B) {
	art := benchArtifact()
	for _, mode := range []struct {
		name    string
		streams func() Streamer
	}{
		{"idle", func() Streamer { return nil }},
		{"refitting", func() Streamer { return refitInFlight() }},
	} {
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode.name, clients), func(b *testing.B) {
				benchForecastServe(b, art, mode.streams(), clients)
			})
		}
	}
}

func benchForecastServe(b *testing.B, art *model.Artifact, streams Streamer, clients int) {
	reg := NewRegistry()
	if _, err := reg.Set("m", art, ""); err != nil {
		b.Fatal(err)
	}
	tr := trace.New()
	s := New(Config{
		Registry: reg, Tracer: tr, Streams: streams,
		BatchWindow: 2 * time.Millisecond, CacheEntries: -1,
	})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	url := "http://" + addr + "/v1/forecast"
	body, err := json.Marshal(ForecastRequest{
		Model: "m", History: randHistory(resample.NewRNG(3), 1, art.Meta.P), Horizon: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if batches := tr.Counter("serve/forecast_batches"); batches > 0 {
		b.ReportMetric(float64(tr.Counter("serve/forecast_requests_batched"))/float64(batches), "req/batch")
	}
}

// BenchmarkForecastHandler is one forecast through the handler in process,
// with no client or socket: its B/op and allocs/op are the server's own
// cost per cache-missing forecast (decode, batch, forecast, encode).
func BenchmarkForecastHandler(b *testing.B) {
	art := benchArtifact()
	reg := NewRegistry()
	if _, err := reg.Set("m", art, ""); err != nil {
		b.Fatal(err)
	}
	s := New(Config{Registry: reg, BatchWindow: 2 * time.Millisecond, CacheEntries: -1})
	defer s.Close()
	h := s.Handler()
	body, err := json.Marshal(ForecastRequest{
		Model: "m", History: randHistory(resample.NewRNG(3), 1, art.Meta.P), Horizon: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
