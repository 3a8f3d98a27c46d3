package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
)

// fakeStreamer records ingests and serves canned statuses — the endpoint
// tests exercise the wire protocol, not refit mechanics (internal/stream
// owns those). refitting is what Refitting reports, so batcher tests can
// put a server in the contended mode, where batches wait out the window.
type fakeStreamer struct {
	rows      map[string]int
	failNew   bool
	refitting atomic.Bool
}

// refitInFlight returns a streamer that reports a refit running.
func refitInFlight() *fakeStreamer {
	f := &fakeStreamer{}
	f.refitting.Store(true)
	return f
}

func (f *fakeStreamer) Refitting() bool { return f.refitting.Load() }

func (f *fakeStreamer) Ingest(model string, rows [][]float64) (StreamStatus, error) {
	if f.failNew || model == "ghost" {
		return StreamStatus{Model: model}, fmt.Errorf("stream: model %q: %w", model, ErrUnknownStream)
	}
	if len(rows) == 0 {
		return StreamStatus{Model: model}, errors.New("stream: no rows")
	}
	if f.rows == nil {
		f.rows = make(map[string]int)
	}
	f.rows[model] += len(rows)
	return StreamStatus{Model: model, Rows: f.rows[model], TotalRows: int64(f.rows[model]), Window: 128}, nil
}

func (f *fakeStreamer) Status(model string) (StreamStatus, bool) {
	if model == "ghost" {
		return StreamStatus{}, false
	}
	return StreamStatus{Model: model, Rows: f.rows[model]}, true
}

func (f *fakeStreamer) StatusAll() []StreamStatus {
	out := []StreamStatus{}
	for name, n := range f.rows {
		out = append(out, StreamStatus{Model: name, Rows: n})
	}
	return out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestIngestEndpoint: POST /v1/ingest forwards to the Streamer, returns the
// post-append status, counts ingested rows, and maps unknown models to 404.
func TestIngestEndpoint(t *testing.T) {
	fs := &fakeStreamer{}
	_, tr, ts := newTestServer(t, func(c *Config) { c.Streams = fs })

	code, _, body := post(t, ts.URL+"/v1/ingest", IngestRequest{
		Model: "mkt", Rows: [][]float64{{1, 2}, {3, 4}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	var st StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Model != "mkt" || st.Rows != 2 {
		t.Fatalf("status = %+v, want mkt with 2 rows", st)
	}
	if got := tr.Counters()["serve/ingest_rows"]; got != 2 {
		t.Fatalf("serve/ingest_rows = %d, want 2", got)
	}

	code, _, body = post(t, ts.URL+"/v1/ingest", IngestRequest{Model: "ghost", Rows: [][]float64{{1}}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown model ingest = %d: %s", code, body)
	}
	code, _, body = post(t, ts.URL+"/v1/ingest", IngestRequest{Model: "mkt"})
	if code != http.StatusBadRequest {
		t.Fatalf("empty ingest = %d: %s", code, body)
	}
}

// TestIngestDisabled: without a Streamer both endpoints 404 with a hint.
func TestIngestDisabled(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	code, _, body := post(t, ts.URL+"/v1/ingest", IngestRequest{Model: "mkt", Rows: [][]float64{{1}}})
	if code != http.StatusNotFound {
		t.Fatalf("ingest without streaming = %d: %s", code, body)
	}
	code, _ = getBody(t, ts.URL+"/v1/stream/status")
	if code != http.StatusNotFound {
		t.Fatalf("status without streaming = %d", code)
	}
}

// TestStreamStatusEndpoint: GET /v1/stream/status serves one row with
// ?model= (404 unknown) and all rows without.
func TestStreamStatusEndpoint(t *testing.T) {
	fs := &fakeStreamer{rows: map[string]int{"mkt": 7}}
	_, _, ts := newTestServer(t, func(c *Config) { c.Streams = fs })

	code, body := getBody(t, ts.URL+"/v1/stream/status?model=mkt")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var resp StreamStatusResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Streams) != 1 || resp.Streams[0].Model != "mkt" || resp.Streams[0].Rows != 7 {
		t.Fatalf("streams = %+v, want one mkt row with 7 rows", resp.Streams)
	}

	code, _ = getBody(t, ts.URL+"/v1/stream/status?model=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown model status = %d", code)
	}

	code, body = getBody(t, ts.URL+"/v1/stream/status")
	if code != http.StatusOK {
		t.Fatalf("status all = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Streams) != 1 {
		t.Fatalf("streams = %+v, want one row", resp.Streams)
	}
}
