package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"uoivar/internal/graph"
)

// directCSR builds the reference CSR store straight from the fitted
// predictor, the way the provider should.
func directCSR(t *testing.T, tol float64, selfLoops bool) *graph.CSR {
	t.Helper()
	_, _, pred := fitVAR(t)
	edges, err := pred.Edges(tol, selfLoops)
	if err != nil {
		t.Fatal(err)
	}
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ge[i] = graph.Edge{From: e.Source, To: e.Target, Weight: e.Weight}
	}
	g, err := graph.Build(pred.P(), ge, graph.DupLast)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestGraphTopKEndpoint(t *testing.T) {
	_, tr, ts := newTestServer(t, nil)
	want := directCSR(t, 0, false)

	status, hdr, body := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 5})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	var resp GraphTopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "mkt" || resp.Version != 1 {
		t.Fatalf("identity = %s@%d, want mkt@1", resp.Model, resp.Version)
	}
	if resp.Nodes != want.N || resp.TotalEdges != want.NumEdges() {
		t.Fatalf("graph dims %d/%d, want %d/%d", resp.Nodes, resp.TotalEdges, want.N, want.NumEdges())
	}
	ref := want.TopK(5)
	if len(resp.Edges) != len(ref) {
		t.Fatalf("got %d edges, want %d", len(resp.Edges), len(ref))
	}
	for i, e := range ref {
		got := resp.Edges[i]
		if got.Source != e.From || got.Target != e.To || got.Weight != e.Weight {
			t.Fatalf("edge %d: %+v, want %+v", i, got, e)
		}
	}

	// Identical query → LRU hit with the identical bytes.
	status2, hdr2, body2 := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 5})
	if status2 != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q", status2, hdr2.Get("X-Cache"))
	}
	if string(body) != string(body2) {
		t.Fatal("cache hit returned different bytes")
	}
	c := tr.Counters()
	if c["serve/graph_builds"] != 1 {
		t.Fatalf("serve/graph_builds = %d, want 1 (store cached)", c["serve/graph_builds"])
	}
	if c["serve/graph_queries"] != 1 || c["serve/cache_hits"] != 1 {
		t.Fatalf("counters: %v", c)
	}

	// Unknown model and bad k are client errors.
	if status, _, _ := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "nope"}); status != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", status)
	}
	if status, _, _ := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: -1}); status != http.StatusBadRequest {
		t.Fatalf("negative k: status %d, want 400", status)
	}
}

func TestGraphNodeEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	want := directCSR(t, 0, false)

	status, _, body := get(t, ts.URL+"/v1/graph/node/0?model=mkt&limit=3")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp GraphNodeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Node != want.Node(0) {
		t.Fatalf("node stats %+v, want %+v", resp.Node, want.Node(0))
	}
	if len(resp.OutEdges) > 3 || len(resp.InEdges) > 3 {
		t.Fatalf("limit ignored: %d out, %d in", len(resp.OutEdges), len(resp.InEdges))
	}
	refOut := want.OutEdges(0, 3)
	for i, e := range refOut {
		if resp.OutEdges[i].Target != e.To || resp.OutEdges[i].Weight != e.Weight {
			t.Fatalf("out edge %d: %+v, want %+v", i, resp.OutEdges[i], e)
		}
	}

	// Out-of-range node, junk index, wrong method, junk query.
	if status, _, _ := get(t, fmt.Sprintf("%s/v1/graph/node/%d?model=mkt", ts.URL, want.N)); status != http.StatusNotFound {
		t.Fatalf("out-of-range node: status %d, want 404", status)
	}
	if status, _, _ := get(t, ts.URL+"/v1/graph/node/x?model=mkt"); status != http.StatusBadRequest {
		t.Fatalf("junk index: status %d, want 400", status)
	}
	if status, _, _ := post(t, ts.URL+"/v1/graph/node/0?model=mkt", nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("POST node: status %d, want 405", status)
	}
	if status, _, _ := get(t, ts.URL+"/v1/graph/node/0?model=mkt&tol=z"); status != http.StatusBadRequest {
		t.Fatalf("junk tol: status %d, want 400", status)
	}
	if status, _, _ := get(t, ts.URL+"/v1/graph/node/0"); status != http.StatusBadRequest {
		t.Fatalf("missing model: status %d, want 400", status)
	}
}

func TestGraphSummaryEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	want := directCSR(t, 0, false)

	status, _, body := get(t, ts.URL+"/v1/graph/summary?model=mkt&top=4")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp GraphSummaryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	ref := want.Summarize(4)
	if resp.Summary.Nodes != ref.Nodes || resp.Summary.Edges != ref.Edges ||
		resp.Summary.Components != ref.Components || resp.Summary.Communities != ref.Communities ||
		len(resp.Summary.Hubs) != len(ref.Hubs) {
		t.Fatalf("summary %+v, want %+v", resp.Summary, ref)
	}
	for i, h := range ref.Hubs {
		if resp.Summary.Hubs[i] != h {
			t.Fatalf("hub %d: %+v, want %+v", i, resp.Summary.Hubs[i], h)
		}
	}

	// The summary JSON is deterministic: a second server over the same
	// artifact serves byte-identical bytes (the fleet replica-agreement
	// property, locally).
	_, _, ts2 := newTestServer(t, nil)
	_, _, body2 := get(t, ts2.URL+"/v1/graph/summary?model=mkt&top=4")
	if string(body) != string(body2) {
		t.Fatal("two servers over the same artifact disagreed on summary bytes")
	}
}

// TestGraphHotSwapInvalidation: a registry Set (hot swap) bumps the
// version, so /v1/graph answers switch to the new model and the provider
// drops the stale store — no restart, no stale reads.
func TestGraphHotSwapInvalidation(t *testing.T) {
	s, _, ts := newTestServer(t, nil)

	_, _, body := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 3})
	var before GraphTopKResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if before.Version != 1 {
		t.Fatalf("version %d, want 1", before.Version)
	}
	if s.graphs.Len() != 1 {
		t.Fatalf("provider holds %d stores, want 1", s.graphs.Len())
	}

	// Hot-swap the same artifact under the same name: version bumps to 2.
	_, art, _ := fitVAR(t)
	if _, err := s.reg.Set("mkt", art, ""); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := post(t, ts.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 3})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatal("post-swap query hit the stale response cache")
	}
	var after GraphTopKResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", after.Version)
	}
	if s.graphs.Len() != 1 {
		t.Fatalf("stale store not evicted: provider holds %d", s.graphs.Len())
	}
}

// TestGraphProviderSharing: two servers sharing a provider build each
// store once.
func TestGraphProviderSharing(t *testing.T) {
	gp := NewGraphProvider(0)
	_, tr1, ts1 := newTestServer(t, func(c *Config) { c.Graphs = gp })
	_, tr2, ts2 := newTestServer(t, func(c *Config) { c.Graphs = gp })

	if status, _, body := post(t, ts1.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 3}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if status, _, body := post(t, ts2.URL+"/v1/graph/topk", GraphTopKRequest{Model: "mkt", K: 3}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	b1, b2 := tr1.Counters()["serve/graph_builds"], tr2.Counters()["serve/graph_builds"]
	h1, h2 := tr1.Counters()["serve/graph_store_hits"], tr2.Counters()["serve/graph_store_hits"]
	if b1+b2 != 1 || h1+h2 != 1 {
		t.Fatalf("builds %d+%d, store hits %d+%d; want one build total", b1, b2, h1, h2)
	}
}

// Len reports the number of cached stores (tests).
func (gp *GraphProvider) Len() int {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	return len(gp.stores)
}
