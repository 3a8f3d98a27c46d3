package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"uoivar/internal/graph"
	"uoivar/internal/model"
)

// GraphProvider builds and caches the CSR adjacency stores behind the
// /v1/graph/* endpoints. Stores are keyed by (model name, registry
// version, tol, selfLoops), so a hot-swap or reload — which bumps the
// version — silently invalidates every cached store for that model; the
// next query rebuilds from the new entry's coefficients. A provider may
// be shared by several servers (fleet replicas over one registry): all
// methods are safe for concurrent use, and because a store is a pure
// function of its key, racing builders produce interchangeable results.
type GraphProvider struct {
	mu     sync.Mutex
	stores map[graphKey]*graph.CSR
	// maxStores bounds the cache; building is cheap relative to serving,
	// so overflow just evicts arbitrary entries.
	maxStores int
}

type graphKey struct {
	name      string
	version   int
	tolBits   uint64
	selfLoops bool
}

// NewGraphProvider returns an empty provider caching up to maxStores CSR
// stores (≤ 0 selects 32).
func NewGraphProvider(maxStores int) *GraphProvider {
	if maxStores <= 0 {
		maxStores = 32
	}
	return &GraphProvider{stores: make(map[graphKey]*graph.CSR), maxStores: maxStores}
}

// Get returns the CSR store for entry's Granger network at the given
// edge threshold, building it on first use. The store is immutable and
// safe to share across requests.
func (gp *GraphProvider) Get(entry *Entry, tol float64, selfLoops bool) (*graph.CSR, bool, error) {
	key := graphKey{entry.Name, entry.Version, math.Float64bits(tol), selfLoops}
	gp.mu.Lock()
	if g, ok := gp.stores[key]; ok {
		gp.mu.Unlock()
		return g, true, nil
	}
	gp.mu.Unlock()

	// Build outside the lock: extraction walks every coefficient, and a
	// concurrent builder for the same key computes the identical store.
	edges, err := entry.Pred.Edges(tol, selfLoops)
	if err != nil {
		return nil, false, err
	}
	g, err := graph.FromGranger(entry.Pred.P(), edges)
	if err != nil {
		return nil, false, err
	}

	gp.mu.Lock()
	defer gp.mu.Unlock()
	if prev, ok := gp.stores[key]; ok {
		return prev, true, nil
	}
	// Drop every stale version of this model before inserting — a
	// hot-swapped model's old stores can never be queried again.
	for k := range gp.stores {
		if k.name == key.name && k.version != key.version {
			delete(gp.stores, k)
		}
	}
	if len(gp.stores) >= gp.maxStores {
		for k := range gp.stores {
			delete(gp.stores, k)
			if len(gp.stores) < gp.maxStores {
				break
			}
		}
	}
	gp.stores[key] = g
	return g, false, nil
}

// ---- Wire types ----

// GraphTopKRequest is the /v1/graph/topk body.
type GraphTopKRequest struct {
	Model string `json:"model"` // registered model to query
	// K caps the returned edges (0 selects 100).
	K int `json:"k"`
	// Tol is the |coefficient| threshold for an edge.
	Tol float64 `json:"tol"`
	// SelfLoops includes i→i edges in the graph.
	SelfLoops bool `json:"self_loops"`
}

// GraphTopKResponse is the /v1/graph/topk reply: the K strongest edges by
// |weight|, deterministically ordered (|weight| desc, ties by source then
// target asc).
type GraphTopKResponse struct {
	Model   string `json:"model"`   // echoed model name
	Version int    `json:"version"` // registry version that answered
	Nodes   int    `json:"nodes"`   // node count of the graph
	// TotalEdges is the graph's full edge count; len(Edges) ≤ min(K, TotalEdges).
	TotalEdges int `json:"total_edges"`
	// Edges are the strongest edges in ranking order.
	Edges []Edge `json:"edges"`
}

// GraphNodeResponse is the /v1/graph/node/{i} reply: one node's influence
// summary plus its strongest incident edges in each direction.
type GraphNodeResponse struct {
	// Model echoes the queried model name.
	Model string `json:"model"`
	// Version is the registry version that answered.
	Version int `json:"version"`
	// Node is the node's degree/strength summary.
	Node graph.NodeStats `json:"node"`
	// OutEdges are the node's outgoing edges, strongest first, capped by
	// the request's limit.
	OutEdges []Edge `json:"out_edges"`
	// InEdges are the node's incoming edges, strongest first, capped by
	// the request's limit.
	InEdges []Edge `json:"in_edges"`
}

// GraphSummaryResponse is the /v1/graph/summary reply.
type GraphSummaryResponse struct {
	// Model echoes the queried model name.
	Model string `json:"model"`
	// Version is the registry version that answered.
	Version int `json:"version"`
	// Summary is the whole-network report.
	Summary graph.Summary `json:"summary"`
}

// ---- Handlers ----

// graphEntry resolves the model named in a graph query, mapping the usual
// failure modes to their HTTP statuses. A nil return means the error was
// already written.
func (s *Server) graphEntry(w http.ResponseWriter, name string) *Entry {
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing model name")
		return nil
	}
	entry := s.reg.Get(name)
	if entry == nil {
		s.writeError(w, http.StatusNotFound, "model %q not found", name)
		return nil
	}
	return entry
}

// graphStore fetches (or builds) the CSR store for a query and keeps the
// build counters honest. A nil return means the error was already written.
func (s *Server) graphStore(w http.ResponseWriter, entry *Entry, tol float64, selfLoops bool) *graph.CSR {
	if tol < 0 {
		s.writeError(w, http.StatusBadRequest, "tol must be ≥ 0, got %g", tol)
		return nil
	}
	g, cached, err := s.graphs.Get(entry, tol, selfLoops)
	if err != nil {
		status := http.StatusBadRequest
		if !isClientModelError(err) {
			status = http.StatusInternalServerError
		}
		s.writeError(w, status, "%v", err)
		return nil
	}
	if cached {
		s.tracer.Add("serve/graph_store_hits", 1)
	} else {
		s.tracer.Add("serve/graph_builds", 1)
	}
	return g
}

// isClientModelError distinguishes "you asked the wrong kind of model"
// (400) from an internal build failure (500).
func isClientModelError(err error) bool {
	return err != nil && strings.Contains(err.Error(), model.ErrKind.Error())
}

func graphEdgesToWire(edges []graph.Edge) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{Source: e.From, Target: e.To, Weight: e.Weight}
	}
	return out
}

func (s *Server) handleGraphTopK(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/graph/topk", http.MethodPost, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		body, err := s.readBody(w, r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var req GraphTopKRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		entry := s.graphEntry(w, req.Model)
		if entry == nil {
			return
		}
		if req.K < 0 {
			s.writeError(w, http.StatusBadRequest, "k must be ≥ 0, got %d", req.K)
			return
		}
		if req.K == 0 {
			req.K = 100
		}
		key := cacheKey("graph/topk", entry, body)
		if cached, ok := s.cache.Get(key); ok {
			s.tracer.Add("serve/cache_hits", 1)
			w.Header().Set("X-Cache", "hit")
			s.writeBody(w, http.StatusOK, cached)
			return
		}
		s.tracer.Add("serve/cache_misses", 1)
		g := s.graphStore(w, entry, req.Tol, req.SelfLoops)
		if g == nil {
			return
		}
		resp := GraphTopKResponse{
			Model: entry.Name, Version: entry.Version,
			Nodes: g.N, TotalEdges: g.NumEdges(),
			Edges: graphEdgesToWire(g.TopK(req.K)),
		}
		s.finishGraph(w, key, resp)
	})(w, r)
}

// handleGraphNode serves GET /v1/graph/node/{i}?model=NAME[&tol=][&limit=]
// [&self_loops=]. The node index lives in the path; everything else in the
// query string, mirroring /v1/stream/status's GET conventions.
func (s *Server) handleGraphNode(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/graph/node", http.MethodGet, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		node, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/v1/graph/node/"))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "node index: %v", err)
			return
		}
		q, err := parseGraphQuery(r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		entry := s.graphEntry(w, q.model)
		if entry == nil {
			return
		}
		key := cacheKey("graph/node", entry, []byte(fmt.Sprintf("%d|%x|%v|%d", node, math.Float64bits(q.tol), q.selfLoops, q.limit)))
		if cached, ok := s.cache.Get(key); ok {
			s.tracer.Add("serve/cache_hits", 1)
			w.Header().Set("X-Cache", "hit")
			s.writeBody(w, http.StatusOK, cached)
			return
		}
		s.tracer.Add("serve/cache_misses", 1)
		g := s.graphStore(w, entry, q.tol, q.selfLoops)
		if g == nil {
			return
		}
		if node < 0 || node >= g.N {
			s.writeError(w, http.StatusNotFound, "node %d outside [0, %d)", node, g.N)
			return
		}
		resp := GraphNodeResponse{
			Model: entry.Name, Version: entry.Version,
			Node:     g.Node(node),
			OutEdges: graphEdgesToWire(g.OutEdges(node, q.limit)),
			InEdges:  graphEdgesToWire(g.InEdges(node, q.limit)),
		}
		s.finishGraph(w, key, resp)
	})(w, r)
}

func (s *Server) handleGraphSummary(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/graph/summary", http.MethodGet, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		q, err := parseGraphQuery(r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		entry := s.graphEntry(w, q.model)
		if entry == nil {
			return
		}
		key := cacheKey("graph/summary", entry, []byte(fmt.Sprintf("%x|%v|%d", math.Float64bits(q.tol), q.selfLoops, q.limit)))
		if cached, ok := s.cache.Get(key); ok {
			s.tracer.Add("serve/cache_hits", 1)
			w.Header().Set("X-Cache", "hit")
			s.writeBody(w, http.StatusOK, cached)
			return
		}
		s.tracer.Add("serve/cache_misses", 1)
		g := s.graphStore(w, entry, q.tol, q.selfLoops)
		if g == nil {
			return
		}
		resp := GraphSummaryResponse{
			Model: entry.Name, Version: entry.Version,
			Summary: g.Summarize(q.limit),
		}
		s.finishGraph(w, key, resp)
	})(w, r)
}

// finishGraph marshals, caches, and writes a graph reply — the shared tail
// of every miss path.
func (s *Server) finishGraph(w http.ResponseWriter, key string, resp any) {
	out, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	s.cache.Put(key, out)
	s.tracer.Add("serve/graph_queries", 1)
	w.Header().Set("X-Cache", "miss")
	s.writeBody(w, http.StatusOK, out)
}

// graphQuery holds the query-string parameters the GET graph endpoints
// share: ?model= (required), ?tol= (edge threshold, default 0),
// ?self_loops= (default false), and ?limit= / ?top= (edge or hub cap,
// default 50).
type graphQuery struct {
	model     string
	tol       float64
	selfLoops bool
	limit     int
}

func parseGraphQuery(r *http.Request) (graphQuery, error) {
	q := graphQuery{model: r.URL.Query().Get("model"), limit: 50}
	if v := r.URL.Query().Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("tol: %v", err)
		}
		q.tol = f
	}
	if v := r.URL.Query().Get("self_loops"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("self_loops: %v", err)
		}
		q.selfLoops = b
	}
	for _, name := range []string{"limit", "top"} {
		if v := r.URL.Query().Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return q, fmt.Errorf("%s: want a non-negative integer, got %q", name, v)
			}
			q.limit = n
		}
	}
	return q, nil
}
