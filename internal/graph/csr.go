package graph

import (
	"container/heap"
	"fmt"
	"sort"
)

// DupPolicy says how duplicate directed edges (same From and To) are
// resolved when a graph is compacted into a CSR store. Duplicates arise
// when callers accumulate edges from several sources (e.g. per-lag
// coefficient matrices) without deduping upstream.
type DupPolicy int

const (
	// DupLast keeps the weight of the last duplicate in insertion order —
	// the implicit behavior of a map[edge]weight built by overwriting.
	// Note this policy is insertion-order dependent by definition; use
	// DupSum when edges come from unordered (map) iteration.
	DupLast DupPolicy = iota
	// DupSum sums the duplicate weights — the right policy for edges
	// accumulated from unordered (map) iteration, where "last" is
	// meaningless. Independent of insertion order up to floating-point
	// association.
	DupSum
)

// CSR is the compact adjacency store behind the causal-graph query layer:
// a directed weighted graph over nodes 0..N-1 held as two sorted
// compressed-sparse-row indexes (by source for out-edge queries, by target
// for in-edge queries). CSR is immutable after Build and safe for
// concurrent readers — the property the serving tier relies on when many
// /v1/graph requests share one store.
type CSR struct {
	// N is the node count.
	N int

	outPtr []int32   // len N+1; out-edges of node i live at [outPtr[i], outPtr[i+1])
	outCol []int32   // edge targets, sorted by (source, target)
	outW   []float64 // edge weights, parallel to outCol

	inPtr []int32   // len N+1; in-edges of node i live at [inPtr[i], inPtr[i+1])
	inSrc []int32   // edge sources, sorted by (target, source)
	inW   []float64 // edge weights, parallel to inSrc
}

// Build compacts an edge list into a CSR store. Edges must reference nodes
// in [0, n); duplicates are resolved per policy. The resulting store is
// canonical: the same edge multiset produces byte-identical internal
// arrays regardless of input order (DupLast excepted — it is
// insertion-order dependent by definition).
func Build(n int, edges []Edge, policy DupPolicy) (*CSR, error) {
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d→%d) outside %d nodes", e.From, e.To, n)
		}
	}
	// Dedupe before sorting so DupLast sees insertion order.
	dedup := make([]Edge, 0, len(edges))
	seen := make(map[[2]int]int, len(edges))
	for _, e := range edges {
		key := [2]int{e.From, e.To}
		if at, ok := seen[key]; ok {
			switch policy {
			case DupSum:
				dedup[at].Weight += e.Weight
			default: // DupLast
				dedup[at].Weight = e.Weight
			}
			continue
		}
		seen[key] = len(dedup)
		dedup = append(dedup, e)
	}
	sort.Slice(dedup, func(a, b int) bool {
		if dedup[a].From != dedup[b].From {
			return dedup[a].From < dedup[b].From
		}
		return dedup[a].To < dedup[b].To
	})
	g := &CSR{
		N:      n,
		outPtr: make([]int32, n+1),
		outCol: make([]int32, len(dedup)),
		outW:   make([]float64, len(dedup)),
		inPtr:  make([]int32, n+1),
		inSrc:  make([]int32, len(dedup)),
		inW:    make([]float64, len(dedup)),
	}
	for i, e := range dedup {
		g.outPtr[e.From+1]++
		g.inPtr[e.To+1]++
		g.outCol[i] = int32(e.To)
		g.outW[i] = e.Weight
	}
	for i := 0; i < n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
		g.inPtr[i+1] += g.inPtr[i]
	}
	// Fill the in-index with a counting pass over the (already sorted by
	// source) edge list; within a target the sources arrive ascending, so
	// the in-index ends up sorted by (target, source) with no extra sort.
	next := make([]int32, n)
	copy(next, g.inPtr[:n])
	for _, e := range dedup {
		at := next[e.To]
		g.inSrc[at] = int32(e.From)
		g.inW[at] = e.Weight
		next[e.To]++
	}
	return g, nil
}

// NumEdges returns the (deduplicated) edge count.
func (g *CSR) NumEdges() int { return len(g.outCol) }

// Density returns |E| / (N·(N−1)), self-loops excluded from the
// denominator.
func (g *CSR) Density() float64 {
	if g.N <= 1 {
		return 0
	}
	return float64(len(g.outCol)) / float64(g.N*(g.N-1))
}

// Edge i of the canonical (source, target)-sorted order.
func (g *CSR) edgeAt(src int, k int32) Edge {
	return Edge{From: src, To: int(g.outCol[k]), Weight: g.outW[k]}
}

// edgeLess is the top-k / ranking order: weight descending, then source
// ascending, then target ascending. A total order, so every query that
// ranks edges is deterministic.
func edgeLess(a, b Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// edgeMinHeap keeps the k best edges seen so far with the worst at the
// root, so each new candidate costs O(log k) against the full-sort's
// O(E log E).
type edgeMinHeap []Edge

func (h edgeMinHeap) Len() int            { return len(h) }
func (h edgeMinHeap) Less(a, b int) bool  { return edgeLess(h[b], h[a]) }
func (h edgeMinHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *edgeMinHeap) Push(x any)         { *h = append(*h, x.(Edge)) }
func (h *edgeMinHeap) Pop() any           { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h edgeMinHeap) worst() Edge         { return h[0] }
func (h edgeMinHeap) replaceWorst(e Edge) { h[0] = e; heap.Fix(&h, 0) }

// TopK returns the k strongest edges in ranking order (weight descending,
// ties by source then target) via a size-k min-heap — O(E log k) rather
// than sorting all E edges. k ≥ NumEdges returns every edge ranked.
func (g *CSR) TopK(k int) []Edge {
	if k <= 0 {
		return []Edge{}
	}
	if k > len(g.outCol) {
		k = len(g.outCol)
	}
	h := make(edgeMinHeap, 0, k)
	for src := 0; src < g.N; src++ {
		for e := g.outPtr[src]; e < g.outPtr[src+1]; e++ {
			cand := g.edgeAt(src, e)
			if len(h) < k {
				heap.Push(&h, cand)
				continue
			}
			if edgeLess(cand, h.worst()) {
				h.replaceWorst(cand)
			}
		}
	}
	out := []Edge(h)
	sort.Slice(out, func(a, b int) bool { return edgeLess(out[a], out[b]) })
	return out
}

// OutEdges returns node i's out-edges in ranking order, capped at limit
// (limit ≤ 0 returns all).
func (g *CSR) OutEdges(i, limit int) []Edge {
	out := make([]Edge, 0, g.outPtr[i+1]-g.outPtr[i])
	for e := g.outPtr[i]; e < g.outPtr[i+1]; e++ {
		out = append(out, g.edgeAt(i, e))
	}
	sort.Slice(out, func(a, b int) bool { return edgeLess(out[a], out[b]) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// InEdges returns node i's in-edges in ranking order, capped at limit
// (limit ≤ 0 returns all).
func (g *CSR) InEdges(i, limit int) []Edge {
	out := make([]Edge, 0, g.inPtr[i+1]-g.inPtr[i])
	for e := g.inPtr[i]; e < g.inPtr[i+1]; e++ {
		out = append(out, Edge{From: int(g.inSrc[e]), To: i, Weight: g.inW[e]})
	}
	sort.Slice(out, func(a, b int) bool { return edgeLess(out[a], out[b]) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// NodeStats is the per-node influence summary: degree counts plus
// strength — the sum of |weight| over incident edges, the standard
// weighted-degree influence score (out-strength: how strongly the node
// drives the network; in-strength: how strongly it is driven).
type NodeStats struct {
	// Node is the node index.
	Node int `json:"node"`
	// OutDegree counts outgoing edges.
	OutDegree int `json:"out_degree"`
	// InDegree counts incoming edges.
	InDegree int `json:"in_degree"`
	// OutStrength sums |weight| over outgoing edges.
	OutStrength float64 `json:"out_strength"`
	// InStrength sums |weight| over incoming edges.
	InStrength float64 `json:"in_strength"`
}

// Node returns node i's influence summary. Strengths sum |weight| in CSR
// (sorted) order, so repeated calls are bit-identical.
func (g *CSR) Node(i int) NodeStats {
	s := NodeStats{Node: i}
	for e := g.outPtr[i]; e < g.outPtr[i+1]; e++ {
		s.OutDegree++
		s.OutStrength += abs(g.outW[e])
	}
	for e := g.inPtr[i]; e < g.inPtr[i+1]; e++ {
		s.InDegree++
		s.InStrength += abs(g.inW[e])
	}
	return s
}

// TopNodes ranks nodes by total strength (out + in), ties by index, and
// returns the top k stats — the "hubs" a summary reports.
func (g *CSR) TopNodes(k int) []NodeStats {
	if k <= 0 {
		return []NodeStats{}
	}
	all := make([]NodeStats, g.N)
	for i := 0; i < g.N; i++ {
		all[i] = g.Node(i)
	}
	sort.Slice(all, func(a, b int) bool {
		sa := all[a].OutStrength + all[a].InStrength
		sb := all[b].OutStrength + all[b].InStrength
		if sa != sb {
			return sa > sb
		}
		return all[a].Node < all[b].Node
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Components returns the weakly connected component sizes, largest first
// (ties by smallest member), and the total component count. Isolated
// nodes form singleton components.
func (g *CSR) Components() (sizes []int, count int) {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for start := 0; start < g.N; start++ {
		if comp[start] >= 0 {
			continue
		}
		size := 0
		comp[start] = count
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			v := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			size++
			for e := g.outPtr[v]; e < g.outPtr[v+1]; e++ {
				if w := int(g.outCol[e]); comp[w] < 0 {
					comp[w] = count
					stack = append(stack, g.outCol[e])
				}
			}
			for e := g.inPtr[v]; e < g.inPtr[v+1]; e++ {
				if w := int(g.inSrc[e]); comp[w] < 0 {
					comp[w] = count
					stack = append(stack, g.inSrc[e])
				}
			}
		}
		sizes = append(sizes, size)
		count++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes, count
}

// Communities clusters nodes by asynchronous label propagation on the
// undirected |weight| graph: nodes adopt the incident label with the
// largest total weight, swept in node order for at most maxIter sweeps
// (ties go to the smallest label, so the run is deterministic). Labels
// are normalized to 0..k-1 in first-appearance order. maxIter ≤ 0 selects
// 16 sweeps; convergence usually takes 2-4.
func (g *CSR) Communities(maxIter int) []int {
	if maxIter <= 0 {
		maxIter = 16
	}
	labels := make([]int, g.N)
	for i := range labels {
		labels[i] = i
	}
	score := map[int]float64{}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := 0; i < g.N; i++ {
			for k := range score {
				delete(score, k)
			}
			for e := g.outPtr[i]; e < g.outPtr[i+1]; e++ {
				score[labels[g.outCol[e]]] += abs(g.outW[e])
			}
			for e := g.inPtr[i]; e < g.inPtr[i+1]; e++ {
				score[labels[g.inSrc[e]]] += abs(g.inW[e])
			}
			if len(score) == 0 {
				continue // isolated node keeps its own label
			}
			best, bestScore := labels[i], 0.0
			if s, ok := score[best]; ok {
				bestScore = s
			} else {
				best = -1
			}
			for l, s := range score {
				if best < 0 || s > bestScore || (s == bestScore && l < best) {
					best, bestScore = l, s
				}
			}
			if best != labels[i] {
				labels[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Normalize to dense ids in first-appearance order.
	remap := make(map[int]int, g.N)
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = len(remap)
			remap[l] = id
		}
		labels[i] = id
	}
	return labels
}

// Reciprocity returns the fraction of edges whose reverse edge is present
// (0 for an empty graph).
func (g *CSR) Reciprocity() float64 {
	if len(g.outCol) == 0 {
		return 0
	}
	recip := 0
	for src := 0; src < g.N; src++ {
		for e := g.outPtr[src]; e < g.outPtr[src+1]; e++ {
			if g.hasEdge(int(g.outCol[e]), src) {
				recip++
			}
		}
	}
	return float64(recip) / float64(len(g.outCol))
}

// hasEdge reports whether from→to exists, via binary search on the sorted
// out-row.
func (g *CSR) hasEdge(from, to int) bool {
	lo, hi := int(g.outPtr[from]), int(g.outPtr[from+1])
	at := lo + sort.Search(hi-lo, func(k int) bool { return g.outCol[lo+k] >= int32(to) })
	return at < hi && g.outCol[at] == int32(to)
}

// Summary is the whole-network report served by /v1/graph/summary: sizes,
// density, reciprocity, component and community structure, and the top
// hub nodes by total strength. All slices are deterministically ordered,
// so the JSON encoding of the same graph is byte-stable.
type Summary struct {
	// Nodes is the node count.
	Nodes int `json:"nodes"`
	// Edges is the edge count after dedup.
	Edges int `json:"edges"`
	// Density is |E| / (N·(N−1)).
	Density float64 `json:"density"`
	// Reciprocity is the mutual-edge fraction.
	Reciprocity float64 `json:"reciprocity"`
	// Components counts weakly connected components.
	Components int `json:"components"`
	// ComponentSizes lists the largest components (capped at the hub cap).
	ComponentSizes []int `json:"component_sizes"`
	// Communities counts label-propagation clusters.
	Communities int `json:"communities"`
	// CommunitySizes lists the largest clusters (capped at the hub cap).
	CommunitySizes []int `json:"community_sizes"`
	// Hubs are the top nodes by total (in+out) strength.
	Hubs []NodeStats `json:"hubs"`
}

// Summarize computes the whole-network Summary with at most topHubs hub
// rows (topHubs ≤ 0 selects 10).
func (g *CSR) Summarize(topHubs int) Summary {
	if topHubs <= 0 {
		topHubs = 10
	}
	compSizes, compCount := g.Components()
	labels := g.Communities(0)
	nComm := 0
	for _, l := range labels {
		if l+1 > nComm {
			nComm = l + 1
		}
	}
	commSizes := make([]int, nComm)
	for _, l := range labels {
		commSizes[l]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(commSizes)))
	capN := func(s []int) []int {
		if len(s) > topHubs {
			s = s[:topHubs]
		}
		return s
	}
	return Summary{
		Nodes:          g.N,
		Edges:          g.NumEdges(),
		Density:        g.Density(),
		Reciprocity:    g.Reciprocity(),
		Components:     compCount,
		ComponentSizes: capN(compSizes),
		Communities:    nComm,
		CommunitySizes: capN(commSizes),
		Hubs:           g.TopNodes(topHubs),
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
