// Package graph is the causal-network analytics layer: the directed
// weighted graph representation used to report inferred Granger-causal
// networks (paper Fig. 11, node degrees, density, DOT / edge-list export)
// plus the compact CSR adjacency store (csr.go) behind the served
// /v1/graph query endpoints — heap-based top-k edge queries, per-node
// influence scores, connected components, label-propagation communities,
// and byte-stable JSON summaries.
//
// Exports are canonical: the same edge multiset renders byte-identically
// regardless of insertion order (edges are sorted before rendering), so
// graphs accumulated from unordered map iteration still diff cleanly.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Edge is a directed weighted edge From → To.
type Edge struct {
	// From and To are the source and target node indices.
	From, To int
	// Weight is the edge weight (sign preserved; ranking uses |Weight|).
	Weight float64
}

// Directed is a directed weighted graph over nodes 0..N-1.
type Directed struct {
	// N is the node count.
	N int
	// Edges is the edge list in insertion order (duplicates allowed).
	Edges []Edge
	// Labels optionally names nodes (e.g. company tickers); missing entries
	// render as node indices.
	Labels []string
}

// New creates an empty graph with n nodes.
func New(n int) *Directed { return &Directed{N: n} }

// AddEdge appends a directed edge. Duplicate (From, To) pairs are allowed
// and counted separately until resolved — Build takes an explicit
// DupPolicy to collapse them; exports render duplicates as separate lines
// (in canonical order) rather than silently picking one.
func (g *Directed) AddEdge(from, to int, w float64) {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		panic(fmt.Sprintf("graph: edge (%d→%d) outside %d nodes", from, to, g.N))
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Weight: w})
}

// canonicalEdges returns a copy of the edge list sorted by (From, To,
// Weight) — the order every export renders in, so output bytes do not
// depend on insertion (e.g. map-iteration) order.
func (g *Directed) canonicalEdges() []Edge {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		if edges[a].To != edges[b].To {
			return edges[a].To < edges[b].To
		}
		return edges[a].Weight < edges[b].Weight
	})
	return edges
}

// NumEdges returns the edge count.
func (g *Directed) NumEdges() int { return len(g.Edges) }

// Density returns |E| / (N·(N−1)), the fraction of possible directed edges
// (self-loops excluded from the denominator).
func (g *Directed) Density() float64 {
	if g.N <= 1 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.N*(g.N-1))
}

// InDegree returns per-node in-degrees.
func (g *Directed) InDegree() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e.To]++
	}
	return d
}

// OutDegree returns per-node out-degrees.
func (g *Directed) OutDegree() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e.From]++
	}
	return d
}

// Degree returns total (in+out) degrees — the quantity Fig. 11 scales node
// sizes by.
func (g *Directed) Degree() []int {
	d := g.InDegree()
	for i, o := range g.OutDegree() {
		d[i] += o
	}
	return d
}

// TopByDegree returns the k node indices with the highest total degree,
// ties broken by index.
func (g *Directed) TopByDegree(k int) []int {
	deg := g.Degree()
	idx := make([]int, g.N)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if deg[idx[a]] != deg[idx[b]] {
			return deg[idx[a]] > deg[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// label returns the display name of node i.
func (g *Directed) label(i int) string {
	if i < len(g.Labels) && g.Labels[i] != "" {
		return g.Labels[i]
	}
	return fmt.Sprintf("n%d", i)
}

// DOT renders the graph in Graphviz format with node sizes proportional to
// degree and edge pen widths proportional to weight, matching the paper's
// Fig. 11 conventions.
func (g *Directed) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	deg := g.Degree()
	maxDeg := 1
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	maxW := 0.0
	for _, e := range g.Edges {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	for i := 0; i < g.N; i++ {
		if deg[i] == 0 {
			continue // isolated nodes clutter the figure
		}
		size := 0.3 + 1.2*float64(deg[i])/float64(maxDeg)
		fmt.Fprintf(&b, "  %q [width=%.2f];\n", g.label(i), size)
	}
	for _, e := range g.canonicalEdges() {
		fmt.Fprintf(&b, "  %q -> %q [penwidth=%.2f];\n", g.label(e.From), g.label(e.To), 0.5+2.5*e.Weight/maxW)
	}
	b.WriteString("}\n")
	return b.String()
}

// EdgeList renders "from to weight" lines sorted by weight descending,
// ties broken by (From, To) ascending — a total order, so the
// output is byte-identical for the same edge multiset regardless of
// insertion order.
func (g *Directed) EdgeList() string {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].Weight != edges[b].Weight {
			return edges[a].Weight > edges[b].Weight
		}
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%s %s %.6f\n", g.label(e.From), g.label(e.To), e.Weight)
	}
	return b.String()
}

// WeaklyConnectedComponents returns the node sets of the weakly connected
// components (edge direction ignored), largest first. Isolated nodes form
// singleton components.
func (g *Directed) WeaklyConnectedComponents() [][]int {
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, g.N)
	var comps [][]int
	for start := 0; start < g.N; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool {
		if len(comps[a]) != len(comps[b]) {
			return len(comps[a]) > len(comps[b])
		}
		return comps[a][0] < comps[b][0]
	})
	return comps
}

// Reciprocity returns the fraction of directed edges whose reverse edge is
// also present (0 for an empty graph). Granger networks are typically far
// from symmetric; high reciprocity flags either genuine feedback loops or
// over-selection.
func (g *Directed) Reciprocity() float64 {
	if len(g.Edges) == 0 {
		return 0
	}
	has := make(map[[2]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		has[[2]int{e.From, e.To}] = true
	}
	recip := 0
	for _, e := range g.Edges {
		if has[[2]int{e.To, e.From}] {
			recip++
		}
	}
	return float64(recip) / float64(len(g.Edges))
}
