// Package graph is the causal-network analytics layer. An inferred
// Granger-causal network (paper Fig. 11) is held in one type, the compact
// CSR adjacency store (csr.go), which answers everything asked of it:
// degree and strength per node, density, reciprocity, connected
// components, label-propagation communities, heap-based top-k edge queries
// and byte-stable JSON summaries behind the served /v1/graph endpoints,
// plus the DOT / edge-list renderings of the figure.
//
// Exports are canonical: Build sorts the edges, so the same edge set
// renders byte-identically regardless of insertion order, and graphs
// accumulated from unordered map iteration still diff cleanly.
package graph

import (
	"fmt"
	"strings"

	"uoivar/internal/varsim"
)

// Edge is a directed weighted edge From → To.
type Edge struct {
	// From and To are the source and target node indices.
	From, To int
	// Weight is the edge weight (sign preserved; ranking uses |Weight|).
	Weight float64
}

// FromGranger builds the store for a Granger network over p series. The
// extracted edge set never repeats a (source, target) pair, so the DupLast
// policy drops nothing.
func FromGranger(p int, edges []varsim.GrangerEdge) (*CSR, error) {
	ge := make([]Edge, len(edges))
	for i, e := range edges {
		ge[i] = Edge{From: e.Source, To: e.Target, Weight: e.Weight}
	}
	return Build(p, ge, DupLast)
}

// label returns the display name of node i: labels[i] when present and
// non-empty, else "n<i>".
func label(labels []string, i int) string {
	if i < len(labels) && labels[i] != "" {
		return labels[i]
	}
	return fmt.Sprintf("n%d", i)
}

// DOT renders the graph in Graphviz format with node sizes proportional to
// degree and edge pen widths proportional to weight, matching the paper's
// Fig. 11 conventions. labels optionally names nodes (e.g. company
// tickers); missing entries render as "n<i>".
func (g *CSR) DOT(name string, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	deg := make([]int, g.N)
	maxDeg := 1
	for i := range deg {
		deg[i] = int(g.outPtr[i+1] - g.outPtr[i] + g.inPtr[i+1] - g.inPtr[i])
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	maxW := 0.0
	for _, w := range g.outW {
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	for i, d := range deg {
		if d == 0 {
			continue // isolated nodes clutter the figure
		}
		fmt.Fprintf(&b, "  %q [width=%.2f];\n", label(labels, i), 0.3+1.2*float64(d)/float64(maxDeg))
	}
	for src := 0; src < g.N; src++ {
		for e := g.outPtr[src]; e < g.outPtr[src+1]; e++ {
			fmt.Fprintf(&b, "  %q -> %q [penwidth=%.2f];\n",
				label(labels, src), label(labels, int(g.outCol[e])), 0.5+2.5*g.outW[e]/maxW)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// EdgeList renders "from to weight" lines in ranking order: weight
// descending, ties broken by (From, To) ascending.
func (g *CSR) EdgeList(labels []string) string {
	var b strings.Builder
	for _, e := range g.TopK(g.NumEdges()) {
		fmt.Fprintf(&b, "%s %s %.6f\n", label(labels, e.From), label(labels, e.To), e.Weight)
	}
	return b.String()
}
