package graph

import (
	"strings"
	"testing"
)

func buildSample(t *testing.T) (*CSR, []string) {
	t.Helper()
	g := mustBuild(t, 4, []Edge{{1, 0, 0.5}, {2, 0, 0.3}, {3, 2, 0.9}}, DupLast)
	return g, []string{"GOOG", "AAPL", "MSFT", "XOM"}
}

func TestDegrees(t *testing.T) {
	g, _ := buildSample(t)
	var in, out, deg [4]int
	for i := range deg {
		s := g.Node(i)
		in[i], out[i], deg[i] = s.InDegree, s.OutDegree, s.InDegree+s.OutDegree
	}
	if in[0] != 2 || in[2] != 1 || in[1] != 0 {
		t.Fatalf("in = %v", in)
	}
	if out[1] != 1 || out[3] != 1 || out[0] != 0 {
		t.Fatalf("out = %v", out)
	}
	if deg[0] != 2 || deg[2] != 2 || deg[1] != 1 {
		t.Fatalf("deg = %v", deg)
	}
}

func TestDensityAndCount(t *testing.T) {
	g, _ := buildSample(t)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if want := 3.0 / 12.0; g.Density() != want {
		t.Fatalf("density = %v", g.Density())
	}
	if mustBuild(t, 1, nil, DupLast).Density() != 0 {
		t.Fatal("single node density must be 0")
	}
}

func TestDOTOutput(t *testing.T) {
	g, labels := buildSample(t)
	dot := g.DOT("sp500", labels)
	for _, want := range []string{
		`digraph "sp500"`,
		`"AAPL" -> "GOOG"`,
		`"XOM" -> "MSFT"`,
		"penwidth",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Node 1 has degree 1 so it appears; a graph with an isolated node must
	// omit it.
	g2 := mustBuild(t, 3, []Edge{{0, 1, 1}}, DupLast)
	dot2 := g2.DOT("g", nil)
	if strings.Contains(dot2, `"n2"`) {
		t.Fatal("isolated node must be omitted from DOT")
	}
}

func TestEdgeListSorted(t *testing.T) {
	g, labels := buildSample(t)
	lines := strings.Split(strings.TrimSpace(g.EdgeList(labels)), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "XOM MSFT") {
		t.Fatalf("edge list not weight-sorted: %v", lines)
	}
}

func TestUnlabeledNodes(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1, 1}}, DupLast)
	if !strings.Contains(g.DOT("g", nil), `"n0" -> "n1"`) {
		t.Fatal("default labels must be n<i>")
	}
}

// TestRenderGolden pins both renderings of a 6-node graph with an isolated
// node (JPM), an empty label (n2), a node past the label slice (n5), a
// negative weight and a weight tie, edges given out of order.
func TestRenderGolden(t *testing.T) {
	g := mustBuild(t, 6, []Edge{
		{2, 5, 1.5}, {0, 1, 0.5}, {1, 2, 0.5}, {3, 0, -0.25}, {5, 3, 0.125}, {0, 3, 0.75},
	}, DupLast)
	labels := []string{"GOOG", "AAPL", "", "XOM", "JPM"}
	const wantDOT = `digraph "golden" {
  "GOOG" [width=1.50];
  "AAPL" [width=1.10];
  "n2" [width=1.10];
  "XOM" [width=1.50];
  "n5" [width=1.10];
  "GOOG" -> "AAPL" [penwidth=1.33];
  "GOOG" -> "XOM" [penwidth=1.75];
  "AAPL" -> "n2" [penwidth=1.33];
  "n2" -> "n5" [penwidth=3.00];
  "XOM" -> "GOOG" [penwidth=0.08];
  "n5" -> "XOM" [penwidth=0.71];
}
`
	const wantEdges = `n2 n5 1.500000
GOOG XOM 0.750000
GOOG AAPL 0.500000
AAPL n2 0.500000
n5 XOM 0.125000
XOM GOOG -0.250000
`
	if got := g.DOT("golden", labels); got != wantDOT {
		t.Fatalf("DOT:\n%s\nwant:\n%s", got, wantDOT)
	}
	if got := g.EdgeList(labels); got != wantEdges {
		t.Fatalf("EdgeList:\n%s\nwant:\n%s", got, wantEdges)
	}
}

// TestWeaklyConnectedComponents: components ignore edge direction, so a
// node reached only through in-edges (0 → 1 ← 2) joins its neighbours.
func TestWeaklyConnectedComponents(t *testing.T) {
	g := mustBuild(t, 7, []Edge{
		{0, 1, 1}, {2, 1, 1}, // {0,1,2}
		{3, 4, 1}, // {3,4}
		// 5, 6 isolated
	}, DupLast)
	sizes, count := g.Components()
	if count != 4 || len(sizes) != 4 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 1 {
		t.Fatalf("components: count=%d sizes=%v", count, sizes)
	}
}
