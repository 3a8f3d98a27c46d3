package graph

import (
	"strings"
	"testing"
)

func buildSample() *Directed {
	g := New(4)
	g.Labels = []string{"GOOG", "AAPL", "MSFT", "XOM"}
	g.AddEdge(1, 0, 0.5)
	g.AddEdge(2, 0, 0.3)
	g.AddEdge(3, 2, 0.9)
	return g
}

func TestDegrees(t *testing.T) {
	g := buildSample()
	in := g.InDegree()
	out := g.OutDegree()
	deg := g.Degree()
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
	g := buildSample()
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if want := 3.0 / 12.0; g.Density() != want {
		t.Fatalf("density = %v", g.Density())
	}
	if New(1).Density() != 0 {
		t.Fatal("single node density must be 0")
	}
}

func TestTopByDegree(t *testing.T) {
	g := buildSample()
	top := g.TopByDegree(2)
	if len(top) != 2 || top[0] != 0 || top[1] != 2 {
		t.Fatalf("top = %v", top)
	}
	all := g.TopByDegree(99)
	if len(all) != 4 {
		t.Fatalf("top overflow = %v", all)
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildSample()
	dot := g.DOT("sp500")
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
	g2 := New(3)
	g2.AddEdge(0, 1, 1)
	dot2 := g2.DOT("g")
	if strings.Contains(dot2, `"n2"`) {
		t.Fatal("isolated node must be omitted from DOT")
	}
}

func TestEdgeListSorted(t *testing.T) {
	g := buildSample()
	lines := strings.Split(strings.TrimSpace(g.EdgeList()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "XOM MSFT") {
		t.Fatalf("edge list not weight-sorted: %v", lines)
	}
}

func TestAddEdgeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge must panic")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

func TestUnlabeledNodes(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if !strings.Contains(g.DOT("g"), `"n0" -> "n1"`) {
		t.Fatal("default labels must be n<i>")
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 1, 1) // {0,1,2}
	g.AddEdge(3, 4, 1) // {3,4}
	// 5, 6 isolated
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("largest component = %v", comps[0])
	}
	if len(comps[1]) != 2 {
		t.Fatalf("second component = %v", comps[1])
	}
}

func TestReciprocity(t *testing.T) {
	g := New(3)
	if g.Reciprocity() != 0 {
		t.Fatal("empty graph reciprocity must be 0")
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.AddEdge(1, 2, 1)
	if r := g.Reciprocity(); r != 2.0/3.0 {
		t.Fatalf("reciprocity = %v", r)
	}
}
