package graph

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomEdges draws a random simple directed graph (no duplicate pairs)
// with roughly density·n·(n−1) edges and weights in (0, 1].
func randomEdges(rng *rand.Rand, n int, density float64) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			edges = append(edges, Edge{From: i, To: j, Weight: rng.Float64()})
		}
	}
	return edges
}

func mustBuild(t *testing.T, n int, edges []Edge, policy DupPolicy) *CSR {
	t.Helper()
	g, err := Build(n, edges, policy)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestTopKMatchesFullSort is the satellite property test: on random
// graphs, the heap-based TopK must return exactly the first k edges of
// the full sort under the ranking order.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		edges := randomEdges(rng, n, 0.05+0.5*rng.Float64())
		g := mustBuild(t, n, edges, DupLast)

		full := make([]Edge, len(edges))
		copy(full, edges)
		sort.Slice(full, func(a, b int) bool { return edgeLess(full[a], full[b]) })

		for _, k := range []int{0, 1, 3, len(edges) / 2, len(edges), len(edges) + 5} {
			got := g.TopK(k)
			want := full
			if k < len(want) {
				want = want[:k]
			}
			if k <= 0 {
				want = []Edge{}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d edge %d: %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInfluenceSumsConsistent is the satellite property test: total
// out-strength, total in-strength (per-node Node() stats), and the summed
// |weight| over the edge list must agree on random graphs.
func TestInfluenceSumsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		edges := randomEdges(rng, n, 0.4)
		g := mustBuild(t, n, edges, DupLast)

		var sumOut, sumIn, sumEdges float64
		for i := 0; i < n; i++ {
			st := g.Node(i)
			sumOut += st.OutStrength
			sumIn += st.InStrength
			if st.OutDegree != int(g.outPtr[i+1]-g.outPtr[i]) {
				t.Fatalf("trial %d node %d: out-degree mismatch", trial, i)
			}
		}
		for _, e := range edges {
			sumEdges += math.Abs(e.Weight)
		}
		tol := 1e-9 * (1 + sumEdges)
		if math.Abs(sumOut-sumEdges) > tol || math.Abs(sumIn-sumEdges) > tol {
			t.Fatalf("trial %d: strength totals out=%v in=%v edges=%v", trial, sumOut, sumIn, sumEdges)
		}
	}
}

func TestBuildValidatesAndDedupes(t *testing.T) {
	if _, err := Build(3, []Edge{{From: 0, To: 5, Weight: 1}}, DupLast); err == nil {
		t.Fatal("out-of-range edge must be rejected")
	}
	dups := []Edge{{0, 1, 1.0}, {0, 1, 2.0}, {0, 1, 3.0}}
	last := mustBuild(t, 2, dups, DupLast)
	if last.NumEdges() != 1 || last.outW[0] != 3.0 {
		t.Fatalf("DupLast: edges=%d w=%v", last.NumEdges(), last.outW)
	}
	sum := mustBuild(t, 2, dups, DupSum)
	if sum.NumEdges() != 1 || sum.outW[0] != 6.0 {
		t.Fatalf("DupSum: edges=%d w=%v", sum.NumEdges(), sum.outW)
	}
}

func TestInOutEdgesAndNode(t *testing.T) {
	g := mustBuild(t, 4, []Edge{
		{1, 0, 0.5}, {2, 0, 0.3}, {3, 2, 0.9}, {0, 2, 0.1},
	}, DupLast)
	in := g.InEdges(0, 0)
	if len(in) != 2 || in[0] != (Edge{1, 0, 0.5}) || in[1] != (Edge{2, 0, 0.3}) {
		t.Fatalf("InEdges(0) = %+v", in)
	}
	if lim := g.InEdges(0, 1); len(lim) != 1 || lim[0] != (Edge{1, 0, 0.5}) {
		t.Fatalf("InEdges(0, limit 1) = %+v", lim)
	}
	out := g.OutEdges(2, 0)
	if len(out) != 1 || out[0] != (Edge{2, 0, 0.3}) {
		t.Fatalf("OutEdges(2) = %+v", out)
	}
	st := g.Node(2)
	if st.InDegree != 2 || st.OutDegree != 1 || math.Abs(st.InStrength-1.0) > 1e-15 {
		t.Fatalf("Node(2) = %+v", st)
	}
}

func TestComponentsAndCommunities(t *testing.T) {
	// Two dense clusters joined by nothing, plus an isolated node.
	var edges []Edge
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				edges = append(edges, Edge{From: i, To: j, Weight: 1})
				edges = append(edges, Edge{From: 4 + i, To: 4 + j, Weight: 1})
			}
		}
	}
	g := mustBuild(t, 9, edges, DupLast)
	sizes, count := g.Components()
	if count != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 1 {
		t.Fatalf("components: count=%d sizes=%v", count, sizes)
	}
	labels := g.Communities(0)
	if labels[0] != labels[1] || labels[0] != labels[3] {
		t.Fatalf("cluster 1 split: %v", labels)
	}
	if labels[4] != labels[7] {
		t.Fatalf("cluster 2 split: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Fatalf("clusters merged: %v", labels)
	}
	// Deterministic: a second run yields identical labels.
	again := g.Communities(0)
	for i := range labels {
		if labels[i] != again[i] {
			t.Fatalf("communities not deterministic at %d: %v vs %v", i, labels, again)
		}
	}
}

func TestCSRReciprocity(t *testing.T) {
	if r := mustBuild(t, 3, nil, DupLast).Reciprocity(); r != 0 {
		t.Fatalf("empty graph reciprocity = %v, want 0", r)
	}
	g := mustBuild(t, 3, []Edge{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}}, DupLast)
	if r := g.Reciprocity(); r != 2.0/3.0 {
		t.Fatalf("reciprocity = %v", r)
	}
}

// TestSummaryJSONStable: two summaries of the same graph (built from
// differently-ordered edge lists) must encode to identical JSON bytes —
// the stability /v1/graph/summary responses rely on.
func TestSummaryJSONStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(rng, 30, 0.2)
	shuffled := make([]Edge, len(edges))
	copy(shuffled, edges)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	a := mustBuild(t, 30, edges, DupSum)
	b := mustBuild(t, 30, shuffled, DupSum)
	ja, err := json.Marshal(a.Summarize(5))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Summarize(5))
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("summary JSON differs:\n%s\n%s", ja, jb)
	}
}

// TestExportsByteIdentical is the satellite regression test: the DOT and
// edge-list exports of the same graph, with edges inserted in different
// orders, must be byte-identical.
func TestExportsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := randomEdges(rng, 12, 0.4)
	shuffled := make([]Edge, len(edges))
	for i, j := range rng.Perm(len(edges)) {
		shuffled[i] = edges[j]
	}
	a := mustBuild(t, 12, edges, DupLast)
	b := mustBuild(t, 12, shuffled, DupLast)
	if a.DOT("g", nil) != b.DOT("g", nil) {
		t.Fatal("DOT export depends on insertion order")
	}
	if a.EdgeList(nil) != b.EdgeList(nil) {
		t.Fatal("edge-list export depends on insertion order")
	}
}
