package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randomDAG builds a random layered DAG; edges only go to later nodes, so it
// is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *DAG {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for v := 1; v < n; v++ {
		parents := rng.Intn(3)
		for p := 0; p < parents; p++ {
			u := rng.Intn(v)
			if !g.HasEdge(NodeID(u), NodeID(v)) {
				g.MustEdge(NodeID(u), NodeID(v), int64(rng.Intn(100)+1))
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("unknown node accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero volume accepted")
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.Volume(a, b) != 5 {
		t.Errorf("volume = %d, want 5", g.Volume(a, b))
	}
	// Overwrite keeps a single edge.
	if err := g.AddEdge(a, b, 7); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Volume(a, b) != 7 {
		t.Errorf("edge overwrite failed: %d edges, volume %d", g.NumEdges(), g.Volume(a, b))
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	g.MustEdge(c, a, 1)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Freeze(); err == nil {
		t.Error("Freeze accepted a cyclic graph")
	}
}

// TestTopoOrderProperty: for random DAGs, the topological order is a
// permutation of the nodes in which every edge goes forward.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		topo, err := g.TopoOrder()
		if err != nil || len(topo) != n {
			return false
		}
		pos := make([]int, n)
		for i, v := range topo {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEdgesOrderProperty: whatever order edges are added in, Edges lists
// every edge once, with its volume, sorted by (From, To), and EachEdge
// visits the same sequence.
func TestEdgesOrderProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		rng := rand.New(rand.NewSource(seed))
		src := randomDAG(rng, n)
		want := make([]Edge, 0, src.NumEdges())
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if src.HasEdge(NodeID(u), NodeID(v)) {
					want = append(want, Edge{NodeID(u), NodeID(v), src.Volume(NodeID(u), NodeID(v))})
				}
			}
		}
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode()
		}
		for _, i := range rng.Perm(len(want)) {
			g.MustEdge(want[i].From, want[i].To, want[i].Volume)
		}
		var visited []Edge
		g.EachEdge(func(u, v NodeID) { visited = append(visited, Edge{u, v, g.Volume(u, v)}) })
		return slices.Equal(g.Edges(), want) && slices.Equal(visited, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWCCProperty: endpoints of every edge share a component, components
// partition the nodes, and an edgeless graph has n components.
func TestWCCProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		comp, count := g.WCC()
		if count < 1 || count > n {
			return false
		}
		for _, e := range g.Edges() {
			if comp[e.From] != comp[e.To] {
				return false
			}
		}
		seen := make(map[int]bool)
		for _, c := range comp {
			if c < 0 || c >= count {
				return false
			}
			seen[c] = true
		}
		return len(seen) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWCCDisconnected(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	c, d := g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(c, d, 1)
	comp, count := g.WCC()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[a] != comp[b] || comp[c] != comp[d] || comp[a] == comp[c] {
		t.Errorf("components wrong: %v", comp)
	}
}

func TestLevelsChain(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	lv := g.Levels()
	if lv[a] != 1 || lv[b] != 2 || lv[c] != 3 {
		t.Errorf("levels = %v", lv)
	}
	if g.NumLevels() != 3 {
		t.Errorf("NumLevels = %d, want 3", g.NumLevels())
	}
}

func TestLongestPathAndBottomLevels(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, d, 1)
	g.MustEdge(a, c, 1)
	w := []float64{1, 10, 2, 3}
	if got := g.LongestPath(w); got != 14 {
		t.Errorf("longest path = %g, want 14 (a-b-d)", got)
	}
	bl := g.BottomLevels(w)
	if bl[a] != 14 || bl[b] != 13 || bl[c] != 2 || bl[d] != 3 {
		t.Errorf("bottom levels = %v", bl)
	}
}

func TestReachable(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	_ = d
	r := g.Reachable(a)
	if !r[b] || !r[c] || r[d] || r[a] {
		t.Errorf("reachable = %v", r)
	}
}

func TestFreezeBlocksMutation(t *testing.T) {
	g := New()
	g.AddNode()
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("AddEdge allowed on frozen graph")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddNode did not panic on frozen graph")
		}
	}()
	g.AddNode()
}

func TestDOTOutput(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 42)
	dot := g.DOT("test", nil)
	for _, want := range []string{"digraph", "n0 -> n1", "42"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(a, c, 1)
	if s := g.Sources(); len(s) != 1 || s[0] != a {
		t.Errorf("sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 2 {
		t.Errorf("sinks = %v", s)
	}
}
