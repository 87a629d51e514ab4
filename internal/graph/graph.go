// Package graph provides the directed-acyclic-graph substrate used by the
// canonical task graph model, the schedulers, and the evaluation harness.
//
// Nodes are dense integer IDs assigned by AddNode. Edges carry the data
// volume communicated between tasks, counted in unitary elements as in the
// paper (Section 2). The structure is mutable while building and is usually
// frozen (validated as acyclic, topologically ordered) before analysis.
//
// The freeze is the package's key invariant: a frozen DAG is immutable and
// carries a fixed topological order, so schedulers, simulators, and
// concurrent experiment workers can share one instance without
// synchronization, and the canonical iteration order (dense IDs, stable
// edge lists) makes every downstream analysis deterministic — the property
// the content-addressed results cache and byte-identical tables are built
// on. Entry points: New, AddNode/AddEdge while building, Freeze to
// validate, then Topo/Succs/Preds for traversal.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within a single DAG. IDs are dense: the first
// node added is 0, the second 1, and so on.
type NodeID int

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Edge is a directed edge u -> v carrying Volume data elements.
type Edge struct {
	From, To NodeID
	Volume   int64
}

// DAG is a directed graph intended to be acyclic. Acyclicity is enforced by
// Freeze, not by AddEdge, so construction can proceed in any order.
type DAG struct {
	n      int
	succs  [][]NodeID
	preds  [][]NodeID
	volume map[[2]NodeID]int64
	frozen bool
	topo   []NodeID
}

// New returns an empty DAG.
func New() *DAG {
	return &DAG{volume: make(map[[2]NodeID]int64)}
}

// NewWithCapacity returns an empty DAG with space reserved for n nodes.
func NewWithCapacity(n int) *DAG {
	return &DAG{
		succs:  make([][]NodeID, 0, n),
		preds:  make([][]NodeID, 0, n),
		volume: make(map[[2]NodeID]int64, 2*n),
	}
}

// AddNode adds a node and returns its ID.
func (g *DAG) AddNode() NodeID {
	if g.frozen {
		panic("graph: AddNode on frozen DAG")
	}
	id := NodeID(g.n)
	g.n++
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return id
}

// AddEdge adds the edge u -> v with the given data volume. Adding an edge
// that already exists overwrites its volume. Self loops are rejected.
func (g *DAG) AddEdge(u, v NodeID, volume int64) error {
	if g.frozen {
		return errors.New("graph: AddEdge on frozen DAG")
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node", u, v)
	}
	if volume <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive volume %d", u, v, volume)
	}
	key := [2]NodeID{u, v}
	if _, dup := g.volume[key]; !dup {
		g.succs[u] = append(g.succs[u], v)
		g.preds[v] = append(g.preds[v], u)
	}
	g.volume[key] = volume
	return nil
}

// MustEdge is AddEdge that panics on error; used by generators whose inputs
// are correct by construction.
func (g *DAG) MustEdge(u, v NodeID, volume int64) {
	if err := g.AddEdge(u, v, volume); err != nil {
		panic(err)
	}
}

func (g *DAG) valid(id NodeID) bool { return id >= 0 && int(id) < g.n }

// Len returns the number of nodes.
func (g *DAG) Len() int { return g.n }

// NumEdges returns the number of edges.
func (g *DAG) NumEdges() int { return len(g.volume) }

// Succs returns the successors of v. The slice must not be modified.
func (g *DAG) Succs(v NodeID) []NodeID { return g.succs[v] }

// Preds returns the predecessors of v. The slice must not be modified.
func (g *DAG) Preds(v NodeID) []NodeID { return g.preds[v] }

// InDegree returns the number of incoming edges of v.
func (g *DAG) InDegree(v NodeID) int { return len(g.preds[v]) }

// OutDegree returns the number of outgoing edges of v.
func (g *DAG) OutDegree(v NodeID) int { return len(g.succs[v]) }

// HasEdge reports whether the edge u -> v exists.
func (g *DAG) HasEdge(u, v NodeID) bool {
	_, ok := g.volume[[2]NodeID{u, v}]
	return ok
}

// Volume returns the data volume on edge u -> v, or 0 if the edge does not
// exist.
func (g *DAG) Volume(u, v NodeID) int64 { return g.volume[[2]NodeID{u, v}] }

// Edges returns all edges sorted by (From, To). The result is freshly
// allocated on every call.
func (g *DAG) Edges() []Edge {
	out := make([]Edge, 0, len(g.volume))
	for k, vol := range g.volume {
		out = append(out, Edge{From: k[0], To: k[1], Volume: vol})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Sources returns the nodes with no predecessors, in ID order.
func (g *DAG) Sources() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if len(g.preds[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns the nodes with no successors, in ID order.
func (g *DAG) Sinks() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if len(g.succs[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// ErrCycle is returned by Freeze and TopoOrder when the graph has a cycle.
var ErrCycle = errors.New("graph: cycle detected")

// TopoOrder returns a topological order of the nodes, or ErrCycle. The order
// is deterministic: ties are broken by node ID (Kahn's algorithm with a
// min-heap would be O(E log V); since ties only need determinism, a simple
// FIFO over ID-sorted sources suffices and keeps it O(V+E)).
func (g *DAG) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.preds[v])
	}
	queue := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order := make([]NodeID, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, w := range g.succs[u] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// Freeze validates the DAG (acyclicity) and caches the topological order.
// After Freeze, mutations panic or fail.
func (g *DAG) Freeze() error {
	topo, err := g.TopoOrder()
	if err != nil {
		return err
	}
	g.topo = topo
	g.frozen = true
	return nil
}

// Frozen reports whether Freeze has completed successfully.
func (g *DAG) Frozen() bool { return g.frozen }

// Topo returns the cached topological order. It panics if the DAG is not
// frozen.
func (g *DAG) Topo() []NodeID {
	if !g.frozen {
		panic("graph: Topo before Freeze")
	}
	return g.topo
}

// WCC partitions the nodes into weakly connected components, ignoring edge
// direction. It returns the component index of every node and the number of
// components. Component indices are dense and assigned in order of the
// smallest node ID they contain.
func (g *DAG) WCC() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	for v := 0; v < g.n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.succs[u] {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
			for _, w := range g.preds[u] {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// Induced returns the subgraph induced by keep (nodes where keep[v] is true)
// along with the mapping orig -> new ID (InvalidNode for dropped nodes) and
// new -> orig.
func (g *DAG) Induced(keep []bool) (sub *DAG, toSub []NodeID, toOrig []NodeID) {
	if len(keep) != g.n {
		panic("graph: Induced keep length mismatch")
	}
	sub = New()
	toSub = make([]NodeID, g.n)
	for v := 0; v < g.n; v++ {
		if keep[v] {
			toSub[v] = sub.AddNode()
			toOrig = append(toOrig, NodeID(v))
		} else {
			toSub[v] = InvalidNode
		}
	}
	for key, vol := range g.volume {
		u, v := key[0], key[1]
		if keep[u] && keep[v] {
			sub.MustEdge(toSub[u], toSub[v], vol)
		}
	}
	return sub, toSub, toOrig
}

// Clone returns a deep copy of the graph in an unfrozen state.
func (g *DAG) Clone() *DAG {
	c := NewWithCapacity(g.n)
	c.n = g.n
	c.succs = make([][]NodeID, g.n)
	c.preds = make([][]NodeID, g.n)
	for v := 0; v < g.n; v++ {
		c.succs[v] = append([]NodeID(nil), g.succs[v]...)
		c.preds[v] = append([]NodeID(nil), g.preds[v]...)
	}
	for k, vol := range g.volume {
		c.volume[k] = vol
	}
	return c
}
