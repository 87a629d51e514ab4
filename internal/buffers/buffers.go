// Package buffers computes the FIFO buffer space needed for deadlock-free
// execution of pipelined (streaming) communications, following Section 6 of
// the paper. Streaming channels use blocking-after-service semantics, so an
// undersized FIFO on one of several disjoint paths between two tasks can
// stall the producer and deadlock the whole spatial block even though the
// task graph is acyclic.
//
// Deadlocks can only occur along streaming paths, so each spatial block is
// analyzed independently. Within a block, only nodes lying on an undirected
// cycle are at risk; for an incident streaming edge (u,v) of such a node the
// required space is the extra delay data experiences on the slowest sibling
// path, divided by the production interval of u (Equation 5), capped by the
// edge's total data volume.
//
// Entry points: SizeMap returns the per-edge FIFO capacities for a
// schedule (what desim.Config consumes and the ablation compares against
// unit FIFOs); Sizes exposes the per-edge derivation, and FIFOCaps turns
// sizes already computed into SizeMap's form. Sizing is a pure
// function of the frozen graph and its schedule — no randomness, no
// state — so sized simulations are reproducible and cacheable.
package buffers

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// EdgeSpace is the computed FIFO depth for one streaming edge.
type EdgeSpace struct {
	From, To graph.NodeID
	// Space is the FIFO depth in elements. At least MinDepth even for edges
	// that need no slack.
	Space int64
	// OnCycle reports whether the edge's head lies on an undirected cycle
	// of its spatial block (the only case where Equation 5 applies).
	OnCycle bool
}

// MinDepth is the smallest FIFO depth assigned to any streaming edge. One
// element suffices for bubble-free rate-1 pipelining under
// consume-then-produce channel semantics.
const MinDepth = 1

// Sizes computes the buffer space of every streaming edge of the scheduled
// graph, block by block. The result is keyed by edge and sorted by
// (From, To). It runs in O(V + E log E): the per-block state lives in
// node-indexed slices allocated once per call and reset per block.
func Sizes(t *core.TaskGraph, r *schedule.Result) []EdgeSpace {
	s := newSizer(t, r)
	var out []EdgeSpace
	for bi := range r.Partition.Blocks {
		out = s.sizeBlock(out, bi)
	}
	slices.SortFunc(out, func(a, b EdgeSpace) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// SizeMap returns Sizes as a map keyed by [from, to].
func SizeMap(t *core.TaskGraph, r *schedule.Result) map[[2]graph.NodeID]int64 {
	return FIFOCaps(Sizes(t, r))
}

// FIFOCaps keys already computed sizes by [from, to], the form
// desim.Config.FIFOCap consumes.
func FIFOCaps(sizes []EdgeSpace) map[[2]graph.NodeID]int64 {
	m := make(map[[2]graph.NodeID]int64, len(sizes))
	for _, e := range sizes {
		m[[2]graph.NodeID{e.From, e.To}] = e.Space
	}
	return m
}

// sizer holds one Sizes call's node-indexed scratch. Index n stands for the
// virtual super-source of cycleNodes.
type sizer struct {
	t       *core.TaskGraph
	r       *schedule.Result
	deg     []int32 // undirected in-block degree, then 2-core peeling count
	removed []bool  // peeled off the 2-core
	entry   []bool  // stream entry: in-block edges, but no in-block predecessor
	queue   []int32
}

func newSizer(t *core.TaskGraph, r *schedule.Result) *sizer {
	n := t.G.Len()
	return &sizer{
		t: t, r: r,
		deg:     make([]int32, n+1),
		removed: make([]bool, n+1),
		entry:   make([]bool, n),
	}
}

// sizeBlock applies Equation 5 within block bi, appending to out.
func (s *sizer) sizeBlock(out []EdgeSpace, bi int) []EdgeSpace {
	t, r := s.t, s.r
	blockOf := r.Partition.BlockOf
	blk := r.Partition.Blocks[bi]
	// Delay paths can also run through in-block buffer nodes (Figure 4,
	// graph 2: the norm value reaches the divider only after the whole
	// input was consumed), so cycle detection and the per-node delay bound
	// consider every in-block edge, while only streaming edges receive
	// FIFO space.
	s.cycleNodes(blk, bi)

	for _, v := range blk.Nodes {
		// The highest delay any element experiences reaching v is the
		// largest first-out time among its in-block predecessors, whether
		// they stream directly or emit from a buffer.
		maxFO := math.Inf(-1)
		nPreds := 0
		for _, u := range t.G.Preds(v) {
			if blockOf[u] == bi {
				nPreds++
				if r.FO[u] > maxFO {
					maxFO = r.FO[u]
				}
			}
		}
		cyc := s.onCycle(v) && nPreds > 1
		for _, u := range t.G.Preds(v) {
			if !r.Partition.Streaming(t, u, v) {
				continue
			}
			space := int64(MinDepth)
			if cyc {
				so := r.So[u]
				if so < 1 {
					so = 1
				}
				need := int64(math.Ceil((maxFO - r.FO[u]) / so))
				if need > space {
					space = need
				}
				if vol := t.G.Volume(u, v); space > vol {
					space = vol // never need more than the total data sent
				}
			}
			out = append(out, EdgeSpace{From: u, To: v, Space: space, OnCycle: cyc})
		}
	}
	return out
}

// onCycle reports whether v survived the last cycleNodes peel.
func (s *sizer) onCycle(v graph.NodeID) bool { return s.deg[v] >= 2 && !s.removed[v] }

// cycleNodes marks the block nodes lying on an undirected cycle of the
// block's in-block subgraph (read back with onCycle). A node is on an
// undirected cycle exactly when it survives in the 2-core of the undirected
// graph (iteratively pruning nodes of degree < 2), which is equivalent to
// the marked-ancestor DFS the paper describes and runs in O(V + E).
//
// A virtual super-source is connected to every stream entry of the block
// (nodes with no in-block predecessor): independent streams are coupled
// through the environment they all draw from, so a join of two source-fed
// chains can stall exactly like a reconvergent diamond — this is the
// situation of Figure 9, graph 2. The virtual node is only peeled once a
// neighbor's removal drops its degree below 2, never up front.
//
// Neighbors are never materialized: they are v's in-block successors and
// predecessors, plus the virtual node for an entry; the virtual node's
// neighbors are the block's entries.
func (s *sizer) cycleNodes(blk schedule.Block, bi int) {
	t, blockOf := s.t, s.r.Partition.BlockOf
	virtual := int32(t.G.Len())
	s.deg[virtual], s.removed[virtual] = 0, false
	for _, v := range blk.Nodes {
		s.deg[v], s.removed[v] = 0, false
	}
	for _, v := range blk.Nodes {
		hasPred := false
		for _, u := range t.G.Preds(v) {
			if blockOf[u] == bi {
				s.deg[v]++
				hasPred = true
			}
		}
		for _, w := range t.G.Succs(v) {
			if blockOf[w] == bi {
				s.deg[v]++
			}
		}
		// An entry participates in a stream but is not fed within the block.
		s.entry[v] = s.deg[v] > 0 && !hasPred
		if s.entry[v] {
			s.deg[v]++
			s.deg[virtual]++
		}
	}
	// Peel degree-<2 nodes.
	queue := s.queue[:0]
	for _, v := range blk.Nodes {
		if s.deg[v] < 2 {
			queue = append(queue, int32(v))
			s.removed[v] = true
		}
	}
	drop := func(w int32) {
		if s.removed[w] {
			return
		}
		s.deg[w]--
		if s.deg[w] < 2 {
			s.removed[w] = true
			queue = append(queue, w)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v == virtual {
			for _, w := range blk.Nodes {
				if s.entry[w] {
					drop(int32(w))
				}
			}
			continue
		}
		for _, w := range t.G.Succs(graph.NodeID(v)) {
			if blockOf[w] == bi {
				drop(int32(w))
			}
		}
		for _, u := range t.G.Preds(graph.NodeID(v)) {
			if blockOf[u] == bi {
				drop(int32(u))
			}
		}
		if s.entry[v] {
			drop(virtual)
		}
	}
	s.queue = queue
}
