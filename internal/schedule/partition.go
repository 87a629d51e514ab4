// Package schedule implements the spatio-temporal scheduling of canonical
// task graphs from Section 5 of the paper: partitioning into spatial blocks
// of at most P processing elements (Algorithm 1 variants SB-LTS and SB-RLX,
// plus the work-ordered Algorithm 2 and the level-order scheme of Appendix
// A), and the within-block gang schedule with starting, first-out, and
// last-out times.
//
// Entry points: Algorithm1 (or PartitionLTS) partitions a frozen graph,
// Schedule evaluates the ST/FO/LO recurrences over a partition, and
// AnalyzePipeline derives the steady-state macro-pipelining latency and
// initiation interval; StreamingDepth and SequentialTime supply the
// denominators of the SSLR and speedup metrics. Hot loops should reuse a
// NewScheduler per worker — it carries the grow-and-clear scratch state, so
// it must not be shared across goroutines. Partitioning and scheduling are
// fully deterministic (ties break by node ID), which is what makes every
// derived cell value reproducible, byte-identical across worker counts,
// and content-addressable in the results cache.
package schedule

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Variant selects the spatial-block partitioning heuristic of Algorithm 1.
type Variant int

const (
	// SBLTS ("limit to source") only adds a node to the current block if it
	// produces no more data than the block sources it depends on, so the
	// sources' streaming interval is never increased. Blocks may end up with
	// fewer than P tasks.
	SBLTS Variant = iota
	// SBRLX relaxes SBLTS: when no other candidate exists, the source
	// producing the least data is added anyway, so every block except the
	// last holds exactly P tasks.
	SBRLX
)

func (v Variant) String() string {
	switch v {
	case SBLTS:
		return "SB-LTS"
	case SBRLX:
		return "SB-RLX"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Block is one temporally multiplexed component of spatially executed tasks.
type Block struct {
	// Nodes lists every node assigned to the block, including passive ones
	// (buffers, sources, sinks), in insertion order.
	Nodes []graph.NodeID
	// ComputeCount is the number of computational nodes, the ones that
	// occupy a PE. ComputeCount <= P always holds.
	ComputeCount int
}

// Partition is an ordered list of spatial blocks covering every node of the
// graph. Blocks execute back to back in index order.
type Partition struct {
	Blocks []Block
	// BlockOf maps every node to its block index.
	BlockOf []int
}

// NumBlocks returns the number of spatial blocks.
func (p Partition) NumBlocks() int { return len(p.Blocks) }

// SameBlock reports whether two nodes are co-scheduled.
func (p Partition) SameBlock(u, v graph.NodeID) bool { return p.BlockOf[u] == p.BlockOf[v] }

// Streaming reports whether the edge u -> v is a pipelined (streaming)
// communication under this partition: both endpoints in the same block and
// neither endpoint a buffer node (pipelining cannot cross buffers, Section
// 3.1; edges between blocks are buffered, Section 5).
func (p Partition) Streaming(t *core.TaskGraph, u, v graph.NodeID) bool {
	return p.BlockOf[u] == p.BlockOf[v] &&
		t.Nodes[u].Kind != core.Buffer && t.Nodes[v].Kind != core.Buffer
}

// countsTowardP reports whether a node occupies a processing element.
// Buffer nodes are passive memory, and explicit source/sink nodes model
// global-memory endpoints.
func countsTowardP(t *core.TaskGraph, v graph.NodeID) bool {
	return t.Nodes[v].Kind == core.Compute
}

// partitionState carries the incremental view of Algorithm 1: the remaining
// graph (as in-degrees) and the per-node "governing source volume".
type partitionState struct {
	t      *core.TaskGraph
	p      int
	remIn  []int   // remaining unplaced predecessors
	placed []bool  // node already assigned to some block
	level  []int   // structural level, used for tie breaks
	srcO   []int64 // max O over the current-block sources the node depends on; -1 when not applicable
	// inCurEpoch stamps the block a node was placed in: a node is in the
	// current block iff inCurEpoch[v] == epoch. Advancing epoch empties the
	// set in O(1), where a boolean array would pay an O(n) clear per block.
	inCurEpoch []int32
	epoch      int32
}

// inCur reports whether v is placed in the block currently being filled.
func (st *partitionState) inCur(v graph.NodeID) bool { return st.inCurEpoch[v] == st.epoch }

// Options configures Algorithm 1.
type Options struct {
	Variant Variant
}

// Algorithm1 partitions a canonical task graph into spatial blocks of at
// most P computational tasks using the greedy heuristic of Section 5.2.
// On each step it considers the source nodes of the remaining graph and
// prefers, in order:
//
//  1. a source producing no more data than the current block's sources it
//     depends on (its addition cannot slow any stream down);
//  2. a node that becomes a block source (all predecessors in previous
//     blocks; it reads from memory and starts a fresh stream);
//  3. with SB-RLX only: the source producing the least data, even if that
//     exceeds the block sources.
//
// Ties are broken by node level, then by produced volume, then by ID. When
// no candidate exists or the block is full, a new block is opened. The
// construction guarantees acyclic dependencies between blocks because a node
// is only ever considered once all its predecessors have been placed.
//
// This entry point runs the incremental fast path (see Partitioner); the
// executable specification it is differentially tested against is
// PartitionReference. Both produce byte-identical partitions.
func Algorithm1(t *core.TaskGraph, p int, opt Options) (Partition, error) {
	return NewPartitioner().Partition(t, p, opt)
}

// PartitionReference is the direct transcription of Algorithm 1: one linear
// scan over the frontier per placement (pickCandidate). It is kept as the
// executable specification the fast path is fuzzed and golden-tested
// against, exactly like desim's unit-stepping reference engine. Its own
// bookkeeping is still near-linear — removeSource is an O(1) index-map
// swap-delete and closeBlock an O(1) epoch bump — so the oracle stays
// usable at 10^5-task scale; only the per-placement frontier scan (the
// specification itself) remains super-linear.
func PartitionReference(t *core.TaskGraph, p int, opt Options) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("schedule: need at least one PE, got %d", p)
	}
	n := t.G.Len()
	st := &partitionState{
		t:          t,
		p:          p,
		remIn:      make([]int, n),
		placed:     make([]bool, n),
		level:      t.G.Levels(),
		srcO:       make([]int64, n),
		inCurEpoch: make([]int32, n),
		epoch:      1,
	}
	for v := 0; v < n; v++ {
		st.remIn[v] = t.G.InDegree(graph.NodeID(v))
		st.srcO[v] = -1
	}

	part := Partition{BlockOf: make([]int, n)}
	cur := Block{}
	remaining := n

	// sources is the frontier of the remaining graph, maintained
	// incrementally: a node enters when its last predecessor is placed.
	// srcIdx tracks each node's position in it so removal is O(1).
	var sources []graph.NodeID
	srcIdx := make([]int32, n)
	for v := range srcIdx {
		srcIdx[v] = -1
	}
	addSource := func(v graph.NodeID) {
		srcIdx[v] = int32(len(sources))
		sources = append(sources, v)
	}
	removeSource := func(v graph.NodeID) {
		i := srcIdx[v]
		last := len(sources) - 1
		moved := sources[last]
		sources[i] = moved
		srcIdx[moved] = i
		sources = sources[:last]
		srcIdx[v] = -1
	}
	for v := 0; v < n; v++ {
		if st.remIn[v] == 0 {
			addSource(graph.NodeID(v))
		}
	}

	place := func(v graph.NodeID, asBlockSource bool) {
		st.placed[v] = true
		st.inCurEpoch[v] = st.epoch
		cur.Nodes = append(cur.Nodes, v)
		part.BlockOf[v] = len(part.Blocks)
		if countsTowardP(t, v) {
			cur.ComputeCount++
		}
		if asBlockSource {
			st.srcO[v] = t.Nodes[v].Out
		} else {
			// Governed by the max source volume among in-block predecessors.
			best := int64(-1)
			for _, u := range t.G.Preds(v) {
				if st.inCur(u) && st.srcO[u] > best {
					best = st.srcO[u]
				}
			}
			if o := t.Nodes[v].Out; o > best {
				// Track the real stream pace: downstream nodes compare
				// against the largest producer on their governing path.
				best = o
			}
			st.srcO[v] = best
		}
		removeSource(v)
		for _, w := range t.G.Succs(v) {
			st.remIn[w]--
			if st.remIn[w] == 0 {
				addSource(w)
			}
		}
		remaining--
	}
	closeBlock := func() {
		part.Blocks = append(part.Blocks, cur)
		cur = Block{}
		st.epoch++
	}

	for remaining > 0 {
		if len(sources) == 0 {
			return Partition{}, fmt.Errorf("schedule: no sources left with %d nodes unplaced (cycle?)", remaining)
		}
		cand := graph.InvalidNode
		candBlockSource := false
		if cur.ComputeCount < p {
			cand, candBlockSource = st.pickCandidate(sources, opt.Variant)
		}
		if cand != graph.InvalidNode {
			place(cand, candBlockSource)
		}
		if cur.ComputeCount >= p || cand == graph.InvalidNode {
			if len(cur.Nodes) == 0 {
				// Defensive: should not happen because a fresh block always
				// accepts a block source.
				return Partition{}, fmt.Errorf("schedule: empty block with %d nodes unplaced", remaining)
			}
			closeBlock()
		}
	}
	if len(cur.Nodes) > 0 {
		closeBlock()
	}
	return part, nil
}

// pickCandidate implements the candidate rule of Algorithm 1 with a single
// linear scan over the frontier. Deterministic preference within a class:
// lower level, then smaller produced volume, then smaller ID.
func (st *partitionState) pickCandidate(sources []graph.NodeID, variant Variant) (graph.NodeID, bool) {
	t := st.t
	better := func(a, b graph.NodeID) bool { // a preferred over b
		if b == graph.InvalidNode {
			return true
		}
		if st.level[a] != st.level[b] {
			return st.level[a] < st.level[b]
		}
		if t.Nodes[a].Out != t.Nodes[b].Out {
			return t.Nodes[a].Out < t.Nodes[b].Out
		}
		return a < b
	}

	passive := graph.InvalidNode     // buffers/sources/sinks: free to place
	class1 := graph.InvalidNode      // produces within the governing volume
	blockSource := graph.InvalidNode // would start a fresh stream
	leastProducing := graph.InvalidNode

	for _, v := range sources {
		if !countsTowardP(t, v) {
			if better(v, passive) {
				passive = v
			}
			continue
		}
		if !st.hasPredInBlock(v) {
			if better(v, blockSource) {
				blockSource = v
			}
			continue
		}
		gov := int64(-1)
		for _, u := range t.G.Preds(v) {
			if st.inCur(u) && st.srcO[u] > gov {
				gov = st.srcO[u]
			}
		}
		if gov >= 0 && t.Nodes[v].Out <= gov {
			if better(v, class1) {
				class1 = v
			}
			continue
		}
		if leastProducing == graph.InvalidNode ||
			t.Nodes[v].Out < t.Nodes[leastProducing].Out ||
			(t.Nodes[v].Out == t.Nodes[leastProducing].Out && better(v, leastProducing)) {
			leastProducing = v
		}
	}

	// Passive nodes never slow a stream and never occupy a PE: take them
	// eagerly.
	if passive != graph.InvalidNode {
		return passive, !st.hasPredInBlock(passive)
	}
	if class1 != graph.InvalidNode {
		return class1, false
	}
	if blockSource != graph.InvalidNode {
		return blockSource, true // class 2
	}
	if variant == SBRLX {
		return leastProducing, false // class 3 (InvalidNode when none)
	}
	return graph.InvalidNode, false
}

func (st *partitionState) hasPredInBlock(v graph.NodeID) bool {
	for _, u := range st.t.G.Preds(v) {
		if st.inCur(u) {
			return true
		}
	}
	return false
}

// PartitionLTS runs Algorithm 1 with the SB-LTS variant.
func PartitionLTS(t *core.TaskGraph, p int) (Partition, error) {
	return Algorithm1(t, p, Options{Variant: SBLTS})
}

// PartitionRLX runs Algorithm 1 with the SB-RLX variant.
func PartitionRLX(t *core.TaskGraph, p int) (Partition, error) {
	return Algorithm1(t, p, Options{Variant: SBRLX})
}

// PartitionByWork implements Algorithm 2 (Appendix A.2) for graphs of
// element-wise and downsampler nodes: repeatedly pick the remaining source
// with the highest work (lowest level on ties) and fill blocks of exactly P
// computational tasks. Along any path work is non-increasing in such graphs,
// so the picked sequence is ordered by non-increasing work, which yields the
// Theorem A.2 bound.
func PartitionByWork(t *core.TaskGraph, p int) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("schedule: need at least one PE, got %d", p)
	}
	n := t.G.Len()
	remIn := make([]int, n)
	placed := make([]bool, n)
	level := t.G.Levels()
	for v := 0; v < n; v++ {
		remIn[v] = t.G.InDegree(graph.NodeID(v))
	}
	part := Partition{BlockOf: make([]int, n)}
	cur := Block{}
	for remaining := n; remaining > 0; {
		cand := graph.InvalidNode
		for v := 0; v < n; v++ {
			if placed[v] || remIn[v] != 0 {
				continue
			}
			id := graph.NodeID(v)
			if cand == graph.InvalidNode {
				cand = id
				continue
			}
			wc, wv := t.Nodes[cand].Work(), t.Nodes[v].Work()
			if wv > wc || (wv == wc && level[v] < level[cand]) {
				cand = id
			}
		}
		if cand == graph.InvalidNode {
			return Partition{}, fmt.Errorf("schedule: no sources left (cycle?)")
		}
		if countsTowardP(t, cand) && cur.ComputeCount >= p {
			part.Blocks = append(part.Blocks, cur)
			cur = Block{}
		}
		placed[cand] = true
		part.BlockOf[cand] = len(part.Blocks)
		cur.Nodes = append(cur.Nodes, cand)
		if countsTowardP(t, cand) {
			cur.ComputeCount++
		}
		for _, w := range t.G.Succs(cand) {
			remIn[w]--
		}
		remaining--
	}
	if len(cur.Nodes) > 0 {
		part.Blocks = append(part.Blocks, cur)
	}
	return part, nil
}

// PartitionLevelOrder implements the Appendix A.1 scheme for element-wise
// graphs: order tasks by level (ties by ID) and cut blocks of P tasks. The
// resulting schedule satisfies the Brent-style bound of Theorem A.1.
func PartitionLevelOrder(t *core.TaskGraph, p int) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("schedule: need at least one PE, got %d", p)
	}
	n := t.G.Len()
	level := t.G.Levels()
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	})
	part := Partition{BlockOf: make([]int, n)}
	cur := Block{}
	for _, v := range order {
		if countsTowardP(t, v) && cur.ComputeCount >= p {
			part.Blocks = append(part.Blocks, cur)
			cur = Block{}
		}
		part.BlockOf[v] = len(part.Blocks)
		cur.Nodes = append(cur.Nodes, v)
		if countsTowardP(t, v) {
			cur.ComputeCount++
		}
	}
	if len(cur.Nodes) > 0 {
		part.Blocks = append(part.Blocks, cur)
	}
	return part, nil
}

// Validate checks the structural invariants of a partition: every node in
// exactly one block, compute counts within P, and block dependencies acyclic
// (a node's predecessors are never in a later block). It runs in O(V + E).
func (p Partition) Validate(t *core.TaskGraph, pes int) error {
	return p.validate(t, pes, make([]bool, t.G.Len()))
}

// validate is Validate with caller-supplied, cleared scratch marks of
// length t.G.Len(), so the Scheduler can validate without allocating.
func (p Partition) validate(t *core.TaskGraph, pes int, seen []bool) error {
	if len(p.BlockOf) != t.G.Len() {
		return fmt.Errorf("schedule: BlockOf covers %d of %d nodes", len(p.BlockOf), t.G.Len())
	}
	for bi, b := range p.Blocks {
		cc := 0
		for _, v := range b.Nodes {
			if seen[v] {
				return fmt.Errorf("schedule: node %d in multiple blocks", v)
			}
			seen[v] = true
			if p.BlockOf[v] != bi {
				return fmt.Errorf("schedule: node %d BlockOf=%d but listed in block %d", v, p.BlockOf[v], bi)
			}
			if countsTowardP(t, v) {
				cc++
			}
		}
		if cc != b.ComputeCount {
			return fmt.Errorf("schedule: block %d ComputeCount=%d, actual %d", bi, b.ComputeCount, cc)
		}
		if cc > pes {
			return fmt.Errorf("schedule: block %d has %d compute tasks > %d PEs", bi, cc, pes)
		}
	}
	for v := range seen {
		if !seen[v] {
			return fmt.Errorf("schedule: node %d not assigned to any block", v)
		}
	}
	// Report the first backward edge in (From, To) order: the smallest
	// offending successor of the smallest offending node.
	for from := range p.BlockOf {
		to := graph.InvalidNode
		for _, w := range t.G.Succs(graph.NodeID(from)) {
			if p.BlockOf[from] > p.BlockOf[w] && (to == graph.InvalidNode || w < to) {
				to = w
			}
		}
		if to != graph.InvalidNode {
			return fmt.Errorf("schedule: edge (%d,%d) goes from block %d back to block %d",
				from, to, p.BlockOf[from], p.BlockOf[to])
		}
	}
	return nil
}
