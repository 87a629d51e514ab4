package schedule

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// ScheduleReference is the direct transcription of the Section 5.1
// schedule: per block it walks the whole global topological order, keeping
// the block's nodes via membership marks, and takes the Theorem 4.1
// components from a freshly built buffer-split graph.DAG. That makes it
// O(blocks × V) plus a map-backed graph per block. It is kept as the
// executable specification the fast Scheduler is differentially tested
// against (TestFastScheduleMatchesReference, FuzzScheduleFastVsReference),
// like PartitionReference for Algorithm 1. Both produce byte-identical
// Results.
func ScheduleReference(t *core.TaskGraph, part Partition, p int) (*Result, error) {
	if err := part.Validate(t, p); err != nil {
		return nil, err
	}
	n := t.G.Len()
	r := newResult(part, n)
	s := &referenceScheduler{
		bufferFill: make([]float64, n),
		inBlk:      make([]bool, n),
		localIdx:   make([]int32, n),
	}
	for i := range s.localIdx {
		s.localIdx[i] = -1
	}
	compBase := 0
	blockStart := 0.0
	for bi, blk := range part.Blocks {
		r.BlockStart[bi] = blockStart
		compBase = s.blockIntervals(r, t, blk, compBase)
		r.assignPEs(t, blk)
		end := s.blockTimes(r, t, blk, blockStart)
		if end > r.Makespan {
			r.Makespan = end
		}
		blockStart = end
	}
	return r, nil
}

// referenceScheduler is ScheduleReference's per-call state.
type referenceScheduler struct {
	bufferFill []float64
	inBlk      []bool  // blockTimes: node in current block
	localIdx   []int32 // blockIntervals: node -> local index, -1 outside
	owner      []graph.NodeID
}

// blockIntervals computes block-local streaming intervals (Theorem 4.1 on
// the subgraph induced by the block, after buffer splitting) and stores them
// into r.So/r.Si/r.Comp. compBase offsets component IDs so they stay unique
// across blocks; the new base is returned.
func (s *referenceScheduler) blockIntervals(r *Result, t *core.TaskGraph, blk Block, compBase int) int {
	localIdx := s.localIdx // node -> local index; -1 outside the block
	for i, v := range blk.Nodes {
		localIdx[v] = int32(i)
	}
	defer func() {
		for _, v := range blk.Nodes {
			localIdx[v] = -1
		}
	}()

	// Build the buffer-split subgraph: local node i for each block node;
	// buffers get an extra head node appended.
	sub := graph.NewWithCapacity(len(blk.Nodes))
	owner := s.owner[:0]
	head := make(map[graph.NodeID]graph.NodeID, 4)
	for _, v := range blk.Nodes {
		sub.AddNode()
		owner = append(owner, v)
	}
	for _, v := range blk.Nodes {
		if t.Nodes[v].Kind == core.Buffer {
			h := sub.AddNode()
			owner = append(owner, v)
			head[v] = h
		}
	}
	s.owner = owner
	for _, v := range blk.Nodes {
		for _, w := range t.G.Succs(v) {
			wi := localIdx[w]
			if wi < 0 {
				continue // cross-block edge: buffered, not part of the stream
			}
			from := graph.NodeID(localIdx[v])
			if h, isBuf := head[v]; isBuf {
				from = h
			}
			sub.MustEdge(from, graph.NodeID(wi), t.G.Volume(v, w))
		}
	}

	comp, count := sub.WCC()
	maxOut := make([]int64, count)
	for sv := 0; sv < sub.Len(); sv++ {
		v := owner[sv]
		node := t.Nodes[v]
		out := node.Out
		if node.Kind == core.Buffer && head[v] != graph.NodeID(sv) {
			out = 0 // tail side produces nothing downstream
		}
		// A node that ingests data produced outside this stream (a block
		// source re-reading memory, or a buffer head replaying its content)
		// is still rate-limited to one element per cycle per input edge, so
		// its input volume bounds the component period too. For nodes fed
		// within the component this is a no-op: their In equals the
		// producer's Out, which is already counted.
		if node.Kind != core.Source && t.G.InDegree(v) > 0 && node.In > out {
			if !(node.Kind == core.Buffer && head[v] == graph.NodeID(sv)) {
				out = node.In
			}
		}
		if out > maxOut[comp[sv]] {
			maxOut[comp[sv]] = out
		}
	}

	for i, v := range blk.Nodes {
		headSide := i
		if h, isBuf := head[v]; isBuf {
			headSide = int(h)
		}
		r.Comp[v] = compBase + comp[headSide]
		r.setIntervals(t, v, maxOut[comp[headSide]], maxOut[comp[i]])
	}
	return compBase + count
}

// blockTimes evaluates the ST/FO/LO recurrences of Section 5.1 for one block
// and returns the completion time of the block (max LO over its nodes).
func (s *referenceScheduler) blockTimes(r *Result, t *core.TaskGraph, blk Block, blockStart float64) float64 {
	inBlk := s.inBlk
	for _, v := range blk.Nodes {
		inBlk[v] = true
	}
	defer func() {
		for _, v := range blk.Nodes {
			inBlk[v] = false
		}
	}()

	// Topological order restricted to the block (global topo order works).
	end := blockStart
	for _, v := range t.G.Topo() {
		if !inBlk[v] {
			continue
		}
		in := newPredSummary()
		for _, u := range t.G.Preds(v) {
			in.add(r, t, u, inBlk[u], s.bufferFill)
		}
		if lo := r.nodeTimes(t, v, blockStart, in, s.bufferFill); lo > end {
			end = lo
		}
	}
	return end
}
