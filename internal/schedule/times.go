package schedule

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// Result is a complete streaming schedule: the partition, per-node times,
// block-local streaming intervals, and PE assignments.
type Result struct {
	Partition Partition

	// ST, FO, LO are the starting, first-out, and last-out times of every
	// node (Section 5.1). For sinks FO = LO = arrival of the last element.
	ST, FO, LO []float64

	// So, Si are the block-local steady-state streaming intervals of every
	// node, computed per weakly connected component of the buffer-split
	// subgraph induced by the node's block (Theorem 4.1 applied per block).
	So, Si []float64

	// Comp is the per-block WCC index of each node (head side for buffers),
	// unique across blocks.
	Comp []int

	// PE assigns every computational node a processing element in
	// [0, P); -1 for passive nodes.
	PE []int

	// BlockStart[i] is the barrier time at which block i begins: all tasks
	// of block i-1 have completed (Section 5.1).
	BlockStart []float64

	// Makespan is the schedule length: max finishing time over all nodes.
	Makespan float64
}

// Scheduler evaluates schedules while reusing its internal scratch buffers
// (per-block topological order, buffer-fill times, union-find forest,
// component maxima) across calls. Sweeps that schedule many graphs allocate
// one Scheduler per worker; a Scheduler must not be used from multiple
// goroutines at once. The zero value is ready to use. The returned Results
// own all their slices, so they stay valid after further Schedule calls.
//
// Schedule runs in O(V + E + blocks): the global topological order is
// bucketed by block once, each block's recurrences walk only its own
// bucket, and the Theorem 4.1 components come from a union-find over the
// block's local indices. After warm-up it allocates only the Result
// (TestScheduleAllocFree). ScheduleReference is the executable
// specification it is differentially tested against.
type Scheduler struct {
	bufferFill []float64
	seen       []bool         // partition validation marks
	order      []graph.NodeID // topological order, bucketed by block
	start      []int32        // order[start[b]:start[b+1]] is block b
	local      []int32        // node -> index in its block's Nodes
	side       []int32        // node -> local index of its head side (buffers: appended head)
	parent     []int32        // union-find forest over a block's local indices
	comp       []int32        // local index -> dense component number
	maxOut     []int64        // per component: max produced (or ingested) volume
}

// NewScheduler returns a Scheduler with empty scratch buffers.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Schedule computes the streaming schedule for a frozen canonical task graph
// under the given partition. P is the number of processing elements and is
// only used to validate the partition and assign PEs. It allocates fresh
// scratch state; hot loops should prefer Scheduler.Schedule.
func Schedule(t *core.TaskGraph, part Partition, p int) (*Result, error) {
	return NewScheduler().Schedule(t, part, p)
}

// Schedule is the scratch-reusing equivalent of the package-level Schedule.
func (s *Scheduler) Schedule(t *core.TaskGraph, part Partition, p int) (*Result, error) {
	n := t.G.Len()
	s.seen = scratch.GrowBools(s.seen, n)
	if err := part.validate(t, p, s.seen); err != nil {
		return nil, err
	}
	r := newResult(part, n)

	// bufferFill[v]: for buffer nodes, the time the tail has received all
	// its input; consumers in later blocks read from memory and only need
	// the fill time, not the emission time.
	s.bufferFill = scratch.GrowFloats(s.bufferFill, n)
	s.local = scratch.GrowInt32s(s.local, n)
	s.side = scratch.GrowInt32s(s.side, n)
	s.bucketByBlock(t, part)

	compBase := 0
	blockStart := 0.0
	for bi, blk := range part.Blocks {
		r.BlockStart[bi] = blockStart
		compBase = s.blockIntervals(r, t, part, bi, compBase)
		r.assignPEs(t, blk)
		end := s.blockTimes(r, t, part.BlockOf, bi, blockStart)
		if end > r.Makespan {
			r.Makespan = end
		}
		// Barrier: the next block starts once every task of this block has
		// completed.
		blockStart = end
	}
	return r, nil
}

// newResult allocates a Result over part with every PE unassigned.
func newResult(part Partition, n int) *Result {
	r := &Result{
		Partition:  part,
		ST:         make([]float64, n),
		FO:         make([]float64, n),
		LO:         make([]float64, n),
		So:         make([]float64, n),
		Si:         make([]float64, n),
		Comp:       make([]int, n),
		PE:         make([]int, n),
		BlockStart: make([]float64, len(part.Blocks)),
	}
	for v := range r.PE {
		r.PE[v] = -1
	}
	return r
}

// bucketByBlock stably counting-sorts the global topological order by
// block, so each block's bucket is its nodes in global topological order
// (a valid order for the block's recurrences).
func (s *Scheduler) bucketByBlock(t *core.TaskGraph, part Partition) {
	nb := len(part.Blocks)
	if cap(s.order) < t.G.Len() {
		s.order = make([]graph.NodeID, t.G.Len())
	}
	s.order = s.order[:t.G.Len()]
	// start[b+1] begins as block b's first slot and is advanced past every
	// node placed, so it ends as block b's end, which is block b+1's start.
	s.start = scratch.GrowInt32s(s.start, nb+1)
	for b := 0; b+1 < nb; b++ {
		s.start[b+2] = s.start[b+1] + int32(len(part.Blocks[b].Nodes))
	}
	for _, v := range t.G.Topo() {
		b := part.BlockOf[v]
		s.order[s.start[b+1]] = v
		s.start[b+1]++
	}
}

// blockIntervals computes block-local streaming intervals (Theorem 4.1 on
// the subgraph induced by the block, after buffer splitting) and stores them
// into r.So/r.Si/r.Comp. compBase offsets component IDs so they stay unique
// across blocks; the new base is returned.
//
// The buffer-split subgraph is never materialized: local index i is block
// node i (the tail side of a buffer), and each buffer's head side is
// appended after the block's nodes, in block order. Components come from a
// union-find that links the larger root under the smaller, so every root is
// its component's smallest member and numbering roots in index order is
// exactly graph.DAG.WCC's dense order by smallest member.
func (s *Scheduler) blockIntervals(r *Result, t *core.TaskGraph, part Partition, bi, compBase int) int {
	blk := part.Blocks[bi]
	m := int32(len(blk.Nodes))
	for i, v := range blk.Nodes {
		s.local[v] = int32(i)
		s.side[v] = int32(i)
	}
	for _, v := range blk.Nodes {
		if t.Nodes[v].Kind == core.Buffer {
			s.side[v] = m
			m++
		}
	}
	parent := scratch.GrowInt32s(s.parent, int(m))
	s.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	for _, v := range blk.Nodes {
		from := s.side[v]
		for _, w := range t.G.Succs(v) {
			if part.BlockOf[w] == bi { // cross-block edges are buffered, not streamed
				union(parent, from, s.local[w])
			}
		}
	}
	comp := scratch.GrowInt32s(s.comp, int(m))
	s.comp = comp
	count := int32(0)
	for i := int32(0); i < m; i++ {
		if root := find(parent, i); root == i {
			comp[i] = count
			count++
		} else {
			comp[i] = comp[root]
		}
	}

	maxOut := scratch.GrowInts(s.maxOut, int(count))
	s.maxOut = maxOut
	for i, v := range blk.Nodes {
		node := t.Nodes[v]
		out := node.Out
		if node.Kind == core.Buffer {
			out = 0 // tail side produces nothing downstream
			// The head side replays the buffered content at its own volume.
			if h := comp[s.side[v]]; node.Out > maxOut[h] {
				maxOut[h] = node.Out
			}
		}
		// A node that ingests data produced outside this stream (a block
		// source re-reading memory, or a buffer tail) is still rate-limited
		// to one element per cycle per input edge, so its input volume
		// bounds the component period too. For nodes fed within the
		// component this is a no-op: their In equals the producer's Out,
		// which is already counted.
		if node.Kind != core.Source && t.G.InDegree(v) > 0 && node.In > out {
			out = node.In
		}
		if c := comp[i]; out > maxOut[c] {
			maxOut[c] = out
		}
	}

	for i, v := range blk.Nodes {
		h := comp[s.side[v]]
		r.Comp[v] = compBase + int(h)
		r.setIntervals(t, v, maxOut[h], maxOut[comp[i]])
	}
	return compBase + int(count)
}

// find returns the root of x, halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union merges the sets of a and b under the smaller of the two roots.
func union(parent []int32, a, b int32) {
	ra, rb := find(parent, a), find(parent, b)
	switch {
	case ra < rb:
		parent[rb] = ra
	case rb < ra:
		parent[ra] = rb
	}
}

// setIntervals stores v's streaming intervals from the largest volume of
// the component on its head (output) side and on its tail (input) side.
func (r *Result) setIntervals(t *core.TaskGraph, v graph.NodeID, headMax, tailMax int64) {
	node := t.Nodes[v]
	if node.Kind != core.Sink && node.Out > 0 {
		r.So[v] = float64(headMax) / float64(node.Out)
		if r.So[v] < 1 {
			r.So[v] = 1
		}
	}
	if node.Kind != core.Source && node.In > 0 {
		r.Si[v] = float64(tailMax) / float64(node.In)
		if r.Si[v] < 1 {
			r.Si[v] = 1
		}
	}
}

// assignPEs gives each computational node of the block a PE index.
func (r *Result) assignPEs(t *core.TaskGraph, blk Block) {
	pe := 0
	for _, v := range blk.Nodes {
		if countsTowardP(t, v) {
			r.PE[v] = pe
			pe++
		}
	}
}

// blockTimes evaluates the ST/FO/LO recurrences of Section 5.1 for block bi,
// whose nodes are the bucket order[start[bi]:start[bi+1]] in topological
// order, and returns the completion time of the block (max LO over its
// nodes).
func (s *Scheduler) blockTimes(r *Result, t *core.TaskGraph, blockOf []int, bi int, blockStart float64) float64 {
	end := blockStart
	for _, v := range s.order[s.start[bi]:s.start[bi+1]] {
		in := newPredSummary()
		for _, u := range t.G.Preds(v) {
			in.add(r, t, u, blockOf[u] == bi, s.bufferFill)
		}
		if lo := r.nodeTimes(t, v, blockStart, in, s.bufferFill); lo > end {
			end = lo
		}
	}
	return end
}

// predSummary is what the Section 5.1 recurrences need to know about a
// node's predecessors.
type predSummary struct {
	maxInFO   float64 // max FO over in-block predecessors
	maxOutLO  float64 // max (memory-availability) over cross-block predecessors
	maxPredLO float64 // max LO over all predecessors (block-local view)
	hasInPred bool
}

func newPredSummary() predSummary {
	return predSummary{maxInFO: math.Inf(-1), maxOutLO: math.Inf(-1), maxPredLO: math.Inf(-1)}
}

// add folds predecessor u, in the node's block or not, into the summary.
func (in *predSummary) add(r *Result, t *core.TaskGraph, u graph.NodeID, inBlock bool, bufferFill []float64) {
	if inBlock {
		in.hasInPred = true
		if r.FO[u] > in.maxInFO {
			in.maxInFO = r.FO[u]
		}
		if r.LO[u] > in.maxPredLO {
			in.maxPredLO = r.LO[u]
		}
		return
	}
	avail := r.LO[u]
	if t.Nodes[u].Kind == core.Buffer {
		avail = bufferFill[u] // data is in memory once the tail filled
	}
	if avail > in.maxOutLO {
		in.maxOutLO = avail
	}
	if avail > in.maxPredLO {
		in.maxPredLO = avail
	}
}

// nodeTimes applies the Section 5.1 recurrences to v, given the summary of
// its predecessors, and returns its last-out time.
func (r *Result) nodeTimes(t *core.TaskGraph, v graph.NodeID, blockStart float64, in predSummary, bufferFill []float64) float64 {
	node := t.Nodes[v]
	rate := node.Rate()
	switch {
	case node.Kind == core.Sink:
		// Sinks absorb into memory; the last element arrives when the
		// slowest producer emits it.
		r.ST[v] = math.Max(blockStart, in.maxInFO)
		if !in.hasInPred {
			r.ST[v] = math.Max(blockStart, in.maxOutLO)
		}
		r.FO[v] = math.Max(blockStart, in.maxPredLO)
		r.LO[v] = r.FO[v]

	case node.Kind == core.Buffer:
		// A buffer waits for the completion of all preceding tasks,
		// then emits O elements at its head interval.
		base := math.Max(blockStart, in.maxPredLO)
		if math.IsInf(base, -1) {
			base = blockStart
		}
		bufferFill[v] = base
		r.ST[v] = base
		r.FO[v] = base + 1
		r.LO[v] = base + math.Ceil((float64(node.Out)-1)*r.So[v]) + 1

	case t.G.InDegree(v) == 0:
		// Source of the whole task graph (explicit Source node or an
		// entry computational task reading from memory).
		r.ST[v] = blockStart
		r.FO[v] = blockStart + 1
		r.LO[v] = blockStart + math.Ceil((float64(node.Out)-1)*r.So[v]) + 1

	case !in.hasInPred:
		// Source of the block but not of the graph: waits for the
		// completion of tasks in previous blocks, then streams its data
		// from memory. Unlike a graph source it has a real input volume;
		// re-reading it at one element per cycle floors the last-out
		// time at In cycles.
		base := math.Max(blockStart, in.maxOutLO)
		r.ST[v] = base
		if rate > 0 && rate < 1 {
			r.FO[v] = base + math.Ceil((1/rate-1)*r.Si[v]) + 1
		} else {
			r.FO[v] = base + 1
		}
		r.LO[v] = base + math.Max(
			math.Ceil((float64(node.Out)-1)*r.So[v])+1,
			float64(node.In))
		if fo := r.FO[v]; r.LO[v] < fo {
			r.LO[v] = fo
		}

	default:
		// Interior node of the block: Equation (3) and the first-out
		// recurrence. Mixed predecessors (some cross-block) contribute
		// their memory availability to the start.
		base := math.Max(blockStart, in.maxInFO)
		if !math.IsInf(in.maxOutLO, -1) {
			base = math.Max(base, in.maxOutLO)
		}
		r.ST[v] = base
		if rate > 0 && rate < 1 {
			r.FO[v] = base + math.Ceil((1/rate-1)*r.Si[v]) + 1
		} else {
			r.FO[v] = base + 1
		}
		loBase := math.Max(blockStart, in.maxPredLO)
		if rate > 1 {
			r.LO[v] = loBase + math.Ceil((rate-1)*r.So[v]) + 1
		} else {
			r.LO[v] = loBase + 1
		}
		if r.LO[v] < r.FO[v] {
			r.LO[v] = r.FO[v]
		}
	}
	return r.LO[v]
}

// SequentialTime returns T1: the sum of node works, i.e. the single-PE
// execution time (Section 4.2).
func SequentialTime(t *core.TaskGraph) float64 { return t.Work() }

// Speedup returns T1 / makespan for this schedule.
func (r *Result) Speedup(t *core.TaskGraph) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return SequentialTime(t) / r.Makespan
}

// SSLR returns the Streaming Scheduling Length Ratio: makespan divided by
// the streaming depth T_s-infinity of the DAG (Section 7, comparison
// metrics). It is >= 1 and reaches 1 when the schedule matches the
// infinite-PE single-block execution.
func (r *Result) SSLR(t *core.TaskGraph) float64 {
	d := StreamingDepth(t)
	if d == 0 {
		return math.Inf(1)
	}
	return r.Makespan / d
}

// Utilization returns T1 / (P * makespan): the average fraction of the
// device kept busy.
func (r *Result) Utilization(t *core.TaskGraph, p int) float64 {
	if r.Makespan == 0 || p == 0 {
		return 0
	}
	return SequentialTime(t) / (float64(p) * r.Makespan)
}

// String summarizes the schedule for debugging.
func (r *Result) String() string {
	return fmt.Sprintf("schedule{blocks=%d makespan=%g}", len(r.Partition.Blocks), r.Makespan)
}
