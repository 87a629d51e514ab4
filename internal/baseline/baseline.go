// Package baseline implements the non-streaming scheduler (NSTR-SCH) the
// paper compares against in Section 7: a classical critical-path list-based
// scheduler for homogeneous processing elements with bottom-level priorities
// (in the spirit of CP/MISF) and insertion-slot placement. All
// communications are buffered: a task can only start once every predecessor
// has finished, and it runs for its full work W(v) = max{I(v), O(v)}.
//
// The entry point is Schedule (frozen graph, PE count, Options) returning
// a Result with per-task assignments, makespan, and the Speedup/SLR/
// Utilization accessors the NSTR cells report. Scheduling is fully
// deterministic — priorities break ties by node ID — so baseline cells are
// cacheable by graph content like every other variant's.
package baseline

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Options configures the list scheduler.
type Options struct {
	// Insertion enables insertion-slot placement: a ready task may be
	// placed into an idle gap of a PE's timeline if it fits, instead of
	// only being appended at the end. This is the policy used for the
	// paper's NSTR-SCH baseline; disabling it gives classic end-append
	// list scheduling for ablation.
	Insertion bool
}

// Assignment records where and when one task runs.
type Assignment struct {
	PE          int
	Start, End  float64
	BottomLevel float64
}

// Result is a complete non-streaming schedule.
type Result struct {
	// Tasks maps every node to its assignment. Passive nodes (buffers,
	// sources, sinks) do not occupy a PE: their PE is -1 and Start == End
	// marks the instant their data became available.
	Tasks []Assignment
	// Makespan is the maximum finish time over all nodes.
	Makespan float64
	// P is the number of processing elements used.
	P int
}

// Speedup returns T1 / makespan.
func (r *Result) Speedup(t *core.TaskGraph) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return t.Work() / r.Makespan
}

// SLR returns the classical Scheduling Length Ratio: makespan over the
// critical-path length (work-weighted longest path).
func (r *Result) SLR(t *core.TaskGraph) float64 {
	cp := t.CriticalPath()
	if cp == 0 {
		return math.Inf(1)
	}
	return r.Makespan / cp
}

// Utilization returns T1 / (P * makespan).
func (r *Result) Utilization(t *core.TaskGraph) float64 {
	if r.Makespan == 0 || r.P == 0 {
		return 0
	}
	return t.Work() / (float64(r.P) * r.Makespan)
}

// slot is one busy interval on a PE timeline.
type slot struct{ start, end float64 }

// timeline is the ordered busy list of one PE.
type timeline struct{ busy []slot }

// place returns the earliest start >= ready at which a task of length dur
// fits on this timeline, considering idle gaps when insertion is enabled.
func (tl *timeline) place(ready, dur float64, insertion bool) float64 {
	if len(tl.busy) == 0 {
		return ready
	}
	if insertion {
		// Gap before the first slot.
		if start := ready; start+dur <= tl.busy[0].start {
			return start
		}
		for i := 0; i+1 < len(tl.busy); i++ {
			start := math.Max(ready, tl.busy[i].end)
			if start+dur <= tl.busy[i+1].start {
				return start
			}
		}
	}
	return math.Max(ready, tl.busy[len(tl.busy)-1].end)
}

// insert adds the busy interval keeping the list ordered.
func (tl *timeline) insert(start, end float64) {
	i := sort.Search(len(tl.busy), func(i int) bool { return tl.busy[i].start >= start })
	tl.busy = append(tl.busy, slot{})
	copy(tl.busy[i+1:], tl.busy[i:])
	tl.busy[i] = slot{start, end}
}

// readyItem is a heap entry ordered by descending bottom level (critical
// tasks first), tie-broken by node ID for determinism.
type readyItem struct {
	node graph.NodeID
	bl   float64
}

type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].bl != h[j].bl {
		return h[i].bl > h[j].bl
	}
	return h[i].node < h[j].node
}
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)         { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any           { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func (h *readyHeap) PopItem() readyItem { return heap.Pop(h).(readyItem) }

// Schedule computes the buffered-communication schedule of a canonical task
// graph on p homogeneous PEs.
func Schedule(t *core.TaskGraph, p int, opt Options) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("baseline: need at least one PE, got %d", p)
	}
	n := t.G.Len()
	work := make([]float64, n)
	for v, node := range t.Nodes {
		work[v] = node.Work()
	}
	bl := t.G.BottomLevels(work)

	res := &Result{Tasks: make([]Assignment, n), P: p}
	for v := range res.Tasks {
		res.Tasks[v] = Assignment{PE: -1, BottomLevel: bl[v]}
	}

	pes := make([]timeline, p)
	remIn := make([]int, n)
	finish := make([]float64, n)
	scheduled := make([]bool, n)
	ready := &readyHeap{}
	for v := 0; v < n; v++ {
		remIn[v] = t.G.InDegree(graph.NodeID(v))
		if remIn[v] == 0 {
			heap.Push(ready, readyItem{node: graph.NodeID(v), bl: bl[v]})
		}
	}

	done := 0
	for ready.Len() > 0 {
		it := ready.PopItem()
		v := it.node
		node := t.Nodes[v]

		// Data-ready time: every predecessor has finished. The NoC is
		// contention free and communications go through global memory, so
		// no transfer latency term is added (computation costs already
		// account for moving the data, per Section 8's model discussion).
		dataReady := 0.0
		for _, u := range t.G.Preds(v) {
			if finish[u] > dataReady {
				dataReady = finish[u]
			}
		}

		if node.Kind == core.Compute {
			bestPE, bestStart := -1, math.Inf(1)
			for pe := range pes {
				s := pes[pe].place(dataReady, work[v], opt.Insertion)
				if s < bestStart {
					bestStart, bestPE = s, pe
				}
			}
			end := bestStart + work[v]
			pes[bestPE].insert(bestStart, end)
			res.Tasks[v] = Assignment{PE: bestPE, Start: bestStart, End: end, BottomLevel: bl[v]}
			finish[v] = end
		} else {
			// Passive node: data flows through memory instantaneously once
			// producers finished; buffers/sources/sinks take no PE time in
			// the buffered model (their cost is folded into the producing
			// and consuming tasks' work).
			res.Tasks[v] = Assignment{PE: -1, Start: dataReady, End: dataReady, BottomLevel: bl[v]}
			finish[v] = dataReady
		}
		if finish[v] > res.Makespan {
			res.Makespan = finish[v]
		}
		scheduled[v] = true
		done++

		for _, w := range t.G.Succs(v) {
			remIn[w]--
			if remIn[w] == 0 {
				heap.Push(ready, readyItem{node: w, bl: bl[w]})
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("baseline: scheduled %d of %d nodes (cycle?)", done, n)
	}
	return res, nil
}
