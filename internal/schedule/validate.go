package schedule

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// Validate checks the invariants every schedule of a frozen graph on P
// processing elements must satisfy, the counterpart of Partition.Validate
// (which it runs first):
//
//   - every per-node slice covers the graph and BlockStart covers the blocks;
//   - BlockStart is non-decreasing from 0, and every node starts no earlier
//     than its block's barrier;
//   - ST <= FO <= LO for every node;
//   - in-block precedence: a node starts no earlier than the first output
//     of each predecessor in its block;
//   - cross-block memory availability: a node starts no earlier than the
//     last output of each predecessor in an earlier block;
//   - within each block, computational nodes hold distinct PEs in [0, P)
//     and passive nodes hold -1;
//   - Makespan is the largest last-out time (0 for an empty graph).
//
// It runs in O(V + E + V log P) and reports the first violation found.
func (r *Result) Validate(t *core.TaskGraph, p int) error {
	if err := r.Partition.Validate(t, p); err != nil {
		return err
	}
	n := t.G.Len()
	for _, s := range []struct {
		name string
		len  int
	}{
		{"ST", len(r.ST)}, {"FO", len(r.FO)}, {"LO", len(r.LO)},
		{"So", len(r.So)}, {"Si", len(r.Si)}, {"Comp", len(r.Comp)}, {"PE", len(r.PE)},
	} {
		if s.len != n {
			return fmt.Errorf("schedule: %s covers %d of %d nodes", s.name, s.len, n)
		}
	}
	if len(r.BlockStart) != len(r.Partition.Blocks) {
		return fmt.Errorf("schedule: BlockStart covers %d of %d blocks", len(r.BlockStart), len(r.Partition.Blocks))
	}
	prev := 0.0
	for b, s := range r.BlockStart {
		if s < prev {
			return fmt.Errorf("schedule: block %d starts at %g, before block %d's %g", b, s, b-1, prev)
		}
		prev = s
	}

	maxLO := 0.0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		b := r.Partition.BlockOf[v]
		if r.ST[v] < r.BlockStart[b] {
			return fmt.Errorf("schedule: node %d starts at %g, before block %d's barrier %g", v, r.ST[v], b, r.BlockStart[b])
		}
		if !(r.ST[v] <= r.FO[v] && r.FO[v] <= r.LO[v]) {
			return fmt.Errorf("schedule: node %d has ST=%g FO=%g LO=%g, want ST <= FO <= LO", v, r.ST[v], r.FO[v], r.LO[v])
		}
		for _, u := range t.G.Preds(id) {
			switch {
			case r.Partition.BlockOf[u] == b && r.ST[v] < r.FO[u]:
				return fmt.Errorf("schedule: node %d starts at %g, before in-block predecessor %d's first output %g", v, r.ST[v], u, r.FO[u])
			case r.Partition.BlockOf[u] < b && r.ST[v] < r.LO[u]:
				return fmt.Errorf("schedule: node %d starts at %g, before predecessor %d in block %d is in memory at %g", v, r.ST[v], u, r.Partition.BlockOf[u], r.LO[u])
			}
		}
		if r.LO[v] > maxLO {
			maxLO = r.LO[v]
		}
	}
	if r.Makespan != maxLO {
		return fmt.Errorf("schedule: makespan %g, largest last-out time %g", r.Makespan, maxLO)
	}

	var pes []int
	for bi, blk := range r.Partition.Blocks {
		pes = pes[:0]
		for _, v := range blk.Nodes {
			pe := r.PE[v]
			if !countsTowardP(t, v) {
				if pe != -1 {
					return fmt.Errorf("schedule: passive node %d holds PE %d", v, pe)
				}
				continue
			}
			if pe < 0 || pe >= p {
				return fmt.Errorf("schedule: node %d holds PE %d, outside [0, %d)", v, pe, p)
			}
			pes = append(pes, pe)
		}
		slices.Sort(pes)
		for i := 1; i < len(pes); i++ {
			if pes[i] == pes[i-1] {
				return fmt.Errorf("schedule: block %d assigns PE %d twice", bi, pes[i])
			}
		}
	}
	return nil
}
