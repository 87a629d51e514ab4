package schedule_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// cloneResult deep-copies the per-node and per-block slices of r.
func cloneResult(r *schedule.Result) *schedule.Result {
	c := *r
	c.ST, c.FO, c.LO = slices.Clone(r.ST), slices.Clone(r.FO), slices.Clone(r.LO)
	c.So, c.Si = slices.Clone(r.So), slices.Clone(r.Si)
	c.Comp, c.PE = slices.Clone(r.Comp), slices.Clone(r.PE)
	c.BlockStart = slices.Clone(r.BlockStart)
	return &c
}

// TestResultValidateCatchesBrokenSchedules corrupts one invariant at a time
// on a multi-block schedule with buffer nodes and expects Validate to name
// it; the uncorrupted schedule must pass.
func TestResultValidateCatchesBrokenSchedules(t *testing.T) {
	tg := onnxGraph(t, "mlp")
	const p = 16
	part, err := schedule.PartitionLTS(tg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(tg, p); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if part.NumBlocks() < 2 {
		t.Fatalf("want a multi-block schedule, got %d blocks", part.NumBlocks())
	}

	// Pick one in-block and one cross-block edge, a sink, a passive node,
	// and a block with two compute nodes.
	var inU, inV, crossU, crossV, passive graph.NodeID = -1, -1, -1, -1, -1
	for v := 0; v < tg.G.Len(); v++ {
		for _, u := range tg.G.Preds(graph.NodeID(v)) {
			if part.BlockOf[u] == part.BlockOf[v] && inU < 0 {
				inU, inV = u, graph.NodeID(v)
			}
			if part.BlockOf[u] < part.BlockOf[v] && crossU < 0 {
				crossU, crossV = u, graph.NodeID(v)
			}
		}
		if tg.Nodes[v].Kind != core.Compute && passive < 0 {
			passive = graph.NodeID(v)
		}
	}
	sink := tg.G.Sinks()[0]
	var pair []graph.NodeID
	for _, blk := range part.Blocks {
		pair = pair[:0]
		for _, v := range blk.Nodes {
			if tg.Nodes[v].Kind == core.Compute {
				pair = append(pair, v)
			}
		}
		if len(pair) >= 2 {
			break
		}
	}
	if inU < 0 || crossU < 0 || passive < 0 || len(pair) < 2 {
		t.Fatal("fixture lacks an in-block edge, a cross-block edge, a passive node or a two-PE block")
	}

	cases := []struct {
		name    string
		corrupt func(r *schedule.Result)
		want    string
	}{
		{"short slice", func(r *schedule.Result) { r.LO = r.LO[:len(r.LO)-1] }, "LO covers"},
		{"barrier order", func(r *schedule.Result) { r.BlockStart[1] = r.BlockStart[0] - 1 }, "before block 0"},
		{"before barrier", func(r *schedule.Result) {
			b := part.BlockOf[crossV]
			r.ST[crossV] = r.BlockStart[b] - 1
		}, "barrier"},
		{"FO after LO", func(r *schedule.Result) { r.FO[sink] = r.LO[sink] + 1 }, "ST <= FO <= LO"},
		{"in-block precedence", func(r *schedule.Result) { r.ST[inV] = r.FO[inU] - 0.5 }, "in-block predecessor"},
		{"memory availability", func(r *schedule.Result) { r.LO[crossU] = r.ST[crossV] + 1 }, "in memory"},
		{"makespan", func(r *schedule.Result) { r.Makespan++ }, "makespan"},
		{"passive PE", func(r *schedule.Result) { r.PE[passive] = 0 }, "passive node"},
		{"PE range", func(r *schedule.Result) { r.PE[pair[0]] = p }, "outside [0, 16)"},
		{"PE twice", func(r *schedule.Result) { r.PE[pair[1]] = r.PE[pair[0]] }, "twice"},
	}
	for _, tc := range cases {
		r := cloneResult(res)
		tc.corrupt(r)
		err := r.Validate(tg, p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
