package buffers

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// sizesReference is the map-based transcription of Equation 5 that Sizes
// replaced: five maps per block, adjacency lists materialized for the
// 2-core peel. It is kept as the executable specification Sizes is
// differentially tested against.
func sizesReference(t *core.TaskGraph, r *schedule.Result) []EdgeSpace {
	var out []EdgeSpace
	for _, blk := range r.Partition.Blocks {
		out = append(out, sizeBlockReference(t, r, blk)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func sizeBlockReference(t *core.TaskGraph, r *schedule.Result, blk schedule.Block) []EdgeSpace {
	inBlk := make(map[graph.NodeID]bool, len(blk.Nodes))
	for _, v := range blk.Nodes {
		inBlk[v] = true
	}
	streaming := func(u, v graph.NodeID) bool {
		return inBlk[u] && inBlk[v] && r.Partition.Streaming(t, u, v)
	}
	inBlockEdge := func(u, v graph.NodeID) bool { return inBlk[u] && inBlk[v] }

	onCycle := cycleNodesReference(t, blk, inBlockEdge)

	var out []EdgeSpace
	for _, v := range blk.Nodes {
		var preds []graph.NodeID
		for _, u := range t.G.Preds(v) {
			if streaming(u, v) {
				preds = append(preds, u)
			}
		}
		if len(preds) == 0 {
			continue
		}
		maxFO := math.Inf(-1)
		nPreds := 0
		for _, u := range t.G.Preds(v) {
			if inBlockEdge(u, v) {
				nPreds++
				if r.FO[u] > maxFO {
					maxFO = r.FO[u]
				}
			}
		}
		for _, u := range preds {
			space := int64(MinDepth)
			cyc := onCycle[v] && nPreds > 1
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
					space = vol
				}
			}
			out = append(out, EdgeSpace{From: u, To: v, Space: space, OnCycle: cyc})
		}
	}
	return out
}

func cycleNodesReference(t *core.TaskGraph, blk schedule.Block, inBlockEdge func(u, v graph.NodeID) bool) map[graph.NodeID]bool {
	const virtual = graph.NodeID(-2) // super-source sentinel
	deg := make(map[graph.NodeID]int, len(blk.Nodes))
	adj := make(map[graph.NodeID][]graph.NodeID, len(blk.Nodes))
	for _, v := range blk.Nodes {
		for _, w := range t.G.Succs(v) {
			if inBlockEdge(v, w) {
				deg[v]++
				deg[w]++
				adj[v] = append(adj[v], w)
				adj[w] = append(adj[w], v)
			}
		}
	}
	for _, v := range blk.Nodes {
		entry := deg[v] > 0
		for _, u := range t.G.Preds(v) {
			if inBlockEdge(u, v) {
				entry = false
				break
			}
		}
		if entry {
			deg[v]++
			deg[virtual]++
			adj[v] = append(adj[v], virtual)
			adj[virtual] = append(adj[virtual], v)
		}
	}
	var queue []graph.NodeID
	removed := make(map[graph.NodeID]bool)
	for _, v := range blk.Nodes {
		if deg[v] < 2 {
			queue = append(queue, v)
			removed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < 2 {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}
	onCycle := make(map[graph.NodeID]bool)
	for _, v := range blk.Nodes {
		if deg[v] >= 2 && !removed[v] {
			onCycle[v] = true
		}
	}
	return onCycle
}

// diffSizes asserts Sizes reproduces sizesReference exactly on one
// schedule.
func diffSizes(t *testing.T, label string, tg *core.TaskGraph, part schedule.Partition, p int) {
	t.Helper()
	r, err := schedule.Schedule(tg, part, p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, got := sizesReference(tg, r), Sizes(tg, r)
	if len(want) != len(got) {
		t.Fatalf("%s: %d sized edges, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: edge %d is %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestSizesMatchReference: the slice-backed Sizes equals the map-based
// reference on the paper's examples, every synthetic family and the ONNX
// model graphs (buffer nodes inside blocks), under single-block and
// Algorithm 1 partitions.
func TestSizesMatchReference(t *testing.T) {
	graphs := map[string]*core.TaskGraph{}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := synth.DefaultConfig()
		graphs[fmt.Sprintf("chain/s%d", seed)] = synth.Chain(1+rng.Intn(30), rng, cfg)
		graphs[fmt.Sprintf("fft/s%d", seed)] = synth.FFT(1<<(2+rng.Intn(4)), rng, cfg)
		graphs[fmt.Sprintf("gaussian/s%d", seed)] = synth.Gaussian(2+rng.Intn(16), rng, cfg)
		graphs[fmt.Sprintf("cholesky/s%d", seed)] = synth.Cholesky(1+rng.Intn(8), rng, cfg)
	}
	var err error
	if graphs["mlp"], err = onnx.MLP(onnx.MLPConfig{Batch: 64, Layers: []int64{256, 512, 512, 128, 10}}); err != nil {
		t.Fatal(err)
	}
	if graphs["encoder"], err = onnx.TransformerEncoder(onnx.TinyEncoder()); err != nil {
		t.Fatal(err)
	}
	if graphs["resnet"], err = onnx.ResNet50(onnx.TinyResNet50()); err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() *core.TaskGraph{"fig9-1": fig9Graph1, "fig9-2": fig9Graph2} {
		tg := build()
		if err := tg.Freeze(); err != nil {
			t.Fatal(err)
		}
		graphs[name] = tg
	}
	for name, tg := range graphs {
		diffSizes(t, name+"/single", tg, schedule.AllInOneBlock(tg), max(1, tg.NumComputeNodes()))
		for _, p := range []int{2, 8, 64} {
			for _, v := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
				part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: v})
				if err != nil {
					t.Fatal(err)
				}
				diffSizes(t, fmt.Sprintf("%s/p%d/%v", name, p, v), tg, part, p)
			}
		}
	}
}
