package schedule_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// compareFloats asserts bit-identical float slices.
func compareFloats(t *testing.T, label, field string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %s has %d entries, reference %d", label, field, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: %s[%d] = %g, reference %g", label, field, i, got[i], want[i])
		}
	}
}

// compareInts asserts identical int slices.
func compareInts(t *testing.T, label, field string, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %s has %d entries, reference %d", label, field, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: %s[%d] = %d, reference %d", label, field, i, got[i], want[i])
		}
	}
}

// compareResults asserts byte-identical schedules: every per-node slice,
// the block barriers and the makespan.
func compareResults(t *testing.T, label string, want, got *schedule.Result) {
	t.Helper()
	compareFloats(t, label, "ST", want.ST, got.ST)
	compareFloats(t, label, "FO", want.FO, got.FO)
	compareFloats(t, label, "LO", want.LO, got.LO)
	compareFloats(t, label, "So", want.So, got.So)
	compareFloats(t, label, "Si", want.Si, got.Si)
	compareInts(t, label, "Comp", want.Comp, got.Comp)
	compareInts(t, label, "PE", want.PE, got.PE)
	compareFloats(t, label, "BlockStart", want.BlockStart, got.BlockStart)
	if math.Float64bits(want.Makespan) != math.Float64bits(got.Makespan) {
		t.Fatalf("%s: makespan %g, reference %g", label, got.Makespan, want.Makespan)
	}
}

// diffSchedule schedules one partition on the reference and on both fast
// entry points (package-level and a caller-supplied reused Scheduler),
// asserting identical Results or identical errors, and validates the
// schedule.
func diffSchedule(t *testing.T, label string, sched *schedule.Scheduler, tg *core.TaskGraph, part schedule.Partition, p int) {
	t.Helper()
	want, wantErr := schedule.ScheduleReference(tg, part, p)
	for _, fast := range []struct {
		name string
		run  func() (*schedule.Result, error)
	}{
		{"Schedule", func() (*schedule.Result, error) { return schedule.Schedule(tg, part, p) }},
		{"reused", func() (*schedule.Result, error) { return sched.Schedule(tg, part, p) }},
	} {
		got, gotErr := fast.run()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s/%s: fast error %v, reference error %v", label, fast.name, gotErr, wantErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s/%s: fast error %q, reference error %q", label, fast.name, gotErr, wantErr)
			}
			continue
		}
		compareResults(t, label+"/"+fast.name, want, got)
	}
	if wantErr == nil {
		if err := want.Validate(tg, p); err != nil {
			t.Fatalf("%s: invalid schedule: %v", label, err)
		}
	}
}

// nodePerBlock puts every node in its own block, in topological order: the
// most blocks a partition can have, and every edge crosses blocks.
func nodePerBlock(tg *core.TaskGraph) schedule.Partition {
	part := schedule.Partition{BlockOf: make([]int, tg.G.Len())}
	for _, v := range tg.G.Topo() {
		b := schedule.Block{Nodes: []graph.NodeID{v}}
		if tg.Nodes[v].Kind == core.Compute {
			b.ComputeCount = 1
		}
		part.BlockOf[v] = len(part.Blocks)
		part.Blocks = append(part.Blocks, b)
	}
	return part
}

// diffPartitions runs diffSchedule over the structurally different
// partitions of one graph: a single block, one node per block, the
// level-order scheme, and Algorithm 1 (both variants) at each PE count.
func diffPartitions(t *testing.T, label string, sched *schedule.Scheduler, tg *core.TaskGraph, pes []int) {
	t.Helper()
	all := max(1, tg.NumComputeNodes())
	diffSchedule(t, label+"/single", sched, tg, schedule.AllInOneBlock(tg), all)
	diffSchedule(t, label+"/per-node", sched, tg, nodePerBlock(tg), 1)
	for _, p := range pes {
		for _, v := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
			part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: v})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffSchedule(t, fmt.Sprintf("%s/p%d/%v", label, p, v), sched, tg, part, p)
		}
		part, err := schedule.PartitionLevelOrder(tg, p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		diffSchedule(t, fmt.Sprintf("%s/p%d/level", label, p), sched, tg, part, p)
	}
}

func frozen(t testing.TB, tg *core.TaskGraph) *core.TaskGraph {
	t.Helper()
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestFastScheduleMatchesReference is the table-driven differential harness
// of the scheduler: goldens, the paper's worked examples, every synthetic
// family, and the ONNX model graphs (buffer nodes on every MatMul), each
// under single-block, one-node-per-block, level-order and Algorithm 1
// partitions, must schedule byte-identically on the fast and reference
// paths.
func TestFastScheduleMatchesReference(t *testing.T) {
	sched := schedule.NewScheduler() // shared by all cases: reuse must not leak state
	pes := []int{1, 3, 8, 64}

	t.Run("golden", func(t *testing.T) {
		for _, name := range []string{"chain", "fft", "gaussian", "cholesky", "diamond"} {
			diffPartitions(t, name, sched, goldenGraph(t, name), pes)
		}
	})
	t.Run("paper", func(t *testing.T) {
		for name, build := range map[string]func() *core.TaskGraph{
			"fig8": schedule.Fig8Graph, "fig9-1": schedule.Fig9Graph1, "fig9-2": schedule.Fig9Graph2,
		} {
			diffPartitions(t, name, sched, frozen(t, build()), pes)
		}
	})
	t.Run("synth", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := synth.DefaultConfig()
			if seed%2 == 0 {
				cfg = synth.SmallConfig()
			}
			graphs := map[string]*core.TaskGraph{
				"chain":    synth.Chain(1+rng.Intn(40), rng, cfg),
				"fft":      synth.FFT(1<<(2+rng.Intn(4)), rng, cfg),
				"gaussian": synth.Gaussian(2+rng.Intn(20), rng, cfg),
				"cholesky": synth.Cholesky(1+rng.Intn(9), rng, cfg),
			}
			for name, tg := range graphs {
				diffPartitions(t, fmt.Sprintf("s%d/%s", seed, name), sched, tg, pes)
			}
		}
	})
	t.Run("onnx", func(t *testing.T) {
		for _, name := range []string{"mlp", "resnet", "encoder", "vgg"} {
			diffPartitions(t, name, sched, onnxGraph(t, name), []int{1, 16, 256})
		}
	})
	t.Run("rejects", func(t *testing.T) {
		tg := goldenGraph(t, "chain")
		part := nodePerBlock(tg)
		part.Blocks[0], part.Blocks[1] = part.Blocks[1], part.Blocks[0]
		part.BlockOf[part.Blocks[0].Nodes[0]], part.BlockOf[part.Blocks[1].Nodes[0]] = 0, 1
		diffSchedule(t, "backward", sched, tg, part, 1)
		diffSchedule(t, "over-capacity", sched, tg, schedule.AllInOneBlock(tg), 1)
	})
}

// FuzzScheduleFastVsReference fuzzes the same contract: random graph
// families x sizes x partition shapes x PE counts, on a Scheduler reused
// twice in a row, with every fast Result validated.
func FuzzScheduleFastVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(32), uint8(1), uint8(3))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(9))
	f.Add(int64(9), uint8(3), uint8(64), uint8(3), uint8(5))
	f.Add(int64(5), uint8(4), uint8(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(5), uint8(16), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, family, pes, shape, size uint8) {
		p := int(pes)%96 + 1
		rng := rand.New(rand.NewSource(seed))
		cfg := synth.DefaultConfig()
		if seed%2 == 0 {
			cfg = synth.SmallConfig()
		}
		var tg *core.TaskGraph
		switch family % 6 {
		case 0:
			tg = synth.Chain(int(size)%48+1, rng, cfg)
		case 1:
			tg = synth.FFT(1<<(int(size)%5+1), rng, cfg)
		case 2:
			tg = synth.Gaussian(int(size)%24+2, rng, cfg)
		case 3:
			tg = synth.Cholesky(int(size)%10+1, rng, cfg)
		case 4:
			tg = goldenDiamond()
		case 5:
			tg = onnxGraph(t, "mlp")
		}
		var part schedule.Partition
		var err error
		switch shape % 5 {
		case 0:
			part, err = schedule.PartitionLTS(tg, p)
		case 1:
			part, err = schedule.PartitionRLX(tg, p)
		case 2:
			part, err = schedule.PartitionLevelOrder(tg, p)
		case 3:
			part, p = schedule.AllInOneBlock(tg), max(1, tg.NumComputeNodes())
		case 4:
			part, p = nodePerBlock(tg), 1
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := schedule.ScheduleReference(tg, part, p)
		if err != nil {
			t.Fatal(err)
		}
		sched := schedule.NewScheduler()
		for round := 0; round < 2; round++ { // second call exercises scratch reuse
			got, err := sched.Schedule(tg, part, p)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fmt.Sprintf("round%d", round), want, got)
			if err := got.Validate(tg, p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestScheduleAllocFree pins the scratch contract: after a warm-up call, a
// reused Scheduler allocates only the Result it returns — the Result
// itself and its eight slices — whatever the number of blocks.
func TestScheduleAllocFree(t *testing.T) {
	const resultAllocs = 1 + 8 // *Result, ST, FO, LO, So, Si, Comp, PE, BlockStart
	cases := []struct {
		name string
		tg   *core.TaskGraph
		part func(*core.TaskGraph) (schedule.Partition, int)
	}{
		{"gaussian/single", goldenGraph(t, "gaussian"), func(tg *core.TaskGraph) (schedule.Partition, int) {
			return schedule.AllInOneBlock(tg), tg.NumComputeNodes()
		}},
		{"gaussian/p4", goldenGraph(t, "gaussian"), func(tg *core.TaskGraph) (schedule.Partition, int) {
			part, _ := schedule.PartitionLTS(tg, 4)
			return part, 4
		}},
		{"gaussian/per-node", goldenGraph(t, "gaussian"), func(tg *core.TaskGraph) (schedule.Partition, int) {
			return nodePerBlock(tg), 1
		}},
		{"onnx-mlp/p32", onnxGraph(t, "mlp"), func(tg *core.TaskGraph) (schedule.Partition, int) {
			part, _ := schedule.PartitionRLX(tg, 32)
			return part, 32
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			part, p := tc.part(tc.tg)
			sched := schedule.NewScheduler()
			if _, err := sched.Schedule(tc.tg, part, p); err != nil { // warm up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sched.Schedule(tc.tg, part, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != resultAllocs {
				t.Errorf("Scheduler.Schedule allocates %.1f times per run over %d blocks, want %d (the Result only)",
					allocs, part.NumBlocks(), resultAllocs)
			}
		})
	}
}
