package repro_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/buffers"
	"repro/internal/desim"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// The scale-smoke pipeline: the million-task acceptance path of the scale
// work, gated behind SCALE_SMOKE=1 so plain `go test ./...` (tier-1) and the
// race job stay fast. CI runs it as a dedicated job under a wall-clock
// budget; locally: SCALE_SMOKE=1 go test -run TestScaleSmokePipeline .

// requireScaleSmoke skips unless the gate is set.
func requireScaleSmoke(t *testing.T) {
	t.Helper()
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the scale smoke pipeline")
	}
}

// stage runs one named pipeline stage and reports its wall time, failing if
// it exceeds budget — generous bounds that catch accidental quadratic
// regressions, not benchmark noise.
func stage(t *testing.T, name string, budget time.Duration, f func()) {
	t.Helper()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.Logf("%s: %v", name, d)
	if d > budget {
		t.Errorf("%s took %v, budget %v", name, d, budget)
	}
}

// TestScaleSmokePipeline drives a 10^5-task synthetic graph end to end —
// partition (fast path), validation, scheduling, and an auto-engine
// discrete-event simulation — then builds the ~10^6-task deep MLP and runs
// partition, scheduling (with Result.Validate), streaming depth and buffer
// sizing on it.
func TestScaleSmokePipeline(t *testing.T) {
	requireScaleSmoke(t)

	// Stage 1: 10^5-task Gaussian elimination, the full pipeline.
	var tg = synth.Gaussian(synth.GaussianFor(100_000), rand.New(rand.NewSource(1)), synth.DefaultConfig())
	t.Logf("gaussian-xl: %d tasks", tg.G.Len())
	const p = 256
	var part schedule.Partition
	var err error
	pt := schedule.NewPartitioner()
	stage(t, "partition 100k", 30*time.Second, func() {
		part, err = pt.Partition(tg, p, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(tg, p); err != nil {
		t.Fatal(err)
	}
	var res *schedule.Result
	stage(t, "schedule 100k", 60*time.Second, func() {
		res, err = schedule.Schedule(tg, part, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var st *desim.Stats
	stage(t, "desim 100k (auto)", 120*time.Second, func() {
		st, err = desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.SizeMap(tg, res)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("simulation deadlocked with Equation 5 buffer sizes")
	}
	// The giant-graph guard must route a 10^5-task simulation to the leap
	// engine; the reference loop would blow the budget.
	if st.Leap.Engine != desim.EngineLeap {
		t.Errorf("auto picked %v on a 10^5-task graph, want leap", st.Leap.Engine)
	}

	// Stage 2: the ~10^6-task deep MLP, build + partition + schedule +
	// depth + sizing (no simulation and no reference comparison at this
	// size).
	mtg, err := onnx.MLP(onnx.DeepMLP(980, 512, 64))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mlp-deep: %d nodes", mtg.G.Len())
	if mtg.G.Len() < 1_000_000 {
		t.Errorf("deep MLP has %d nodes, want >= 10^6", mtg.G.Len())
	}
	var mpart schedule.Partition
	stage(t, "partition 1M", 120*time.Second, func() {
		mpart, err = pt.Partition(mtg, p, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mpart.Validate(mtg, p); err != nil {
		t.Fatal(err)
	}
	// Schedule, streaming depth and buffer sizing are O(V + E) (plus an
	// E log E edge sort in sizing); at 10^6 nodes each takes well under a
	// second, so a 5 s budget catches a return to per-block rescans.
	var mres *schedule.Result
	stage(t, "schedule 1M", 5*time.Second, func() {
		mres, err = schedule.Schedule(mtg, mpart, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mres.Validate(mtg, p); err != nil {
		t.Fatal(err)
	}
	if mres.Makespan <= 0 {
		t.Error("non-positive makespan on the deep MLP")
	}
	var depth float64
	stage(t, "depth 1M", 5*time.Second, func() { depth = schedule.StreamingDepth(mtg) })
	if depth <= 0 || depth > mres.Makespan {
		t.Errorf("streaming depth %g outside (0, makespan %g]", depth, mres.Makespan)
	}
	var sizes []buffers.EdgeSpace
	stage(t, "buffers 1M", 5*time.Second, func() { sizes = buffers.Sizes(mtg, mres) })
	if len(sizes) == 0 {
		t.Error("no streaming edges sized on the deep MLP")
	}
}
