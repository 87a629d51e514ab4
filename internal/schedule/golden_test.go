package schedule_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// goldenGraph builds the deterministic instance (seed 1, default volumes) of
// each synthetic family, plus the Figure 9 reconvergent diamond whose direct
// edge crosses a 8x reduction-expansion path.
func goldenGraph(t testing.TB, name string) *core.TaskGraph {
	t.Helper()
	cfg := synth.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	switch name {
	case "chain":
		return synth.Chain(8, rng, cfg)
	case "fft":
		return synth.FFT(32, rng, cfg)
	case "gaussian":
		return synth.Gaussian(16, rng, cfg)
	case "cholesky":
		return synth.Cholesky(8, rng, cfg)
	case "diamond":
		return goldenDiamond()
	}
	t.Fatalf("unknown golden graph %q", name)
	return nil
}

func goldenDiamond() *core.TaskGraph {
	tg := core.New()
	src := tg.AddElementWise("src", 32)
	down := tg.AddCompute("down", 32, 4)
	mid := tg.AddElementWise("mid", 4)
	up := tg.AddCompute("up", 4, 32)
	join := tg.AddElementWise("join", 32)
	tg.MustConnect(src, down)
	tg.MustConnect(down, mid)
	tg.MustConnect(mid, up)
	tg.MustConnect(up, join)
	tg.MustConnect(src, join)
	if err := tg.Freeze(); err != nil {
		panic(err)
	}
	return tg
}

// TestGoldenSchedules pins the scheduler's observable outputs — spatial
// block counts and makespans — for the worked examples, so hot-path
// optimizations (scratch reuse, parallel sweeps) cannot silently change
// results. The values were recorded from the reference implementation; a
// mismatch means behavior changed, not that the table is stale.
func TestGoldenSchedules(t *testing.T) {
	cases := []struct {
		graph    string
		variant  schedule.Variant
		p        int
		blocks   int
		makespan float64
	}{
		{"chain", schedule.SBLTS, 4, 5, 771},
		{"chain", schedule.SBRLX, 4, 2, 778},
		{"fft", schedule.SBLTS, 64, 4, 1687},
		{"fft", schedule.SBRLX, 64, 4, 2075},
		{"gaussian", schedule.SBLTS, 64, 4, 1459},
		{"gaussian", schedule.SBRLX, 64, 3, 1280},
		{"cholesky", schedule.SBLTS, 64, 3, 691},
		{"cholesky", schedule.SBRLX, 64, 2, 660},
		{"diamond", schedule.SBLTS, 5, 1, 43},
		{"diamond", schedule.SBRLX, 5, 1, 43},
	}
	for _, tc := range cases {
		tg := goldenGraph(t, tc.graph)
		part, err := schedule.Algorithm1(tg, tc.p, schedule.Options{Variant: tc.variant})
		if err != nil {
			t.Errorf("%s/%s: partition failed: %v", tc.graph, tc.variant, err)
			continue
		}
		if got := part.NumBlocks(); got != tc.blocks {
			t.Errorf("%s/%s/P=%d: %d blocks, want %d", tc.graph, tc.variant, tc.p, got, tc.blocks)
		}
		res, err := schedule.Schedule(tg, part, tc.p)
		if err != nil {
			t.Errorf("%s/%s: schedule failed: %v", tc.graph, tc.variant, err)
			continue
		}
		if res.Makespan != tc.makespan {
			t.Errorf("%s/%s/P=%d: makespan %g, want %g", tc.graph, tc.variant, tc.p, res.Makespan, tc.makespan)
		}
		if err := res.Validate(tg, tc.p); err != nil {
			t.Errorf("%s/%s/P=%d: %v", tc.graph, tc.variant, tc.p, err)
		}
	}
}

// TestSchedulerScratchReuseMatchesFresh: scheduling many graphs through one
// reused Scheduler yields exactly the package-level results, and earlier
// Results stay intact after later calls (no aliasing into scratch).
func TestSchedulerScratchReuseMatchesFresh(t *testing.T) {
	sched := schedule.NewScheduler()
	names := []string{"chain", "fft", "gaussian", "cholesky", "diamond"}
	ps := map[string]int{"chain": 4, "fft": 64, "gaussian": 64, "cholesky": 64, "diamond": 5}
	var kept []*schedule.Result
	var want []float64
	for _, name := range names {
		tg := goldenGraph(t, name)
		part, err := schedule.PartitionLTS(tg, ps[name])
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := schedule.Schedule(tg, part, ps[name])
		if err != nil {
			t.Fatal(err)
		}
		reused, err := sched.Schedule(tg, part, ps[name])
		if err != nil {
			t.Fatal(err)
		}
		if reused.Makespan != fresh.Makespan {
			t.Errorf("%s: reused scheduler makespan %g, fresh %g", name, reused.Makespan, fresh.Makespan)
		}
		for v := range fresh.ST {
			if reused.ST[v] != fresh.ST[v] || reused.FO[v] != fresh.FO[v] || reused.LO[v] != fresh.LO[v] {
				t.Fatalf("%s: node %d times diverge between fresh and reused scheduler", name, v)
			}
		}
		kept = append(kept, reused)
		want = append(want, fresh.Makespan)
	}
	for i, r := range kept {
		if r.Makespan != want[i] {
			t.Errorf("result %d mutated by later Schedule calls: makespan %g, want %g", i, r.Makespan, want[i])
		}
	}
}
