package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/graph"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// The scale workload: the ROADMAP's 10^6-node bar. Both graphs go through
// service.BuildReport at scalePEs and are marshalled to JSON. Its work is
// CPU-bound and runs alone, so its set-up, operations and throughput are
// timed in process CPU time (cpuClock), which leaves hypervisor steal out,
// and scaled to the reference host (host.go), which leaves the host's
// drift out. CPU time also counts the garbage collector's marking on the
// second CPU, and a change that spreads work over both CPUs reads as no
// gain there; the per-layer wall_nodes_per_s shows such gains.
const (
	scalePEs    = 256
	gaussTarget = 100_000 // synth.GaussianFor target: 100,127 nodes
	mlpDepth    = 980     // onnx.DeepMLP(980, 512, 64): 1,005,959 nodes
	mlpWidth    = 512
	mlpBatch    = 64
)

// The scale inputs do not depend on --seed: the Gaussian graph's random
// volumes set its simulation's cycle count, which moved the Gaussian pass
// between 1.6 and 3.6 CPU-seconds across seeds, while this workload
// measures the 10^6-node bar. Every run checks both report digests
// (SHA-256 of the marshalled reports).
const (
	gaussGraphSeed = 1
	gaussDigest    = "3cd3b5a068b1a91d941af343595c2255df946f89beb7abbefba8bb6f3a120189"
	mlpDigest      = "7610cc5b9bb78b7a860f6b623ff67b2be0429ca91271e292c91c466be0bcff94"
)

// scaleMinPasses is how many passes an untraced run makes at least.
const scaleMinPasses = 2

type scaleInputs struct {
	gaussJSON []byte // the Gaussian graph in core JSON, decoded in the timed region
	mlp       *core.TaskGraph
	buildS    map[string][]float64 // per layer prefix: build seconds of each set-up
	buildMB   map[string][]float64
}

func scaleSetup(in *scaleInputs) error {
	in.gaussJSON, in.mlp = nil, nil
	runtime.GC()
	var g *core.TaskGraph
	s, mb := measureAlloc(func() {
		g = synth.Gaussian(synth.GaussianFor(gaussTarget), rand.New(rand.NewSource(gaussGraphSeed)), synth.DefaultConfig())
	})
	in.buildS[gaussPrefix] = append(in.buildS[gaussPrefix], s)
	in.buildMB[gaussPrefix] = append(in.buildMB[gaussPrefix], mb)
	var buf bytes.Buffer
	if err := g.EncodeJSON(&buf); err != nil {
		return fmt.Errorf("encoding the Gaussian graph: %w", err)
	}
	in.gaussJSON = buf.Bytes()
	var err error
	s, mb = measureAlloc(func() { in.mlp, err = onnx.MLP(onnx.DeepMLP(mlpDepth, mlpWidth, mlpBatch)) })
	if err != nil {
		return fmt.Errorf("building the deep MLP: %w", err)
	}
	in.buildS[mlpPrefix] = append(in.buildS[mlpPrefix], s)
	in.buildMB[mlpPrefix] = append(in.buildMB[mlpPrefix], mb)
	return nil
}

// measureAlloc times f and the MB it allocates.
func measureAlloc(f func()) (seconds, allocMB float64) {
	a := totalAlloc()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	return d.Seconds(), float64(totalAlloc()-a) / 1e6
}

// scaleIter is one untraced pass: decode the Gaussian graph, build and
// encode both reports.
type scaleIter struct {
	gauss, mlp       []byte
	gaussMs, mlpMs   float64       // process CPU time per graph
	wall             time.Duration // wall time of both graphs
	gaussNodes, mlpN int
	deadlocked       bool
}

// Each graph starts from a collected heap, outside its timing, so the
// garbage collector's pacing does not carry from one graph to the next.
func scalePass(in *scaleInputs) (scaleIter, error) {
	var it scaleIter
	runtime.GC()
	w0, c0 := time.Now(), cpuClock()
	g, err := core.DecodeJSON(bytes.NewReader(in.gaussJSON))
	if err != nil {
		return it, err
	}
	rep, err := service.BuildReport(g, scalePEs, schedule.SBLTS, "lts", true)
	if err != nil {
		return it, err
	}
	if it.gauss, err = json.Marshal(rep); err != nil {
		return it, err
	}
	it.gaussMs = ms(cpuClock() - c0)
	it.wall = time.Since(w0)
	it.gaussNodes = g.Len()
	it.deadlocked = rep.Sim == nil || rep.Sim.Deadlocked

	runtime.GC()
	w1, c1 := time.Now(), cpuClock()
	rep, err = service.BuildReport(in.mlp, scalePEs, schedule.SBLTS, "lts", false)
	if err != nil {
		return it, err
	}
	if it.mlp, err = json.Marshal(rep); err != nil {
		return it, err
	}
	it.mlpMs = ms(cpuClock() - c1)
	it.wall += time.Since(w1)
	it.mlpN = in.mlp.Len()
	return it, nil
}

func runScale(cfg config, o *outcome) ([]time.Duration, error) {
	in := &scaleInputs{buildS: map[string][]float64{}, buildMB: map[string][]float64{}}
	setup, err := repeatSetup(cfg.host, scaleSetupRepeats, func() error { return scaleSetup(in) })
	if err != nil {
		return nil, err
	}

	// Untraced: at least scaleMinPasses whole passes, then more until the
	// measuring time is used up; a pass that would overrun it is not
	// started. Throughput is over all passes, which averages the
	// pass-to-pass noise.
	var lat []float64
	var nodes int
	var elapsed, wall time.Duration
	var first scaleIter
	for i := 0; ; i++ {
		it, err := scalePass(in)
		d := time.Duration((it.gaussMs + it.mlpMs) * float64(time.Millisecond))
		o.attempted += 2
		if err != nil {
			o.check(false, 2, "scale pass %d: %v", i, err)
			break
		}
		elapsed += d
		wall += it.wall
		nodes += it.gaussNodes + it.mlpN
		lat = append(lat, it.gaussMs, it.mlpMs)
		o.check(!it.deadlocked, 1, "the 10^5-node simulation deadlocked")
		if i == 0 {
			first = it
		} else {
			o.check(bytes.Equal(it.gauss, first.gauss) && bytes.Equal(it.mlp, first.mlp), 2,
				"pass %d reports differ from pass 0", i)
		}
		if cfg.trace || i+1 >= scaleMinPasses && wall+wall/time.Duration(i+1) > cfg.seconds {
			break
		}
	}
	if first.gauss == nil {
		return setup, nil
	}
	o.check(digest(first.gauss) == gaussDigest, 1, "Gaussian report digest %s, recorded %s", digest(first.gauss), gaussDigest)
	o.check(digest(first.mlp) == mlpDigest, 1, "deep-MLP report digest %s, recorded %s", digest(first.mlp), mlpDigest)

	o.endToEnd(cfg.host, endToEnd{
		nodesPerS: float64(nodes) / elapsed.Seconds(),
		cellsPerS: float64(len(lat)) / elapsed.Seconds(),
		lat:       lat,
		okShare:   share(o.attempted-o.failed, o.attempted),
	})
	// The gated nodes_per_s is per CPU-second, so it cannot see work moved
	// onto an idle CPU; the wall-clock figure beside it can.
	o.set("wall_nodes_per_s", "1/s", float64(nodes)/wall.Seconds())

	if cfg.trace {
		for _, p := range []string{gaussPrefix, mlpPrefix} {
			build := "synth.build"
			if p == mlpPrefix {
				build = "onnx.build"
			}
			o.set(p+build+"_s", "s", median(in.buildS[p]))
			o.set(p+build+"_alloc_mb", "MB", median(in.buildMB[p]))
		}
		if err := scaleTraced(cfg, in, first, wall, o); err != nil {
			return setup, err
		}
	}
	return setup, nil
}

// scaleTraced composes BuildReport from its layer calls under spans, checks
// the bytes against the untraced pass, and reports per-layer metrics.
func scaleTraced(cfg config, in *scaleInputs, want scaleIter, untraced time.Duration, o *outcome) error {
	o.attempted += 2
	tr := newTracer(true)
	var g *core.TaskGraph
	var err error
	runtime.GC()
	gspan := tr.begin("graph", 0, "gauss100k")
	tr.do(gaussPrefix+"core.decode", gspan, func() { g, err = core.DecodeJSON(bytes.NewReader(in.gaussJSON)) })
	if err != nil {
		return err
	}
	gauss, gpart, err := composeReport(tr, gspan, gaussPrefix, g, true, o)
	tr.end(gspan)
	if err != nil {
		return err
	}
	runtime.GC()
	mspan := tr.begin("graph", 0, "mlp1m")
	mlp, mpart, err := composeReport(tr, mspan, mlpPrefix, in.mlp, false, o)
	tr.end(mspan)
	if err != nil {
		return err
	}
	if err := gpart.Validate(g, scalePEs); err != nil {
		o.check(false, 1, "Gaussian partition: %v", err)
	}
	if err := mpart.Validate(in.mlp, scalePEs); err != nil {
		o.check(false, 1, "deep-MLP partition: %v", err)
	}
	o.check(bytes.Equal(gauss, want.gauss), 1, "traced Gaussian report differs from service.BuildReport's")
	o.check(bytes.Equal(mlp, want.mlp), 1, "traced deep-MLP report differs from service.BuildReport's")
	o.set(gaussPrefix+"service.report_mb", "MB", float64(len(gauss))/1e6)
	o.set(mlpPrefix+"service.report_mb", "MB", float64(len(mlp))/1e6)

	layers := tr.layers()
	region := layers["graph"].Total
	var covered time.Duration
	for name, l := range layers {
		if name == "graph" {
			continue
		}
		o.set(name+"_s", "s", l.Self.Seconds())
		o.set(name+"_alloc_mb", "MB", float64(l.AllocBytes)/1e6)
		covered += l.Self
	}
	o.set("trace.layer_coverage", "share", covered.Seconds()/region.Seconds())
	o.set("trace.overhead_share", "share", region.Seconds()/untraced.Seconds()-1)
	return traceFile(cfg, "scale", tr)
}

// composeReport is service.BuildReport spelled out one layer call at a
// time, each under its own span.
func composeReport(tr *tracer, parent int, prefix string, tg *core.TaskGraph, simulate bool, o *outcome) ([]byte, schedule.Partition, error) {
	var part schedule.Partition
	var err error
	tr.do(prefix+"schedule.partition", parent, func() {
		part, err = schedule.Algorithm1(tg, scalePEs, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		return nil, part, err
	}
	var res *schedule.Result
	tr.do(prefix+"schedule.schedule", parent, func() { res, err = schedule.Schedule(tg, part, scalePEs) })
	if err != nil {
		return nil, part, err
	}
	var depth float64
	tr.do(prefix+"schedule.depth", parent, func() { depth = schedule.StreamingDepth(tg) })
	seq := schedule.SequentialTime(tg)
	rep := &service.ScheduleReport{
		Nodes: tg.Len(), ComputeNodes: tg.NumComputeNodes(), Edges: tg.G.NumEdges(),
		PEs: scalePEs, Variant: "lts", Blocks: part.NumBlocks(),
		Makespan: res.Makespan, SequentialTime: seq,
		Speedup: res.Speedup(tg), SSLR: sslr(res.Makespan, depth), Utilization: res.Utilization(tg, scalePEs),
		BlockOf: res.Partition.BlockOf, PE: res.PE, ST: res.ST, FO: res.FO, LO: res.LO,
	}
	var sizes []buffers.EdgeSpace
	tr.do(prefix+"buffers.sizes", parent, func() { sizes = buffers.Sizes(tg, res) })
	rep.StreamingEdges = len(sizes)
	for _, e := range sizes {
		if e.OnCycle {
			rep.CycleEdges++
			rep.BufferSlots += e.Space
		}
	}
	o.set(prefix+"schedule.blocks", "count", float64(part.NumBlocks()))
	o.set(prefix+"buffers.cycle_edges", "count", float64(rep.CycleEdges))
	if simulate {
		var caps map[[2]graph.NodeID]int64
		tr.do(prefix+"buffers.sizes", parent, func() { caps = buffers.SizeMap(tg, res) })
		var st *desim.Stats
		tr.do(prefix+"desim.simulate", parent, func() { st, err = desim.Simulate(tg, res, desim.Config{FIFOCap: caps}) })
		if err != nil {
			return nil, part, err
		}
		o.check(!st.Deadlocked, 1, "%ssimulation deadlocked", prefix)
		rep.Sim = &service.SimReport{
			Makespan: st.Makespan, RelativeError: st.RelativeError(res.Makespan),
			Cycles: st.Cycles, Deadlocked: st.Deadlocked, DeadlockCycle: st.DeadlockCycle,
		}
		o.set(prefix+"desim.cycles", "count", float64(st.Cycles))
		o.set(prefix+"desim.leaped_share", "share", share64(st.Leap.LeapedCycles, st.Cycles))
	}
	var out []byte
	tr.do(prefix+"service.encode", parent, func() { out, err = json.Marshal(rep) })
	return out, part, err
}

// sslr is Result.SSLR with the streaming depth computed once, outside.
func sslr(makespan, depth float64) float64 {
	if depth == 0 {
		return math.Inf(1)
	}
	return makespan / depth
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func share(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func share64(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
