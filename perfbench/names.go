package main

import (
	"fmt"
	"strings"
)

// nameUnit is one reported metric name with its unit.
type nameUnit struct{ name, unit string }

// endToEndNames are reported by every workload in untraced runs (see
// README.md for what an "operation" is on each workload).
var endToEndNames = []nameUnit{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"nodes_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"ok_share", "share"},
}

// tailNames are the latency and capacity metrics, scale's wall-clock
// throughput and the host's kernel time, all as measured, not scaled to
// the reference host. Every run computes the ones its workload has and
// prints them with the end-to-end table, but they are reported as
// per-layer metrics: on a shared two-CPU host the latencies spread more
// from run to run than an end-to-end bound may allow, the serve tail most.
var tailNames = []nameUnit{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"unique.p95_ms", "ms"},
	{"repeat.p95_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"wall_nodes_per_s", "1/s"},
	{"host.kernel_ms", "ms"},
}

// Layer timings of the scale workload, per graph: each has a seconds and
// an allocated-MB metric.
var (
	gaussLayers = []string{"synth.build", "core.decode", "schedule.partition", "schedule.schedule",
		"schedule.depth", "buffers.sizes", "desim.simulate", "service.encode"}
	mlpLayers = []string{"onnx.build", "schedule.partition", "schedule.schedule",
		"schedule.depth", "buffers.sizes", "service.encode"}
)

// perLayerNames are reported by every workload in traced runs; a layer a
// workload does not reach reads 0.
func perLayerNames() []nameUnit {
	out := append([]nameUnit(nil), tailNames...)
	add := func(name, unit string) { out = append(out, nameUnit{name, unit}) }
	for _, g := range []struct {
		prefix string
		layers []string
		counts []nameUnit
	}{
		{gaussPrefix, gaussLayers, []nameUnit{{"schedule.blocks", "count"}, {"buffers.cycle_edges", "count"},
			{"desim.cycles", "count"}, {"desim.leaped_share", "share"}, {"service.report_mb", "MB"}}},
		{mlpPrefix, mlpLayers, []nameUnit{{"schedule.blocks", "count"}, {"buffers.cycle_edges", "count"},
			{"service.report_mb", "MB"}}},
	} {
		for _, l := range g.layers {
			add(g.prefix+l+"_s", "s")
			add(g.prefix+l+"_alloc_mb", "MB")
		}
		for _, c := range g.counts {
			add(g.prefix+c.name, c.unit)
		}
	}
	add("trace.overhead_share", "share")
	add("trace.layer_coverage", "share")

	for _, l := range sweepLayers {
		add(l+"_s", "s")
	}
	add("desim.leap_runs", "count")
	add("desim.reference_runs", "count")
	add("experiments.parallel_eff", "share")

	for _, n := range []string{"distrib.lease_ms", "distrib.complete_ms"} {
		add(n+".p50", "ms")
		add(n+".p99", "ms")
	}
	add("distrib.leases", "count")
	add("distrib.requeues", "count")
	add("distrib.duplicates", "count")
	add("distrib.merge_s", "s")
	add("distrib.journal_mb", "MB")
	add("distrib.protocol_share", "share")

	for _, n := range []string{"service.submit_ms", "service.wait_ms", "service.eval_ms"} {
		add(n+".p50", "ms")
		add(n+".p99", "ms")
	}
	add("service.evals_per_req", "share")
	add("service.cache_hit_share", "share")
	add("service.coalesced_share", "share")
	add("service.batch_size", "count")
	add("service.queue_depth.max", "count")
	add("service.rejected", "count")
	add("service.shed", "count")
	add("loadgen.late_ms.p99", "ms")
	add("loadgen.late_ms.max", "ms")
	for _, r := range ladderRates {
		add(ladderName(r, "p50_ms"), "ms")
		add(ladderName(r, "p99_ms"), "ms")
		add(ladderName(r, "ok_share"), "share")
	}
	return out
}

// Scale-workload metric prefixes, one per graph.
const (
	gaussPrefix = "gauss100k."
	mlpPrefix   = "mlp1m."
)

// sweepLayers are the layers the sweep replay times per cell.
var sweepLayers = []string{"experiments.build", "schedule.partition", "schedule.schedule",
	"schedule.depth", "buffers.sizes", "desim.simulate", "baseline.schedule"}

func ladderName(rate float64, what string) string {
	return fmt.Sprintf("ladder.%s.%s", strings.TrimSuffix(fmt.Sprintf("%g", rate), ".0"), what)
}
