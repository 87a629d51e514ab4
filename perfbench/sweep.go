package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/baseline"
	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/results"
	"repro/internal/schedule"
)

// The sweep-distrib workload runs the paper's evaluation plan at
// experiments.Defaults() (100 graphs per family), seeded by --seed. This
// file holds its plan, its gates and the traced replay of its cells.
var sweepExperiments = []string{"fig10", "fig11", "fig13", "table2"}

// sweepWorkers is the pool size of the local Runner that computes the
// reference cells.
const sweepWorkers = 2

// Digest of the plan's cells (SHA-256 of their JSON in job order) at
// seed digestSeed; the distributed run must merge to the same cells.
const (
	digestSeed       = 1
	sweepCellsDigest = "63cbcbac43cf3b4f58a06975ef34ca6643899daf91d977a3f404da08c38ec1c0"
)

func sweepSpecs(seed int64) []experiments.Spec {
	opt := experiments.Defaults()
	opt.Seed = seed
	specs := make([]experiments.Spec, len(sweepExperiments))
	for i, name := range sweepExperiments {
		specs[i] = experiments.Spec{Name: name, Opt: opt}
	}
	return specs
}

// planWorkloads maps a job's Family to the registered workload that
// builds its graphs: the sweep families and the Table 2 models.
func planWorkloads() (map[string]experiments.Workload, error) {
	out := make(map[string]experiments.Workload)
	ws := experiments.SweepWorkloads()
	for _, name := range []string{"onnx:resnet", "onnx:encoder"} {
		w, err := experiments.LookupWorkload(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		out[w.Family()] = w
	}
	return out, nil
}

// jobGraph resolves the workload options a job's graph is built with:
// the run options for synthetic families, none for model graphs.
func jobGraph(ws map[string]experiments.Workload, specs []experiments.Spec, j experiments.CellJob) (experiments.Workload, experiments.Options, error) {
	w, ok := ws[j.Job.Family]
	if !ok {
		return nil, experiments.Options{}, fmt.Errorf("job %s: no workload for family %q", j.Job, j.Job.Family)
	}
	opt := specs[0].Opt
	if w.GraphID(opt, j.Job.Graph) != j.Key.Graph {
		opt = experiments.Options{}
		if w.GraphID(opt, j.Job.Graph) != j.Key.Graph {
			return nil, opt, fmt.Errorf("job %s: graph id %s not built by %s", j.Job, j.Key.Graph, w.Name())
		}
	}
	return w, opt, nil
}

// planInputs is the sweep set-up: the compiled plan and the node count of
// every job's graph (the input size of each cell).
type planInputs struct {
	specs []experiments.Spec
	plan  *experiments.Plan
	nodes []int // per job
}

func sweepSetup(seed int64, in *planInputs) error {
	in.specs = sweepSpecs(seed)
	plan, err := experiments.Compile(in.specs)
	if err != nil {
		return err
	}
	ws, err := planWorkloads()
	if err != nil {
		return err
	}
	in.plan = plan
	in.nodes = make([]int, len(plan.Jobs))
	size := make(map[string]int)
	for i, j := range plan.Jobs {
		n, ok := size[j.Key.Graph]
		if !ok {
			w, opt, err := jobGraph(ws, in.specs, j)
			if err != nil {
				return err
			}
			tg, err := w.Build(opt, j.Job.Graph)
			if err != nil {
				return err
			}
			n = tg.Len()
			size[j.Key.Graph] = n
		}
		in.nodes[i] = n
	}
	return nil
}

// cellsDigest hashes cells in order; equal digests mean identical cells.
func cellsDigest(cells []results.Cell) (string, error) {
	b, err := json.Marshal(cells)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// checkPlanCells gates one run's cells: every job produced its cell, no
// job failed, the cells equal want when it is set, and at digestSeed they
// match the recorded digest. It returns the cells' digest.
func checkPlanCells(o *outcome, cfg config, what string, cells []results.Cell, jobs, failures int, want string) string {
	o.check(failures == 0, 0, "%s: %d jobs failed", what, failures)
	o.check(len(cells) == jobs, max(0, jobs-len(cells)-failures), "%s: %d cells for %d jobs", what, len(cells), jobs)
	d, err := cellsDigest(cells)
	o.check(err == nil, len(cells), "%s: hashing cells: %v", what, err)
	if want != "" {
		o.check(d == want, len(cells), "%s: cells digest %s, want %s", what, d, want)
	}
	if cfg.seed == digestSeed {
		o.check(d == sweepCellsDigest, len(cells), "%s: cells digest %s, recorded %s", what, d, sweepCellsDigest)
	}
	return d
}

// sweepReplay evaluates every cell of the plan again, one layer call at a
// time under spans, on one goroutine, and checks each value against the
// Runner's cell.
func sweepReplay(cfg config, in *planInputs, set *results.Set, o *outcome) error {
	tr := newTracer(false)
	o.attempted += len(in.plan.Jobs)
	root := tr.begin("sweep.replay", 0, "")
	leap, ref, err := replayPlan(tr, root, in, set, 1, o)
	if err != nil {
		return err
	}
	tr.end(root)

	layers := tr.layers()
	region := layers["sweep.replay"].Total
	var covered time.Duration
	for _, name := range sweepLayers {
		if l := layers[name]; l != nil {
			o.set(name+"_s", "s", l.Self.Seconds())
			covered += l.Self
		}
	}
	o.set("desim.leap_runs", "count", float64(leap))
	o.set("desim.reference_runs", "count", float64(ref))
	o.set("trace.layer_coverage", "share", covered.Seconds()/region.Seconds())
	return traceFile(cfg, "sweep-replay", tr)
}

// replayStride picks the jobs an untraced run replays to check the
// Runner's cells at any seed, outside the measured region: the first job
// of every variant and family, then every replayStride-th job, about 180
// of the plan's 8,016.
const replayStride = 47

// replayPlan evaluates the first job of every variant and family and every
// stride-th job of the plan from the layers' public entry points and
// checks its values against the cell in set, counting each mismatch as a
// failed operation. It returns how often the desim cost model picked each
// engine.
func replayPlan(tr *tracer, root int, in *planInputs, set *results.Set, stride int, o *outcome) (leap, ref int, err error) {
	ws, err := planWorkloads()
	if err != nil {
		return 0, 0, err
	}
	type built struct {
		tg    *core.TaskGraph
		depth float64
	}
	graphs := make(map[string]built)
	seen := make(map[[2]string]bool)
	for i, j := range in.plan.Jobs {
		kind := [2]string{j.Job.Variant, j.Job.Family}
		if i%stride != 0 && seen[kind] {
			continue
		}
		seen[kind] = true
		cell := tr.begin("cell", root, j.Job.String())
		g, ok := graphs[j.Key.Graph]
		if !ok {
			w, opt, err := jobGraph(ws, in.specs, j)
			if err != nil {
				return 0, 0, err
			}
			tr.do("experiments.build", cell, func() { g.tg, err = w.Build(opt, j.Job.Graph) })
			if err != nil {
				return 0, 0, err
			}
			tr.do("schedule.depth", cell, func() { g.depth = schedule.StreamingDepth(g.tg) })
			graphs[j.Key.Graph] = g
		}
		vals, engine, err := replayCell(tr, cell, j.Job, g.tg, g.depth)
		tr.end(cell)
		if err != nil {
			return 0, 0, fmt.Errorf("replaying %s: %w", j.Job, err)
		}
		switch engine {
		case desim.EngineLeap:
			leap++
		case desim.EngineReference:
			ref++
		}
		got, ok := set.Get(j.Key)
		o.check(ok && reflect.DeepEqual(got.Values, vals), 1, "replay of %s: values %v, Runner's %v", j.Job, vals, got.Values)
	}
	return leap, ref, nil
}

// replayCell evaluates one cell's variant from the layers' public entry
// points, mirroring the registered variants' Eval. It returns the cell's
// values and the desim engine the cost model picked (0 when none ran).
func replayCell(tr *tracer, parent int, job experiments.Job, tg *core.TaskGraph, depth float64) (map[string]float64, desim.Engine, error) {
	var err error
	switch job.Variant {
	case experiments.VariantLTS, experiments.VariantRLX:
		heur := schedule.SBLTS
		if job.Variant == experiments.VariantRLX {
			heur = schedule.SBRLX
		}
		var part schedule.Partition
		tr.do("schedule.partition", parent, func() {
			part, err = schedule.Algorithm1(tg, job.PEs, schedule.Options{Variant: heur})
		})
		if err != nil {
			return nil, 0, err
		}
		var res *schedule.Result
		tr.do("schedule.schedule", parent, func() { res, err = schedule.Schedule(tg, part, job.PEs) })
		if err != nil {
			return nil, 0, err
		}
		vals := map[string]float64{
			"speedup": res.Speedup(tg),
			"sslr":    res.Makespan / depth,
			"util":    res.Utilization(tg, job.PEs),
		}
		if !job.Simulate {
			return vals, 0, nil
		}
		var caps map[[2]graph.NodeID]int64
		tr.do("buffers.sizes", parent, func() { caps = buffers.SizeMap(tg, res) })
		cfg := desim.Config{FIFOCap: caps}
		engine := desim.PickEngine(tg, res, cfg)
		var st *desim.Stats
		tr.do("desim.simulate", parent, func() { st, err = desim.Simulate(tg, res, cfg) })
		if err != nil {
			return nil, 0, err
		}
		vals["simerr"], vals["deadlock"] = 0, 0
		if st.Deadlocked {
			vals["deadlock"] = 1
		} else {
			vals["simerr"] = st.RelativeError(res.Makespan)
		}
		return vals, engine, nil
	case experiments.VariantNSTR, experiments.VariantTable2NSTR:
		var nstr *baseline.Result
		tr.do("baseline.schedule", parent, func() {
			nstr, err = baseline.Schedule(tg, job.PEs, baseline.Options{Insertion: true})
		})
		if err != nil {
			return nil, 0, err
		}
		if job.Variant == experiments.VariantNSTR {
			return map[string]float64{"speedup": nstr.Speedup(tg), "util": nstr.Utilization(tg)}, 0, nil
		}
		return map[string]float64{"speedup": nstr.Speedup(tg), "makespan": nstr.Makespan}, 0, nil
	case experiments.VariantTable2Str:
		var part schedule.Partition
		tr.do("schedule.partition", parent, func() { part, err = schedule.PartitionLTS(tg, job.PEs) })
		if err != nil {
			return nil, 0, err
		}
		var res *schedule.Result
		tr.do("schedule.schedule", parent, func() { res, err = schedule.Schedule(tg, part, job.PEs) })
		if err != nil {
			return nil, 0, err
		}
		bufs := 0
		for _, n := range tg.Nodes {
			if n.Kind == core.Buffer {
				bufs++
			}
		}
		return map[string]float64{
			"speedup": res.Speedup(tg), "makespan": res.Makespan,
			"nodes": float64(tg.Len()), "buffers": float64(bufs),
		}, 0, nil
	}
	return nil, 0, fmt.Errorf("no replay for variant %q", job.Variant)
}
