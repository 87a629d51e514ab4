package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/results"
)

// The sweep-distrib workload: the sweep plan through a coordinator with
// its journal on and distribAgents agents of one worker each, all in
// process. Agents reach the coordinator's handler through an
// http.RoundTripper, so no socket is opened.
//
// A pass is timed in process CPU time and scaled to the reference host.
// Its wall time waits on the journal's fsyncs, about a thousand per pass,
// and on a shared disk that moved pass times by a factor of two within
// one run, while CPU time per pass held within 4%. The journal's CPU cost
// (encoding, checksums, the write and sync calls) stays in; the disk's
// latency shows in the per-layer distrib.complete_ms and
// wall_nodes_per_s.
const (
	distribAgents = 2
	// distribMinPasses runs the plan at least this often per run, past
	// --seconds if need be. Throughput is the median pass's, so a pass
	// that a busy neighbour slowed does not set it, and the passes lease
	// about 1,500 batches, enough for a per-batch p99.
	distribMinPasses = 3
)

// handlerTransport is an http.RoundTripper that serves each request by
// calling the coordinator's handler in process. It times every call and,
// per agent, each batch's protocol time: its lease call plus its
// completion upload, the coordinator's share of the batch.
type handlerTransport struct {
	h     http.Handler
	agent int
	rec   *protocolRecorder
	tr    *tracer
	// leased is the duration of this agent's pending lease call.
	leased  time.Duration
	pending bool
}

// protocolRecorder collects handler timings across agents.
type protocolRecorder struct {
	mu      sync.Mutex
	handler time.Duration
	leaseMs []float64
	compMs  []float64
	batchMs []float64 // protocol time per leased batch
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	span := t.tr.begin("distrib"+path, 0, fmt.Sprintf("agent-%d", t.agent))
	w := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(w, req)
	d := time.Since(t0)
	t.tr.end(span)
	if req.Body != nil {
		req.Body.Close()
	}

	t.rec.mu.Lock()
	t.rec.handler += d
	switch path {
	case "/v1/lease":
		t.rec.leaseMs = append(t.rec.leaseMs, ms(d))
		t.leased, t.pending = d, true
	case "/v1/complete":
		t.rec.compMs = append(t.rec.compMs, ms(d))
		if t.pending {
			t.rec.batchMs = append(t.rec.batchMs, ms(t.leased+d))
			t.pending = false
		}
	}
	t.rec.mu.Unlock()
	return w.Result(), nil
}

// distribPass is one complete distributed run of the plan.
type distribPass struct {
	art      *results.Artifact
	status   distrib.Status
	elapsed  time.Duration
	cpu      time.Duration // process CPU time of the pass
	mergeS   float64
	journalB int64
	dups     int
	leases   int
}

func runDistribPass(cfg config, specs []experiments.Spec, rec *protocolRecorder, tr *tracer, pass int) (distribPass, error) {
	var p distribPass
	state := filepath.Join(cfg.dir, fmt.Sprintf("state-%d", pass))
	t0, c0 := time.Now(), cpuClock()
	coord, err := distrib.NewCoordinator(specs, distrib.CoordinatorOptions{StateDir: state, Run: "perfbench"})
	if err != nil {
		return p, err
	}
	defer coord.Close()
	h := coord.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	errs := make([]error, distribAgents)
	var wg sync.WaitGroup
	for i := 0; i < distribAgents; i++ {
		a := &distrib.Agent{
			URL:       "http://coordinator",
			Worker:    fmt.Sprintf("agent-%d", i),
			Workers:   1,
			Log:       io.Discard,
			Client:    &http.Client{Transport: &handlerTransport{h: h, agent: i, rec: rec, tr: tr}},
			RetrySeed: cfg.seed + int64(i) + 1,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = a.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return p, fmt.Errorf("agent %d: %w", i, err)
		}
	}
	select {
	case <-coord.Done():
	default:
		return p, fmt.Errorf("agents returned before the run was done")
	}
	t1 := time.Now()
	p.art = coord.Artifact()
	p.mergeS = time.Since(t1).Seconds()
	p.elapsed = time.Since(t0)
	p.cpu = cpuClock() - c0
	p.status = coord.Status()
	for _, w := range p.status.Workers {
		p.dups += w.Duplicates
		p.leases += w.Leases
	}
	p.journalB = dirBytes(state)
	return p, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func runSweepDistrib(cfg config, o *outcome) ([]time.Duration, error) {
	in := &planInputs{}
	setup, err := repeatSetup(cfg.host, setupRepeats, func() error {
		if err := sweepSetup(cfg.seed, in); err != nil {
			return err
		}
		// A coordinator compiles the plan. It opens no journal here: each
		// measured pass starts its own coordinator on a fresh state
		// directory, and the journal's fsyncs would make set-up time
		// follow the disk rather than the program.
		coord, err := distrib.NewCoordinator(in.specs, distrib.CoordinatorOptions{Run: "perfbench"})
		if err != nil {
			return err
		}
		coord.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Local reference cells for the merge gate (untimed), checked in turn
	// against a replay of a sample of cells through the layer functions.
	set, rep := experiments.Runner{Workers: sweepWorkers}.RunPlan(in.plan)
	want := checkPlanCells(o, cfg, "local reference sweep", set.Cells(), len(in.plan.Jobs), len(rep.Failures), "")
	if _, _, err := replayPlan(nil, 0, in, set, replayStride, o); err != nil {
		return nil, err
	}
	parallelEff := rep.Work.Seconds() / (rep.Elapsed.Seconds() * sweepWorkers)

	rec := &protocolRecorder{}
	var elapsed time.Duration
	var cellRates, nodeRates, wallRates []float64
	nodes := 0
	for _, n := range in.nodes {
		nodes += n
	}
	var untraced distribPass
	for i := 0; ; i++ {
		p, err := runDistribPass(cfg, in.specs, rec, nil, i)
		if err != nil {
			return setup, err
		}
		os.RemoveAll(filepath.Join(cfg.dir, fmt.Sprintf("state-%d", i)))
		elapsed += p.elapsed
		o.attempted += p.status.Jobs
		o.failed += p.status.Failed
		cellRates = append(cellRates, float64(len(p.art.Cells))/p.cpu.Seconds())
		nodeRates = append(nodeRates, float64(nodes)/p.cpu.Seconds())
		wallRates = append(wallRates, float64(nodes)/p.elapsed.Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: sweep-distrib pass %d: %.0f cells per CPU-s, %.0f cells/s\n",
			i, cellRates[i], float64(len(p.art.Cells))/p.elapsed.Seconds())
		checkPlanCells(o, cfg, fmt.Sprintf("merged artifact %d", i), p.art.Cells, len(in.plan.Jobs), len(p.art.Failures), want)
		untraced = p
		if i+1 >= distribMinPasses && (cfg.trace || elapsed+elapsed/time.Duration(i+1) > cfg.seconds) {
			break
		}
	}
	o.endToEnd(cfg.host, endToEnd{
		nodesPerS: median(nodeRates),
		cellsPerS: median(cellRates),
		lat:       rec.batchMs,
		okShare:   share(o.attempted-o.failed, o.attempted),
	})
	o.set("wall_nodes_per_s", "1/s", median(wallRates))
	if !cfg.trace {
		return setup, nil
	}

	// Traced: one more pass with a span per handler call.
	tr := newTracer(false)
	trec := &protocolRecorder{}
	p, err := runDistribPass(cfg, in.specs, trec, tr, 1<<20)
	if err != nil {
		return setup, err
	}
	o.attempted += p.status.Jobs
	o.failed += p.status.Failed
	checkPlanCells(o, cfg, "traced merged artifact", p.art.Cells, len(in.plan.Jobs), len(p.art.Failures), want)
	o.set("distrib.lease_ms.p50", "ms", median(trec.leaseMs))
	o.set("distrib.lease_ms.p99", "ms", tail(trec.leaseMs, 99))
	o.set("distrib.complete_ms.p50", "ms", median(trec.compMs))
	o.set("distrib.complete_ms.p99", "ms", tail(trec.compMs, 99))
	o.set("distrib.leases", "count", float64(p.leases))
	o.set("distrib.requeues", "count", float64(p.status.Requeues))
	o.set("distrib.duplicates", "count", float64(p.dups))
	o.set("distrib.merge_s", "s", p.mergeS)
	o.set("distrib.journal_mb", "MB", float64(p.journalB)/1e6)
	o.set("distrib.protocol_share", "share", trec.handler.Seconds()/(distribAgents*p.elapsed.Seconds()))
	o.set("trace.overhead_share", "share", p.elapsed.Seconds()/untraced.elapsed.Seconds()-1)
	o.set("experiments.parallel_eff", "share", parallelEff)
	if err := traceFile(cfg, "sweep-distrib", tr); err != nil {
		return setup, err
	}
	// The cells' layers, one call at a time: what the agents' Runners
	// spend a pass on.
	return setup, sweepReplay(cfg, in, set, o)
}
