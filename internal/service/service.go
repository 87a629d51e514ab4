// Package service is the always-on scheduling service: a long-running
// HTTP/JSON server that accepts a continuous stream of graph-submission
// requests, schedules each onto a shared device model through a bounded
// worker pool, and streams results back. It turns the batch pipeline —
// load a graph, run schedule.Algorithm1 + schedule.Schedule, exit — into
// continuous operation, on the HTTP layer it shares with internal/distrib
// (internal/httpapi: versioned JSON endpoints, typed JSON rejections).
//
// The protocol is three endpoints:
//
//	POST /v1/submit       submit one graph (inline JSON or a registered
//	                      workload name) for scheduling; 429 + Retry-After
//	                      when the admission queue is full
//	GET  /v1/result/{id}  the job's state and, once done, its schedule
//	                      report; ?wait=<dur> long-polls until completion
//	GET  /v1/statusz      queue depth, worker pool, admission counters
//
// Scheduling is batched: submissions accumulate in an admission-bounded
// queue and a periodic scheduling tick serves it with deterministic
// weighted fair queueing across tenants (tenants.go): up to BatchCap
// jobs per tick, backlogged tenants served in proportion to their
// configured weights, jobs within a tenant ordered closest to completion
// first (fewest compute tasks — the same finish-what-is-nearly-done
// policy as dplutils' StreamingGraphExecutor), and compatible
// submissions — identical (graph fingerprint, PEs, variant, simulate) —
// coalesced into one evaluation whose report every submitter receives.
// The same (fingerprint, PEs, variant, simulate) key addresses the
// optional persistent result cache (results.Cache), so repeated
// submissions are served without re-evaluation, across restarts too.
//
// Determinism: a job's schedule report is a pure function of its (graph,
// PEs, variant) inputs, computed by the exact batch-mode code path
// (BuildReport), so a service response is byte-identical to a direct
// schedule.Schedule run of the same submission no matter how requests
// interleave, batch, coalesce, or hit the cache — the race e2e test
// enforces this. Dispatch order is likewise a pure function of the
// queued submissions, the tenant config, and the fair-queue progress
// counters, never of arrival interleaving.
//
// Shutdown is a drain: Close stops admission (503 for new submissions),
// flushes the queue, and completes every accepted job before returning,
// bounded by the caller's context. The open-loop load generator for this
// service lives in loadgen.go; cmd/streamsched wires both (-serve,
// -loadgen, -loadtest; see docs/SERVICE.md).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// Defaults for Options.
const (
	// DefaultQueueCap bounds admitted-but-unfinished jobs. Small graphs
	// schedule in milliseconds, so 64 queued jobs is well under a second
	// of backlog on one core while still absorbing arrival bursts.
	DefaultQueueCap = 64
	// DefaultTick is the scheduling-tick period: long enough that a burst
	// coalesces into one batch, short enough to add negligible latency
	// next to a schedule evaluation.
	DefaultTick = 2 * time.Millisecond
	// DefaultPEs is the device model submissions are scheduled onto when
	// a request does not name a PE count.
	DefaultPEs = 4
	// maxWait caps the ?wait long-poll duration of /v1/result.
	maxWait = 60 * time.Second
)

// Options configures a Service.
type Options struct {
	// QueueCap bounds admitted-but-unfinished jobs (queued + running);
	// a submission past the cap is rejected with 429 + Retry-After.
	// 0 means DefaultQueueCap.
	QueueCap int
	// Workers is the scheduling worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Tick is the batching period of the scheduling loop; 0 means
	// DefaultTick.
	Tick time.Duration
	// DefaultPEs is the PE count of submissions that leave pes unset;
	// 0 means DefaultPEs.
	DefaultPEs int

	// Tenants is the multi-tenant contract: per-tenant fair-queueing
	// weights, open-job quotas, and latency-SLO targets. The zero value
	// is the single-tenant legacy contract (every client shares one
	// weight-1 default tenant). It must Validate; use ParseTenantsConfig
	// or LoadTenantsFile for external input.
	Tenants TenantsConfig
	// BatchCap bounds jobs dispatched per scheduling tick. 0 means the
	// whole queue is dispatched every tick (the legacy drain-all
	// behavior); a positive cap is what makes weighted fair queueing
	// bite under backlog.
	BatchCap int
	// ShedPolicy selects what a full queue does to new submissions:
	// ShedTailDrop (default), ShedLargestGraphFirst, or
	// ShedOverQuotaFirst. Must be a ParseShedPolicy result.
	ShedPolicy string
	// Cache, when non-nil, persists schedule reports under their
	// coalescing key (results.Fingerprint, PEs, variant, simulate) so
	// repeated submissions — including across service restarts — are
	// served without re-evaluation.
	Cache *results.Cache

	// now replaces the wall clock; tests pin it for stable uptime fields.
	now func() time.Time
}

// reportBlobNS is the results.Cache blob namespace service reports are
// stored under.
const reportBlobNS = "service-report"

// SubmitRequest is the body of POST /v1/submit. Exactly one of Workload
// and Graph selects the task graph.
type SubmitRequest struct {
	// Tenant names the submitting tenant for quota and fair-queueing
	// accounting; the HTTP layer also accepts an X-Tenant header (the
	// JSON field wins when both are set). Empty means DefaultTenant, so
	// legacy clients keep working unchanged.
	Tenant string `json:"tenant,omitempty"`
	// Workload names a registered workload ("synth:fft", "onnx:mlp", ...;
	// see streamsched -list-variants). Synthetic families build instance 0
	// at Seed under the default volume config, so equal (workload, seed)
	// submissions are the same graph.
	Workload string `json:"workload,omitempty"`
	// Graph is an inline task graph in the core JSON format
	// (core.DecodeJSON; see examples/quickstart).
	Graph json.RawMessage `json:"graph,omitempty"`
	// Seed parameterizes synthetic workload construction; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// PEs is the device model's PE count for this job; 0 means the
	// service default.
	PEs int `json:"pes,omitempty"`
	// Variant is the spatial-block heuristic, "lts" (default) or "rlx".
	Variant string `json:"variant,omitempty"`
	// Simulate additionally validates the schedule in the discrete-event
	// simulator and attaches the result.
	Simulate bool `json:"simulate,omitempty"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	// ID addresses the job on /v1/result/{id}. IDs are sequential per
	// service instance.
	ID string `json:"id"`
	// QueueDepth is the number of queued (undispatched) jobs after this
	// admission, including this one.
	QueueDepth int `json:"queue_depth"`
}

// Job states reported on /v1/result.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateShed marks an accepted job evicted from the queue by the
	// load-shed policy to admit other work; it is a terminal state
	// distinct from "failed" (the job was never evaluated).
	StateShed = "shed"
)

// JobStatus is the answer to GET /v1/result/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Schedule is the job's report once State is done.
	Schedule *ScheduleReport `json:"schedule,omitempty"`
}

// Statusz is the service health report on GET /v1/statusz.
type Statusz struct {
	UptimeMs   float64 `json:"uptime_ms"`
	QueueCap   int     `json:"queue_cap"`
	BatchCap   int     `json:"batch_cap,omitempty"`
	Workers    int     `json:"workers"`
	TickMs     float64 `json:"tick_ms"`
	DefaultPEs int     `json:"default_pes"`
	ShedPolicy string  `json:"shed_policy"`
	Queued     int     `json:"queued"`
	Running    int     `json:"running"`
	Open       int     `json:"open"`
	Accepted   int64   `json:"accepted"`
	Rejected   int64   `json:"rejected"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	// Shed counts accepted jobs evicted by the load-shed policy;
	// Drained counts submissions resolved after draining began (the
	// Close flush), per submission like every other counter here.
	Shed    int64 `json:"shed"`
	Drained int64 `json:"drained"`
	// Batches counts scheduling ticks that dispatched at least one job;
	// Coalesced counts submissions that shared another job's evaluation.
	Batches   int64 `json:"batches"`
	Coalesced int64 `json:"coalesced"`
	// Evaluations counts actual BuildReport runs; CacheHits/CacheMisses
	// count persistent-cache lookups by evaluation (a warm resubmission
	// is a hit and no evaluation).
	Evaluations int64 `json:"evaluations"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CachePutErrors counts evaluated reports the persistent cache
	// failed to store (encoding or write errors); the job still
	// completes, and a later identical submission re-evaluates.
	CachePutErrors int64 `json:"cache_put_errors"`
	Draining       bool  `json:"draining,omitempty"`
	// Tenants is the per-tenant accounting, sorted by name: quotas,
	// fair-queue shares, SLO misses, and latency percentiles.
	Tenants []TenantStatus `json:"tenants"`
}

// job tracks one submission from admission to completion.
type job struct {
	id       string
	seq      int64
	tenant   string
	tg       *core.TaskGraph
	pes      int
	variant  schedule.Variant
	varName  string
	simulate bool
	// key is the coalescing identity: submissions with equal keys are
	// the same deterministic evaluation. cacheKey is the same identity
	// as a results.CellKey, addressing the persistent report cache.
	key      string
	cacheKey results.CellKey
	// tasks is the batch-priority key: compute nodes left to schedule
	// (fewest first — closest to completion).
	tasks int
	// submitted is the admission time on the service clock; completed
	// jobs' scheduling latency is resolution time minus this.
	submitted time.Time

	// state, report, err, and followers are guarded by Service.mu;
	// report and err are immutable once done is closed.
	state     string
	report    *ScheduleReport
	err       error
	followers []*job
	done      chan struct{}
}

// Service is the always-on scheduler. New constructs it accepting
// submissions, Start launches the scheduling loop, Close drains it.
type Service struct {
	opt Options

	mu        sync.Mutex
	jobs      map[string]*job
	queue     []*job // admitted, not yet dispatched
	tenants   map[string]*tenantState
	tenantCfg TenantsConfig
	vtime     float64 // fair-queue virtual clock (see fairPick)
	seq       int64
	open      int // queued + running
	running   int
	accepted  int64
	rejected  int64
	completed int64
	failed    int64
	shed      int64
	drained   int64
	batches   int64
	coalesced int64
	evals     int64
	cacheHit  int64
	cacheMiss int64
	// cachePutErr counts failed persistent-cache writes (Statusz.CachePutErrors).
	cachePutErr int64
	draining    bool
	started     bool

	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	sem      chan struct{}
	wg       sync.WaitGroup

	// testHookRun, when set, runs at the start of every job evaluation;
	// shutdown tests block it to hold jobs in flight deterministically.
	testHookRun func()
	// testHookBatch, when set, runs under mu at the end of every non-empty
	// dispatch with a snapshot of per-tenant served counts and backlog
	// flags; fairness tests reconstruct the per-tick share series from it.
	testHookBatch func(served map[string]int64, backlogged map[string]bool)
}

// New builds a service. It accepts submissions immediately; nothing is
// scheduled until Start. Options.Tenants and Options.ShedPolicy are
// programmer input: an invalid contract or policy panics (external
// input goes through ParseTenantsConfig / ParseShedPolicy first).
func New(opt Options) *Service {
	if opt.QueueCap <= 0 {
		opt.QueueCap = DefaultQueueCap
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Tick <= 0 {
		opt.Tick = DefaultTick
	}
	if opt.DefaultPEs <= 0 {
		opt.DefaultPEs = DefaultPEs
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	opt.Tenants = opt.Tenants.normalize()
	if err := opt.Tenants.Validate(); err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	policy, err := ParseShedPolicy(opt.ShedPolicy)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	opt.ShedPolicy = policy
	s := &Service{
		opt:       opt,
		jobs:      make(map[string]*job),
		tenants:   make(map[string]*tenantState),
		tenantCfg: opt.Tenants,
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		sem:       make(chan struct{}, opt.Workers),
	}
	s.start = opt.now()
	return s
}

// ReloadTenants swaps the tenant contract at runtime: existing tenants
// are re-bound to their new config (quotas and weights apply from the
// next admission and tick), accounting is preserved. An invalid config
// is rejected and the old contract stays in force.
func (s *Service) ReloadTenants(cfg TenantsConfig) error {
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenantCfg = cfg
	for name, t := range s.tenants {
		t.cfg = cfg.For(name)
	}
	return nil
}

// ReloadTenantsFile reloads the tenant contract from a config file
// (the -tenants flag; SIGHUP triggers this in streamsched -serve). A
// malformed file is rejected with a descriptive error and the running
// contract is untouched.
func (s *Service) ReloadTenantsFile(path string) error {
	cfg, err := LoadTenantsFile(path)
	if err != nil {
		return err
	}
	return s.ReloadTenants(cfg)
}

// tenantLocked returns (creating on first sight) the accounting state
// of one tenant. Unknown tenants get the Default contract.
func (s *Service) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{cfg: s.tenantCfg.For(name)}
		s.tenants[name] = t
	}
	return t
}

// Start launches the scheduling loop. It must be called at most once.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("service: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Close drains the service: admission stops (new submissions get 503),
// the queue is flushed to the worker pool, and every accepted job runs to
// completion. It returns ctx.Err if the context expires first; calling it
// again waits for the same drain.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()

	if started {
		s.stopOnce.Do(func() { close(s.stop) })
		select {
		case <-s.loopDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	} else {
		// The loop never ran; flush the queue directly so accepted jobs
		// still complete.
		s.flushQueue()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the scheduling tick: every Tick it serves the admission queue
// as one fair, prioritized, coalesced batch (up to BatchCap jobs).
func (s *Service) loop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.opt.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			s.flushQueue() // flush every remaining batch before draining
			return
		case <-ticker.C:
			s.dispatch()
		}
	}
}

// flushQueue dispatches until the queue is empty — the drain path.
// Admission is already closed (draining), so this terminates; BatchCap
// still shapes each flush batch, preserving fair dispatch order.
func (s *Service) flushQueue() {
	for {
		s.mu.Lock()
		n := len(s.queue)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		s.dispatch()
	}
}

// dispatch serves one scheduling tick: pick up to BatchCap jobs in
// deterministic weighted-fair order (fairPick), leave the rest queued,
// coalesce identical evaluations within the batch, and hand each leader
// to the worker pool.
func (s *Service) dispatch() {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return
	}
	batch, rest := fairPick(s.queue, s.tenantLocked, s.opt.BatchCap, &s.vtime)
	s.queue = rest
	leaders := make([]*job, 0, len(batch))
	byKey := make(map[string]*job, len(batch))
	for _, j := range batch {
		j.state = StateRunning
		s.tenantLocked(j.tenant).served++
		if lead, ok := byKey[j.key]; ok {
			lead.followers = append(lead.followers, j)
			s.coalesced++
			continue
		}
		byKey[j.key] = j
		leaders = append(leaders, j)
	}
	s.batches++
	s.running += len(batch)
	if s.testHookBatch != nil {
		served := make(map[string]int64, len(s.tenants))
		backlogged := make(map[string]bool, len(s.tenants))
		for name, t := range s.tenants {
			served[name] = t.served
			backlogged[name] = t.backlogged
		}
		s.testHookBatch(served, backlogged)
	}
	s.mu.Unlock()

	for _, j := range leaders {
		s.wg.Add(1)
		go func(j *job) {
			defer s.wg.Done()
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
			s.run(j)
		}(j)
	}
}

// run resolves one leader job and its coalesced followers with a shared
// report: served from the persistent cache when warm, evaluated (and
// cached) otherwise.
func (s *Service) run(j *job) {
	if s.testHookRun != nil {
		s.testHookRun()
	}
	rep, err, cached := s.lookupCached(j)
	putFailed := false
	if !cached {
		s.mu.Lock()
		s.evals++
		s.mu.Unlock()
		rep, err = BuildReport(j.tg, j.pes, j.variant, j.varName, j.simulate)
		if err == nil && s.opt.Cache != nil {
			// Best effort: a failed write only costs a future
			// re-evaluation, so it is counted, not returned.
			data, putErr := json.Marshal(rep)
			if putErr == nil {
				putErr = s.opt.Cache.PutBlob(reportBlobNS, j.cacheKey, data)
			}
			putFailed = putErr != nil
		}
	}
	now := s.opt.now()
	s.mu.Lock()
	if s.opt.Cache != nil {
		if cached {
			s.cacheHit++
		} else {
			s.cacheMiss++
		}
		if putFailed {
			s.cachePutErr++
		}
	}
	for _, x := range append([]*job{j}, j.followers...) {
		x.report, x.err = rep, err
		t := s.tenantLocked(x.tenant)
		if err != nil {
			x.state = StateFailed
			s.failed++
			t.failed++
		} else {
			x.state = StateDone
			s.completed++
			t.completed++
			lat := now.Sub(x.submitted)
			t.lat.add(lat)
			if t.cfg.SLOMs > 0 && ms(lat) > t.cfg.SLOMs {
				t.sloMisses++
			}
		}
		if s.draining {
			s.drained++
		}
		s.open--
		t.open--
		s.running--
		close(x.done)
	}
	s.mu.Unlock()
}

// lookupCached serves a job's report from the persistent cache. Any
// defect in a stored entry — unreadable, corrupt JSON, or a payload
// that does not match the job's identity — is a miss that falls back
// to evaluation, never a job failure.
func (s *Service) lookupCached(j *job) (*ScheduleReport, error, bool) {
	if s.opt.Cache == nil {
		return nil, nil, false
	}
	data, ok := s.opt.Cache.GetBlob(reportBlobNS, j.cacheKey)
	if !ok {
		return nil, nil, false
	}
	var rep ScheduleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, false
	}
	// Integrity guard: a parseable-but-wrong entry (hand-edited,
	// collided, truncated to valid JSON) must not serve the wrong
	// schedule. Reports round-trip JSON exactly, so these checks plus
	// the content-addressed key pin the payload to the submission.
	if rep.Nodes != j.tg.Len() || rep.PEs != j.pes || rep.Variant != j.varName ||
		(rep.Sim != nil) != j.simulate || len(rep.PE) != j.tg.Len() {
		return nil, nil, false
	}
	return &rep, nil, true
}

// Submit admits one request. The graph is built and validated before
// admission, so malformed submissions are 400s that never occupy queue
// space; a tenant over its quota — and, after the shed policy has had
// its say, a full queue — rejects with 429 and a Retry-After hint; a
// draining service rejects with 503.
func (s *Service) Submit(req SubmitRequest) (SubmitResponse, error) {
	tg, err := buildGraph(req)
	if err != nil {
		return SubmitResponse{}, httpapi.Rejectf(http.StatusBadRequest, "bad submission: %v", err)
	}
	pes := req.PEs
	if pes <= 0 {
		pes = s.opt.DefaultPEs
	}
	varName := req.Variant
	if varName == "" {
		varName = "lts"
	}
	variant, err := parseVariant(varName)
	if err != nil {
		return SubmitResponse{}, httpapi.Rejectf(http.StatusBadRequest, "bad submission: %v", err)
	}
	tenant := strings.TrimSpace(req.Tenant)
	if tenant == "" {
		tenant = DefaultTenant
	}
	tasks := tg.NumComputeNodes()
	// The fingerprint encodes and hashes the whole graph, so it is taken
	// before the lock that dispatch, status and other submits share.
	fp := results.Fingerprint(tg)
	key := fmt.Sprintf("%s/P%d/%s/sim%t", fp, pes, varName, req.Simulate)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return SubmitResponse{}, httpapi.Rejectf(http.StatusServiceUnavailable, "service is draining")
	}
	t := s.tenantLocked(tenant)
	if t.cfg.MaxOpen > 0 && t.open >= t.cfg.MaxOpen {
		t.rejected++
		s.rejected++
		return SubmitResponse{}, &admissionError{
			tenant:     tenant,
			quota:      true,
			retryAfter: s.tenantRetryLocked(t),
			depth:      len(s.queue),
		}
	}
	if s.open >= s.opt.QueueCap && !s.shedForLocked(tenant, tasks) {
		t.rejected++
		s.rejected++
		return SubmitResponse{}, &admissionError{
			tenant:     tenant,
			retryAfter: s.opt.Tick,
			depth:      len(s.queue),
		}
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%d", s.seq),
		seq:      s.seq,
		tenant:   tenant,
		tg:       tg,
		pes:      pes,
		variant:  variant,
		varName:  varName,
		simulate: req.Simulate,
		key:      key,
		cacheKey: results.CellKey{
			Graph: fp, PEs: pes, Variant: varName, Simulate: req.Simulate,
		},
		tasks:     tasks,
		submitted: s.opt.now(),
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.open++
	s.accepted++
	t.open++
	t.accepted++
	return SubmitResponse{ID: j.id, QueueDepth: len(s.queue)}, nil
}

// tenantRetryLocked hints how long a quota-rejected tenant should back
// off: the number of scheduling ticks its open jobs need to drain at
// the tenant's weighted share of the batch cap (at least one tick, at
// most the long-poll cap). Without a batch cap the whole queue drains
// every tick, so one tick is the hint.
func (s *Service) tenantRetryLocked(t *tenantState) time.Duration {
	if s.opt.BatchCap <= 0 || t.cfg.Weight <= 0 {
		return s.opt.Tick
	}
	total := 0
	for _, st := range s.tenants {
		total += st.cfg.Weight
	}
	per := s.opt.BatchCap * t.cfg.Weight / total
	if per < 1 {
		per = 1
	}
	ticks := (t.open + per - 1) / per
	if ticks < 1 {
		ticks = 1
	}
	d := time.Duration(ticks) * s.opt.Tick
	if d > maxWait {
		d = maxWait
	}
	return d
}

// shedForLocked applies the configured load-shed policy to make room
// for a newcomer of `tasks` compute tasks from `tenant`. It evicts at
// most one queued job (resolving it as StateShed) and reports whether
// the newcomer may now be admitted. The victim choice is deterministic
// in the queue contents and tenant config.
func (s *Service) shedForLocked(tenant string, tasks int) bool {
	var victim *job
	switch s.opt.ShedPolicy {
	case ShedLargestGraphFirst:
		// Evict the largest queued graph, newest first among equals —
		// but only if the newcomer is strictly smaller, so a storm of
		// large graphs cannot churn the queue.
		for _, q := range s.queue {
			if victim == nil || q.tasks > victim.tasks || (q.tasks == victim.tasks && q.seq > victim.seq) {
				victim = q
			}
		}
		if victim == nil || victim.tasks <= tasks {
			return false
		}
	case ShedOverQuotaFirst:
		// Evict from the tenant furthest over its weighted fair share
		// of open jobs (max open/weight, zero weight sorting last i.e.
		// most evictable); if the newcomer's own tenant is the most
		// over-share, it is the hog — tail-drop it instead.
		worst := ""
		for _, q := range s.queue {
			qt := s.tenants[q.tenant]
			if worst == "" {
				worst = q.tenant
				continue
			}
			wt := s.tenants[worst]
			// Compare open/weight as cross-products; weight 0 is
			// infinitely over-share.
			qOver := qt.cfg.Weight == 0 && qt.open > 0
			wOver := wt.cfg.Weight == 0 && wt.open > 0
			switch {
			case qOver && !wOver:
				worst = q.tenant
			case !qOver && wOver:
			case qt.open*wt.cfg.Weight > wt.open*qt.cfg.Weight:
				worst = q.tenant
			case qt.open*wt.cfg.Weight == wt.open*qt.cfg.Weight && q.tenant < worst:
				worst = q.tenant
			}
		}
		if worst == "" || worst == tenant {
			return false
		}
		for _, q := range s.queue {
			if q.tenant == worst && (victim == nil || q.seq > victim.seq) {
				victim = q
			}
		}
		if victim == nil {
			return false
		}
	default: // ShedTailDrop
		return false
	}

	// Resolve the victim as shed and release its slot.
	rest := s.queue[:0]
	for _, q := range s.queue {
		if q != victim {
			rest = append(rest, q)
		}
	}
	s.queue = rest
	victim.state = StateShed
	victim.err = fmt.Errorf("shed by %s policy under queue pressure", s.opt.ShedPolicy)
	vt := s.tenantLocked(victim.tenant)
	vt.open--
	vt.shed++
	s.open--
	s.shed++
	if s.draining {
		s.drained++
	}
	close(victim.done)
	return true
}

// Result snapshots one job's status.
func (s *Service) Result(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, httpapi.Rejectf(http.StatusNotFound, "unknown job %q", id)
	}
	return s.statusLocked(j), nil
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, State: j.state}
	switch j.state {
	case StateDone:
		st.Schedule = j.report
	case StateFailed, StateShed:
		st.Error = j.err.Error()
	}
	return st
}

// Wait blocks until the job resolves, the wait elapses, or ctx is done,
// then returns the job's status at that moment.
func (s *Service) Wait(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, httpapi.Rejectf(http.StatusNotFound, "unknown job %q", id)
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	return s.Result(id)
}

// Status snapshots the service counters.
func (s *Service) Status() Statusz {
	now := s.opt.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Statusz{
		UptimeMs:       float64(now.Sub(s.start)) / float64(time.Millisecond),
		QueueCap:       s.opt.QueueCap,
		BatchCap:       s.opt.BatchCap,
		Workers:        s.opt.Workers,
		TickMs:         float64(s.opt.Tick) / float64(time.Millisecond),
		DefaultPEs:     s.opt.DefaultPEs,
		ShedPolicy:     s.opt.ShedPolicy,
		Queued:         len(s.queue),
		Running:        s.running,
		Open:           s.open,
		Accepted:       s.accepted,
		Rejected:       s.rejected,
		Completed:      s.completed,
		Failed:         s.failed,
		Shed:           s.shed,
		Drained:        s.drained,
		Batches:        s.batches,
		Coalesced:      s.coalesced,
		Evaluations:    s.evals,
		CacheHits:      s.cacheHit,
		CacheMisses:    s.cacheMiss,
		CachePutErrors: s.cachePutErr,
		Draining:       s.draining,
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Tenants = append(st.Tenants, s.tenants[name].status(name))
	}
	return st
}

// buildGraph materializes a submission's task graph from its one declared
// source.
func buildGraph(req SubmitRequest) (*core.TaskGraph, error) {
	switch {
	case req.Workload != "" && len(req.Graph) > 0:
		return nil, fmt.Errorf("choose exactly one of workload and graph")
	case req.Workload != "":
		w, err := experiments.LookupWorkload(req.Workload)
		if err != nil {
			return nil, err
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		// Instance 0 at the request seed under the default volume config:
		// the same graph a batch run of this workload would build.
		return w.Build(experiments.Options{
			Graphs: 1, Seed: seed, Config: synth.DefaultConfig(),
		}, 0)
	case len(req.Graph) > 0:
		return core.DecodeJSON(bytes.NewReader(req.Graph))
	}
	return nil, fmt.Errorf("choose exactly one of workload and graph")
}

func parseVariant(s string) (schedule.Variant, error) {
	switch s {
	case "lts":
		return schedule.SBLTS, nil
	case "rlx":
		return schedule.SBRLX, nil
	}
	return schedule.SBLTS, fmt.Errorf("unknown variant %q (want lts or rlx)", s)
}

// admissionError is a 429 with its Retry-After hint and the queue depth
// at rejection time, surfaced in both the header and the JSON body.
// quota distinguishes a per-tenant quota rejection (whose Retry-After is
// the tenant's own drain estimate) from a full shared queue.
type admissionError struct {
	tenant     string
	quota      bool
	retryAfter time.Duration
	depth      int
}

func (e *admissionError) Error() string {
	if e.quota {
		return fmt.Sprintf("tenant %q over max_open quota; retry after %v", e.tenant, e.retryAfter)
	}
	return fmt.Sprintf("admission queue full (%d queued); retry after %v", e.depth, e.retryAfter)
}

// Unwrap presents the rejection to httpapi.Reject: a 429 whose
// Retry-After is the hint and whose body adds the tenant and the queue
// pressure.
func (e *admissionError) Unwrap() error {
	body, _ := json.Marshal(rejection{
		Error:        e.Error(),
		Tenant:       e.tenant,
		QueueDepth:   e.depth,
		RetryAfterMs: float64(e.retryAfter) / float64(time.Millisecond),
	})
	return &httpapi.Error{Code: http.StatusTooManyRequests, Msg: e.Error(), RetryAfter: e.retryAfter, Body: body}
}

// rejection is the JSON body of a non-2xx response.
type rejection struct {
	Error string `json:"error"`
	// Tenant names the rejected tenant on 429s.
	Tenant string `json:"tenant,omitempty"`
	// QueueDepth and RetryAfterMs accompany 429s so open-loop clients can
	// record queue pressure without a second statusz round trip.
	QueueDepth   int     `json:"queue_depth,omitempty"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
}

// maxSubmitBody caps a submission body. Inline graphs are the only big
// field, and even the XL workload families are registered by name rather
// than posted — 8 MiB is room for any sane inline graph while keeping a
// hostile client from buffering the service into an OOM.
const maxSubmitBody = 8 << 20

// Handler exposes the service's three endpoints as an http.Handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", httpapi.Post(maxSubmitBody,
		func(r *http.Request, req SubmitRequest) (SubmitResponse, error) {
			if req.Tenant == "" {
				req.Tenant = r.Header.Get("X-Tenant")
			}
			return s.Submit(req)
		}))
	mux.HandleFunc("/v1/result/", httpapi.Get(func(r *http.Request) (any, error) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/result/")
		wait := time.Duration(0)
		if v := r.URL.Query().Get("wait"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, httpapi.Rejectf(http.StatusBadRequest, "bad wait %q", v)
			}
			wait = min(d, maxWait)
		}
		return s.Wait(r.Context(), id, wait)
	}))
	mux.HandleFunc("/v1/statusz", httpapi.Get(func(*http.Request) (any, error) { return s.Status(), nil }))
	return mux
}
