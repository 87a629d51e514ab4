package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// The serve workload: an open-loop Poisson ladder against one
// service.New, driven through Handler().ServeHTTP.
var (
	// ladderRates are the offered rates in requests per second: a nominal
	// rung whose p99 sits near half the latency limit on two CPUs, then
	// rungs 1.25^2 apart until well past the limit. Every traced run
	// runs every rung; the upper rungs feed only per-layer metrics, so
	// untraced runs stop after the nominal one. The service's tail
	// latency, not its CPU, sets the knee: it uses about a sixth of two
	// CPUs there.
	ladderRates = []float64{50, 78, 122, 191}
	// servePEs are the device sizes submissions draw from.
	servePEs = []int{32, 64, 128}
	// repeatWorkloads × seeds 1..repeatSeeds are the repeat tenant's keys.
	repeatWorkloads = []string{"synth:fft", "synth:gaussian", "synth:cholesky", "onnx:mlp"}
)

const (
	repeatSeeds = 8
	// zipfS is the repeat tenant's key-popularity exponent: the most
	// popular of the 32 keys draws about a third of its requests.
	zipfS = 1.2
	// latencyLimitMs is the p99 limit of the ladder (the interactive SLO).
	latencyLimitMs = 50
	// rungRequests gives a rung's p99 ten samples beyond it.
	rungRequests = 1000
	// The nominal rung runs as stratified segments of segmentRequests
	// each, as many as fill --seconds and at least minSegments, so that
	// the pooled rung has 1,000 requests. Its median and throughput are
	// the median segment's, so a segment that a busy neighbour slowed
	// does not set them; its tails pool every segment.
	minSegments     = 5
	segmentRequests = 200
	// warmupRequests precede the ladder unmeasured.
	warmupRequests = 200
	// growthSlack is how many jobs the open count may rise across a rung
	// before the rung counts as falling behind.
	growthSlack = 4
	// missMs stands in for the latency of a request that never completed
	// (rejected, shed or failed) when a reported percentile lands on one:
	// the result long-poll cap.
	missMs     = 60_000
	depthEvery = 25 * time.Millisecond
)

// Tenants: unique submits a fresh inline graph per request; repeat
// submits registered workloads that hit the cache and coalesce.
const (
	tenantUnique = iota
	tenantRepeat
)

var tenantNames = []string{"unique", "repeat"}

// uniqueSpec names one fresh paper-size graph of the unique tenant.
type uniqueSpec struct {
	topo int // index into experiments.Topologies()
	seed int64
	pes  int
}

// submission is one request body and the request it encodes.
type submission struct {
	body  []byte
	req   service.SubmitRequest
	nodes int
}

// serveReq is one scheduled arrival.
type serveReq struct {
	due    time.Duration // from rung start
	tenant int
	key    int        // repeat tenant: index into the repeat keys
	spec   uniqueSpec // unique tenant
}

// rungPlan is one rung's arrivals.
type rungPlan struct {
	rate float64
	reqs []serveReq
}

// rngFor derives an independent deterministic stream from the seed.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func submit(req service.SubmitRequest, nodes int) (submission, error) {
	body, err := json.Marshal(req)
	return submission{body: body, req: req, nodes: nodes}, err
}

// repeatKeys builds the repeat tenant's submissions in popularity order:
// key 0 is the most popular. Ranks cycle through the workloads so every
// seed gives each workload the same share of the traffic; the seed
// shuffles which of a workload's seeds holds each of its ranks. Repeat
// keys do not simulate: the onnx:mlp graph takes seconds to simulate,
// which would make warming the cache dominate set-up.
func repeatKeys(seed int64) ([]submission, error) {
	rng := rngFor(seed, "repeat-keys")
	seeds := make([][]int, len(repeatWorkloads))
	for i := range seeds {
		seeds[i] = rng.Perm(repeatSeeds)
	}
	keys := make([]submission, len(repeatWorkloads)*repeatSeeds)
	for rank := range keys {
		wi := rank % len(repeatWorkloads)
		w, err := experiments.LookupWorkload(repeatWorkloads[wi])
		if err != nil {
			return nil, err
		}
		req := service.SubmitRequest{
			Tenant: tenantNames[tenantRepeat], Workload: w.Name(),
			Seed: int64(seeds[wi][rank/len(repeatWorkloads)]) + 1,
			PEs:  servePEs[rank%len(servePEs)],
		}
		tg, err := buildSubmission(req)
		if err != nil {
			return nil, err
		}
		if keys[rank], err = submit(req, tg.Len()); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// planRung draws one rung's arrivals from its own stream. The mix is
// stratified so every seed offers the same work: exactly half the
// requests per tenant, the repeat keys in Zipf proportions, and the
// unique graphs split evenly across families and PE counts; the seed
// orders them and draws the unique graphs' seeds. Arrivals are a Poisson
// stream conditioned on its count: exponential gaps scaled so the last
// request is due at n/rate.
func planRung(seed int64, stream string, rate float64, n, keys int) rungPlan {
	rng := rngFor(seed, stream)
	tenants := make([]int, n)
	for i := n / 2; i < n; i++ {
		tenants[i] = tenantRepeat
	}
	rng.Shuffle(n, func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
	repeats := 0
	for _, t := range tenants {
		if t == tenantRepeat {
			repeats++
		}
	}
	keyOrder := quota(zipfWeights(keys), repeats)
	rng.Shuffle(len(keyOrder), func(i, j int) { keyOrder[i], keyOrder[j] = keyOrder[j], keyOrder[i] })
	topos := roundRobin(n-repeats, 3)
	pes := roundRobin(n-repeats, len(servePEs))
	rng.Shuffle(len(topos), func(i, j int) { topos[i], topos[j] = topos[j], topos[i] })
	rng.Shuffle(len(pes), func(i, j int) { pes[i], pes[j] = pes[j], pes[i] })

	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	p := rungPlan{rate: rate, reqs: make([]serveReq, n)}
	at, k, u := 0.0, 0, 0
	for i := range p.reqs {
		at += gaps[i] / total * float64(n) / rate
		r := serveReq{due: time.Duration(at * float64(time.Second)), tenant: tenants[i]}
		if r.tenant == tenantRepeat {
			r.key = keyOrder[k]
			k++
		} else {
			r.spec = uniqueSpec{topo: 1 + topos[u], seed: rng.Int63(), pes: servePEs[pes[u]]}
			u++
		}
		p.reqs[i] = r
	}
	return p
}

// zipfWeights are the popularity weights of n keys, rank k ∝ 1/(k+1)^zipfS.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
	}
	return w
}

// quota lists n indices in proportion to weights, rounding by largest
// remainder, grouped by index.
func quota(weights []float64, n int) []int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		x := w / sum * float64(n)
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	return out
}

// roundRobin lists n values cycling through 0..k-1.
func roundRobin(n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	return out
}

// request encodes a unique-tenant submission with its graph inline.
func (s uniqueSpec) request() (submission, error) {
	topo := experiments.Topologies()[s.topo]
	tg := topo.Build(rand.New(rand.NewSource(s.seed)), synth.DefaultConfig())
	var buf bytes.Buffer
	if err := tg.EncodeJSON(&buf); err != nil {
		return submission{}, err
	}
	return submit(service.SubmitRequest{
		Tenant: tenantNames[tenantUnique], Graph: json.RawMessage(buf.Bytes()),
		PEs: s.pes, Simulate: true,
	}, tg.Len())
}

// bodies encodes a rung's requests ahead of it.
func bodies(p rungPlan, keys []submission) ([]submission, error) {
	out := make([]submission, len(p.reqs))
	for i, r := range p.reqs {
		if r.tenant == tenantRepeat {
			out[i] = keys[r.key]
			continue
		}
		var err error
		if out[i], err = r.spec.request(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildSubmission builds a submission's graph the way the service does.
func buildSubmission(req service.SubmitRequest) (*core.TaskGraph, error) {
	if req.Workload == "" {
		return core.DecodeJSON(bytes.NewReader(req.Graph))
	}
	w, err := experiments.LookupWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	return w.Build(experiments.Options{Graphs: 1, Seed: req.Seed, Config: synth.DefaultConfig()}, 0)
}

// newService starts a service with the two tenants at equal weight and a
// fresh report cache, warmed with every repeat key.
func newService(dir string, keys []submission) (*service.Service, error) {
	cache, err := results.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{
		QueueCap: service.DefaultQueueCap,
		Workers:  2,
		Tenants: service.TenantsConfig{
			Default: service.TenantConfig{Weight: 1},
			Tenants: map[string]service.TenantConfig{
				tenantNames[tenantUnique]: {Weight: 1},
				tenantNames[tenantRepeat]: {Weight: 1},
			},
		},
		Cache: cache,
	})
	svc.Start()
	h := svc.Handler()
	for i, k := range keys {
		res := send(h, k.body, time.Now(), nil)
		if res.settle(); res.state != service.StateDone {
			return svc, fmt.Errorf("warming repeat key %d: %s", i, res.state)
		}
	}
	return svc, nil
}

// reqResult is what the generator saw of one request.
type reqResult struct {
	state      string  // a service job state, or "rejected" / "error"
	latMs      float64 // from due time to the answer
	lateMs     float64 // how late the generator sent it
	answer     []byte  // the result body, decoded by settle after the rung
	reportHash string
}

const (
	stateRejected = "rejected"
	stateError    = "error"
)

// send submits one body through the handler and long-polls its result.
// It keeps the answer undecoded, so the generator's own work stays out of
// the measured rung.
func send(h http.Handler, body []byte, due time.Time, tr *tracer) reqResult {
	res := reqResult{lateMs: ms(time.Since(due))}
	root := tr.begin("serve.request", 0, "")
	defer tr.end(root)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	span := tr.begin("service.submit", root, "")
	h.ServeHTTP(rec, req)
	tr.end(span)
	var sr service.SubmitResponse
	switch {
	case rec.Code == http.StatusTooManyRequests:
		res.state = stateRejected
	case rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil:
		res.state = stateError
	}
	if res.state != "" {
		res.latMs = ms(time.Since(due))
		return res
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/v1/result/"+sr.ID+"?wait=60s", nil)
	span = tr.begin("service.wait", root, sr.ID)
	h.ServeHTTP(rec, req)
	res.latMs = ms(time.Since(due))
	tr.end(span)
	if rec.Code != http.StatusOK {
		res.state = stateError
		return res
	}
	res.answer = rec.Body.Bytes()
	return res
}

// settle decodes an answer into the job's state and the digest of its
// marshalled report.
func (res *reqResult) settle() {
	if res.answer == nil {
		return
	}
	var st service.JobStatus
	err := json.Unmarshal(res.answer, &st)
	res.answer = nil
	if err != nil {
		res.state = stateError
		return
	}
	res.state = st.State
	if st.State == service.StateDone {
		b, err := json.Marshal(st.Schedule)
		if err != nil {
			res.state = stateError
			return
		}
		res.reportHash = digest(b)
	}
}

// rungRun is one measured rung.
type rungRun struct {
	rungPlan
	nodes   []int
	res     []reqResult
	depths  []int
	cpu     time.Duration // process CPU time from rung start to last answer
	growing bool
}

// runRung drives one rung open-loop: each request is sent at its due
// time on its own goroutine, whatever the service is doing.
func runRung(svc *service.Service, p rungPlan, subs []submission, tr *tracer) rungRun {
	r := rungRun{rungPlan: p, nodes: make([]int, len(subs)), res: make([]reqResult, len(subs))}
	for i, s := range subs {
		r.nodes[i] = s.nodes
	}
	h := svc.Handler()
	stop := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var depths []int
		t := time.NewTicker(depthEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- depths
				return
			case <-t.C:
				depths = append(depths, svc.Status().Open)
			}
		}
	}()
	c0 := cpuClock()
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i, q := range p.reqs {
		due := start.Add(q.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r.res[i] = send(h, subs[i].body, due, tr)
		}(i, due)
	}
	close(stop)
	r.depths = <-sampled
	wg.Wait()
	r.cpu = cpuClock() - c0
	r.growing = growing(r.depths, growthSlack)
	for i := range r.res {
		r.res[i].settle()
	}
	return r
}

// latencies returns the rung's latencies with misses as +Inf, for the
// requests of tenant (or all when tenant < 0).
func (r rungRun) latencies(tenant int) []float64 {
	var out []float64
	for i, res := range r.res {
		if tenant >= 0 && r.reqs[i].tenant != tenant {
			continue
		}
		if res.state == service.StateDone {
			out = append(out, res.latMs)
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

func (r rungRun) okShare() float64 {
	ok := 0
	for _, res := range r.res {
		if res.state == service.StateDone && res.latMs <= latencyLimitMs {
			ok++
		}
	}
	return share(ok, len(r.res))
}

// throughput is the rung's completed graph nodes and requests per
// CPU-second.
func (r rungRun) throughput() (nodes, done float64) {
	for i, res := range r.res {
		if res.state == service.StateDone {
			done++
			nodes += float64(r.nodes[i])
		}
	}
	return nodes / r.cpu.Seconds(), done / r.cpu.Seconds()
}

// pool joins the segments of one rung into a single run; it grows when
// any segment did.
func pool(segs []rungRun) rungRun {
	r := rungRun{rungPlan: rungPlan{rate: segs[0].rate}}
	for _, s := range segs {
		r.reqs = append(r.reqs, s.reqs...)
		r.nodes = append(r.nodes, s.nodes...)
		r.res = append(r.res, s.res...)
		r.depths = append(r.depths, s.depths...)
		r.cpu += s.cpu
		r.growing = r.growing || s.growing
	}
	return r
}

func (r rungRun) p99() float64 {
	v, ok := percentile(r.latencies(-1), 99)
	if !ok {
		return math.Inf(1)
	}
	return v
}

// finite clamps a miss for reporting.
func finite(v float64) float64 { return math.Min(v, missMs) }

// measureRung encodes a rung's bodies (untimed) and runs it.
func measureRung(svc *service.Service, p rungPlan, keys []submission, tr *tracer) (rungRun, error) {
	subs, err := bodies(p, keys)
	if err != nil {
		return rungRun{}, err
	}
	runtime.GC()
	return runRung(svc, p, subs, tr), nil
}

type serveInputs struct {
	keys     []submission
	segments []rungPlan // the nominal rung
	rungs    []rungPlan // the upper rungs
	svc      *service.Service
}

func runServe(cfg config, o *outcome) ([]time.Duration, error) {
	in := &serveInputs{}
	setups := 0
	segments := max(minSegments, int(cfg.seconds.Seconds()*ladderRates[0])/segmentRequests)
	setup, err := repeatSetup(cfg.host, setupRepeats, func() error {
		if in.svc != nil {
			if err := closeService(in.svc); err != nil {
				return err
			}
		}
		var err error
		if in.keys, err = repeatKeys(cfg.seed); err != nil {
			return err
		}
		in.segments, in.rungs = in.segments[:0], in.rungs[:0]
		for k := 0; k < segments; k++ {
			stream := fmt.Sprintf("rung-%g-%d", ladderRates[0], k)
			in.segments = append(in.segments, planRung(cfg.seed, stream, ladderRates[0], segmentRequests, len(in.keys)))
		}
		for _, rate := range ladderRates[1:] {
			in.rungs = append(in.rungs, planRung(cfg.seed, fmt.Sprintf("rung-%g", rate), rate, rungRequests, len(in.keys)))
		}
		setups++
		in.svc, err = newService(filepath.Join(cfg.dir, fmt.Sprintf("cache-%d", setups)), in.keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer closeService(in.svc)
	// Warm up at the nominal rate, unmeasured, so the heap and the GC pace
	// reach their running state before the first rung.
	warm := planRung(cfg.seed, "warmup", ladderRates[0], warmupRequests, len(in.keys))
	if _, err := measureRung(in.svc, warm, in.keys, nil); err != nil {
		return setup, err
	}
	before := in.svc.Status()

	var segs []rungRun
	var segP50, segNodes, segDone []float64
	for k, p := range in.segments {
		r, err := measureRung(in.svc, p, in.keys, nil)
		if err != nil {
			return setup, err
		}
		segs = append(segs, r)
		nodes, done := r.throughput()
		segP50 = append(segP50, median(r.latencies(-1)))
		segNodes = append(segNodes, nodes)
		segDone = append(segDone, done)
		fmt.Fprintf(os.Stderr, "perfbench: serve rung %g req/s segment %d: p50 %.2f ms, %.1f req per CPU-s\n",
			p.rate, k, finite(segP50[k]), done)
	}
	nominal := pool(segs)
	runs := []rungRun{nominal}
	ladder := []rung{{Rate: nominal.rate, P99: nominal.p99(), Growing: nominal.growing}}
	if cfg.trace {
		for _, p := range in.rungs {
			r, err := measureRung(in.svc, p, in.keys, nil)
			if err != nil {
				return setup, err
			}
			runs = append(runs, r)
			ladder = append(ladder, rung{Rate: p.rate, P99: r.p99(), Growing: r.growing})
		}
		o.set("max_rate_rps", "1/s", maxRate(ladder, latencyLimitMs))
	}
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "perfbench: serve rung %g req/s: p99 %.1f ms, ok %.4f, growing %t\n",
			r.rate, finite(r.p99()), r.okShare(), r.growing)
	}
	after := in.svc.Status()

	// The offered rate is fixed, so requests per wall second would only
	// repeat it; throughput here is per CPU-second the process spent on
	// the rung, the service's cost of serving it.
	lat := nominal.latencies(-1)
	o.endToEnd(cfg.host, endToEnd{
		nodesPerS: median(segNodes),
		cellsPerS: median(segDone),
		lat:       lat,
		okShare:   nominal.okShare(),
	})
	o.set("p50_ms", "ms", median(segP50))
	o.set("unique.p95_ms", "ms", tail(nominal.latencies(tenantUnique), 95))
	o.set("repeat.p95_ms", "ms", tail(nominal.latencies(tenantRepeat), 95))
	for _, name := range []string{"p50_ms", "p99_ms", "unique.p95_ms", "repeat.p95_ms"} {
		m := o.metrics[name]
		m.Value = finite(m.Value)
		o.metrics[name] = m
	}

	var tr *tracer
	if cfg.trace {
		// The nominal rung again, with spans, on fresh unique graphs.
		tr = newTracer(false)
		p := planRung(cfg.seed, "rung-traced", ladderRates[0], rungRequests, len(in.keys))
		r, err := measureRung(in.svc, p, in.keys, tr)
		if err != nil {
			return setup, err
		}
		runs = append(runs, r)
		layers := tr.layers()
		for _, n := range []string{"service.submit", "service.wait"} {
			if l := layers[n]; l != nil {
				o.set(n+"_ms.p50", "ms", median(l.Durations))
				o.set(n+"_ms.p99", "ms", tail(l.Durations, 99))
			}
		}
		o.set("trace.overhead_share", "share", mean(r.latencies(-1))/mean(lat)-1)
	}

	// Gates: every completed report equals BuildReport's for its
	// submission, and every accepted job resolved.
	evalMs, err := verifyServe(o, in.keys, runs, tr)
	if err != nil {
		return setup, err
	}
	end := in.svc.Status()
	o.check(end.Failed == 0, 0, "service failed %d jobs", end.Failed)
	dropped := end.Accepted - end.Completed - end.Shed - end.Failed
	o.check(dropped == 0, int(max(dropped, -dropped)),
		"dropped requests: accepted %d, completed %d, shed %d, failed %d", end.Accepted, end.Completed, end.Shed, end.Failed)
	if !cfg.trace {
		return setup, nil
	}

	o.set("service.eval_ms.p50", "ms", median(evalMs))
	o.set("service.eval_ms.p99", "ms", tail(evalMs, 99))
	acc := float64(after.Accepted - before.Accepted)
	o.set("service.evals_per_req", "share", float64(after.Evaluations-before.Evaluations)/acc)
	hits := after.CacheHits - before.CacheHits
	o.set("service.cache_hit_share", "share", share64(hits, hits+after.CacheMisses-before.CacheMisses))
	o.set("service.coalesced_share", "share", float64(after.Coalesced-before.Coalesced)/acc)
	o.set("service.batch_size", "count", acc/float64(after.Batches-before.Batches))
	o.set("service.rejected", "count", float64(after.Rejected-before.Rejected))
	o.set("service.shed", "count", float64(after.Shed-before.Shed))
	var late []float64
	maxDepth := 0
	for _, r := range runs[:len(ladder)] {
		for _, res := range r.res {
			late = append(late, res.lateMs)
		}
		for _, d := range r.depths {
			maxDepth = max(maxDepth, d)
		}
		l := r.latencies(-1)
		o.set(ladderName(r.rate, "p50_ms"), "ms", finite(median(l)))
		o.set(ladderName(r.rate, "p99_ms"), "ms", finite(r.p99()))
		o.set(ladderName(r.rate, "ok_share"), "share", r.okShare())
	}
	o.set("service.queue_depth.max", "count", float64(maxDepth))
	o.set("loadgen.late_ms.p99", "ms", tail(late, 99))
	o.set("loadgen.late_ms.max", "ms", maxOf(late))
	return setup, traceFile(cfg, "serve", tr)
}

// mean averages the finite values.
func mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// verifyServe recomputes service.BuildReport for every distinct completed
// submission (on two goroutines, outside the measured rungs) and checks
// every completed request's report against it. It counts attempted and
// failed requests and returns the per-evaluation times in ms.
func verifyServe(o *outcome, keys []submission, runs []rungRun, tr *tracer) ([]float64, error) {
	type check struct {
		req  service.SubmitRequest
		want string
		ms   float64
		err  error
	}
	var checks []*check
	keyCheck := make(map[int]*check)
	owner := make([][]*check, len(runs))
	for ri, r := range runs {
		owner[ri] = make([]*check, len(r.res))
		for i, res := range r.res {
			o.attempted++
			switch res.state {
			case service.StateDone:
			case stateRejected, service.StateShed:
				continue
			default:
				o.check(false, 1, "request %d at %g req/s ended %q", i, r.rate, res.state)
				continue
			}
			q := r.reqs[i]
			if q.tenant == tenantRepeat {
				c := keyCheck[q.key]
				if c == nil {
					c = &check{req: keys[q.key].req}
					keyCheck[q.key] = c
					checks = append(checks, c)
				}
				owner[ri][i] = c
				continue
			}
			s, err := q.spec.request()
			if err != nil {
				return nil, err
			}
			c := &check{req: s.req}
			checks = append(checks, c)
			owner[ri][i] = c
		}
	}
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(checks); k += workers {
				c := checks[k]
				c.want, c.ms, c.err = expectedReport(c.req, tr)
			}
		}(w)
	}
	wg.Wait()
	evalMs := make([]float64, len(checks))
	for k, c := range checks {
		if c.err != nil {
			return nil, c.err
		}
		evalMs[k] = c.ms
	}
	for ri, r := range runs {
		for i, res := range r.res {
			if c := owner[ri][i]; c != nil && res.reportHash != c.want {
				o.check(false, 1, "request %d at %g req/s: served report differs from BuildReport's", i, r.rate)
			}
		}
	}
	return evalMs, nil
}

// expectedReport hashes the marshalled service.BuildReport of one
// submission and times the BuildReport call.
func expectedReport(req service.SubmitRequest, tr *tracer) (string, float64, error) {
	tg, err := buildSubmission(req)
	if err != nil {
		return "", 0, err
	}
	span := tr.begin("service.eval", 0, "")
	t0 := time.Now()
	rep, err := service.BuildReport(tg, req.PEs, schedule.SBLTS, "lts", req.Simulate)
	d := time.Since(t0)
	tr.end(span)
	if err != nil {
		return "", 0, err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return "", 0, err
	}
	return digest(b), ms(d), nil
}

func closeService(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return svc.Close(ctx)
}
