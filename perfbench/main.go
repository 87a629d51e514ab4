// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload, drives every layer only through its public
// functions, checks every output, and prints its metrics as the last
// line of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for their parameters and the metric tables):
//
//	scale          a fixed 10^5-node Gaussian graph (decoded, simulated) and
//	               the 10^6-node deep MLP through service.BuildReport
//	sweep-distrib  the paper's fig10,fig11,fig13,table2 plan through a
//	               distrib coordinator with its journal on and two
//	               in-process agents, each running experiments.Runner
//	serve          an open-loop Poisson ladder against the scheduling
//	               service's HTTP handler, two tenants
//
// Gated times are scaled to a reference host by a kernel run all through
// the run (host.go). With --trace 0 the result carries the
// end-to-end metrics; with
// --trace 1 the run also records spans around the same calls, writes them
// as a Chrome trace under .bench_build/perfbench/, and reports the
// per-layer metrics instead. A failed correctness gate prints the result
// with "correct": false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is what every workload gets from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir is a private scratch directory (caches, journals, traces)
	// inside the checkout, removed at exit except for the trace file.
	dir string
	// host measures the host's speed through the run.
	host *hostClock
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: its operation counts, its
// metrics, and every correctness gate that failed.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	errs              []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness gate and counts the operations it
// covers as failed (0 when they were counted already).
func (o *outcome) check(ok bool, ops int, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
		o.failed += ops
	}
}

// endToEnd sets the operation metrics every workload computes: the gated
// throughputs and ok_share, and the per-layer p50_ms and p99_ms. The
// throughputs are measured rates, which endToEnd scales to the reference
// host; lat holds per-operation latencies in measured ms. The tenant p95s
// and max_rate_rps exist only on serve, which sets them itself; other
// workloads report them as 0.
type endToEnd struct {
	nodesPerS, cellsPerS float64
	lat                  []float64
	okShare              float64
}

func (o *outcome) endToEnd(h *hostClock, e endToEnd) {
	o.set("nodes_per_s", "1/s", e.nodesPerS*h.slowdown())
	o.set("cells_per_s", "1/s", e.cellsPerS*h.slowdown())
	o.set("p50_ms", "ms", median(e.lat))
	o.set("p99_ms", "ms", tail(e.lat, 99))
	o.set("ok_share", "share", e.okShare)
}

type workloadFunc func(cfg config, o *outcome) (setup []time.Duration, err error)

var workloads = map[string]workloadFunc{
	"scale":         runScale,
	"sweep-distrib": runSweepDistrib,
	"serve":         runServe,
}

func main() {
	name := flag.String("workload", "", "workload: scale, sweep-distrib or serve")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(outDir, *name+"-")
	if err != nil {
		fail(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, dir: dir, host: startHostClock()}

	o := newOutcome()
	setup, err := run(cfg, o)
	cfg.host.close()
	os.RemoveAll(dir)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.4f reference CPU-s; host kernel %.3f ms\n", setupS, cfg.host.kernelMs())
	o.set("setup_s", "s", median(setupS))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("host.kernel_ms", "ms", cfg.host.kernelMs())

	res := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	if cfg.trace {
		res.Metrics = pick(o.metrics, perLayerNames())
	} else {
		res.Metrics = pick(o.metrics, endToEndNames)
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", *name, e)
	}
	printTable(*name, cfg, res, o.metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// maxProcs caps GOMAXPROCS: the benchmark's figures are for two CPUs.
const maxProcs = 2

// outDir holds scratch state and trace files, inside the checkout.
const outDir = ".bench_build/perfbench"

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// pick returns the named metrics, reporting 0 for a layer this workload
// does not reach (a per-layer metric of another workload).
func pick(all map[string]metric, names []nameUnit) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n.name]
		if !ok {
			m = metric{Value: 0, Unit: n.unit}
		}
		out[n.name] = m
	}
	return out
}

// repeatSetup runs set-up n times and returns each one's process CPU
// time, scaled to the reference host by the kernels that ran during the
// set-ups; the workload keeps the last set-up's inputs. Set-up is
// CPU-bound work on a quiet process, and CPU time keeps hypervisor steal
// on a shared host out of setup_s.
func repeatSetup(h *hostClock, n int, f func() error) ([]time.Duration, error) {
	from := h.count()
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := cpuClock()
		if err := f(); err != nil {
			return nil, err
		}
		ds = append(ds, cpuClock()-t0)
	}
	s := h.slowdownSince(from)
	for i := range ds {
		ds[i] = time.Duration(float64(ds[i]) / s)
	}
	runtime.GC()
	return ds, nil
}

// cpuClock is the process's user plus system CPU time, less what the
// host clock's kernels used. The kernel does not charge the process for
// time the hypervisor stole from its virtual CPUs, so CPU-bound work timed
// with it reads the same on a busy shared host as on an idle one.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano()+ru.Stime.Nano()) - time.Duration(kernelCPU.Load())
}

// setupRepeats is how many times a workload sets up; setup_s is the
// median. scale, whose set-up builds the 10^6-node graph in seconds,
// sets up scaleSetupRepeats times.
const (
	setupRepeats      = 9
	scaleSetupRepeats = 3
)

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// printTable prints every metric the run computed, by name with its
// unit, on stderr.
func printTable(name string, cfg config, res result, all map[string]metric) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%v %s: correct=%t attempted=%d failed=%d\n",
		name, cfg.seed, cfg.seconds, mode, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := all[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// traceFile writes the run's spans next to the scratch directory.
func traceFile(cfg config, workload string, t *tracer) error {
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
