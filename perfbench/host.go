package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a shared host whose speed drifts: the same
// CPU-bound pass reads 30-50% slower, in CPU time as in wall time, while
// neighbours on the physical machine are busy, and that drift lasts
// minutes. A hostClock measures it. Through the whole run a goroutine
// runs a fixed reference kernel (code of the benchmark's own, so no change
// to the program moves it) every kernelEvery and records the kernel's
// thread CPU time. Every gated time is then scaled by refKernel over the
// median kernel time of the run, or of the set-up for setup_s: it reads
// as seconds on a host that runs the kernel in refKernel. A program that
// gets slower or faster moves the scaled figure as it moves the raw one;
// a host that gets slower moves the kernel with it.
//
// The kernel sorts a fixed pseudo-random slice held in cache, so it
// tracks the CPU's speed, not the memory system's. Probes on a two-vCPU
// host found that this is what drifts: over 10-second windows a
// 10^4-node BuildReport moved 28% while its ratio to the kernel moved 6%,
// whereas a pointer chase over 32 MB did not follow the drift at all. The
// same probes found the kernel's own time moving ±13% between samples
// half a second apart, which is why it samples all through the run
// rather than at a few points between operations.
type hostClock struct {
	keys []int
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []float64 // kernel thread CPU times, ms
}

// refKernel is the kernel's time on the reference host; it only sets the
// scale of the reported figures.
const refKernel = 3500 * time.Microsecond

const (
	// kernelKeys is the kernel's slice length (256 KB, in cache).
	kernelKeys = 1 << 15
	// kernelEvery spaces the kernels: about 7% of one CPU.
	kernelEvery = 50 * time.Millisecond
)

// kernelCPU is the thread CPU time every kernel run so far has used, in
// ns. cpuClock leaves it out of the process's CPU time.
var kernelCPU atomic.Int64

// startHostClock starts sampling; close ends it.
func startHostClock() *hostClock {
	h := &hostClock{keys: make([]int, kernelKeys), stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostClock) run() {
	defer close(h.done)
	// The kernel's thread CPU time is read on the thread that ran it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := time.NewTicker(kernelEvery)
	defer t.Stop()
	for {
		t0 := threadCPU()
		h.kernel()
		d := threadCPU() - t0
		kernelCPU.Add(int64(d))
		h.mu.Lock()
		h.samples = append(h.samples, ms(d))
		h.mu.Unlock()
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

func (h *hostClock) kernel() {
	s := uint64(0x9e3779b97f4a7c15)
	for i := range h.keys {
		s = s*6364136223846793005 + 1442695040888963407
		h.keys[i] = int(s >> 33)
	}
	slices.Sort(h.keys)
}

// close stops sampling and waits for the sampler to end.
func (h *hostClock) close() {
	close(h.stop)
	<-h.done
}

// kernelMs is the median kernel time of the run so far.
func (h *hostClock) kernelMs() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.samples)
}

// count is how many kernels have run so far.
func (h *hostClock) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// slowdown is how much slower than the reference host this run's host
// ran: the median kernel time over refKernel. A time divided by it, or a
// rate multiplied by it, is the reference host's.
func (h *hostClock) slowdown() float64 { return h.slowdownSince(0) }

// slowdownSince is slowdown over the kernels from the from-th on, or over
// the whole run when none has run since.
func (h *hostClock) slowdownSince(from int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := median(h.samples[min(from, len(h.samples)):])
	if k == 0 {
		k = median(h.samples)
	}
	if k == 0 {
		return 1
	}
	return k / ms(refKernel)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// to the nanosecond; getrusage's per-thread figure moves in scheduler
// ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
