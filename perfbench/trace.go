package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory and are written out at the end as a
// Chrome trace-event JSON array (the format internal/trace writes for
// schedules). A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// allocs, when set, samples runtime.MemStats around every span so
	// each layer also reports the bytes it allocated.
	allocs bool
}

// span is one timed call: a layer name, the interval, the span that
// caused it (0 for roots) and the request, cell or graph it served.
type span struct {
	name       string
	parent     int // 1-based index into spans; 0 means none
	id         string
	start, end time.Duration
	allocStart uint64
	allocBytes uint64
}

func newTracer(allocs bool) *tracer { return &tracer{t0: time.Now(), allocs: allocs} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent int, id string) int {
	if t == nil {
		return 0
	}
	var alloc uint64
	if t.allocs {
		alloc = totalAlloc()
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: now, allocStart: alloc})
	return len(t.spans)
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.t0)
	var alloc uint64
	if t.allocs {
		alloc = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[h-1]
	s.end = now
	s.allocBytes = alloc - s.allocStart
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	h := t.begin(name, parent, "")
	f()
	t.end(h)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Self       time.Duration // span time not covered by child spans
	Total      time.Duration
	AllocBytes uint64
	Durations  []float64 // per-span duration in ms
}

// layers sums self time, total time and allocations per span name. Self
// time is a span's duration minus its children's; children of one parent
// run one after another, so their durations do not overlap.
func (t *tracer) layers() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.parent > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerStat{}
			out[s.name] = l
		}
		d := s.end - s.start
		l.Total += d
		l.Self += d - child[i+1]
		l.AllocBytes += s.allocBytes
		l.Durations = append(l.Durations, ms(d))
	}
	return out
}

// chromeEvent is one Chrome trace "complete" event (phase X).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a Chrome trace-event JSON array. Spans
// of one root share a thread lane, so a request's submit and wait nest
// under it in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := make([]int, len(t.spans)+1)
	events := make([]chromeEvent, 0, len(t.spans))
	roots := 0
	for i, s := range t.spans {
		if s.parent == 0 {
			roots++
			lane[i+1] = roots
		} else {
			lane[i+1] = lane[s.parent]
		}
		args := map[string]any{"span": i + 1}
		if s.parent > 0 {
			args["parent"] = s.parent
		}
		if s.id != "" {
			args["id"] = s.id
		}
		if t.allocs {
			args["alloc_bytes"] = s.allocBytes
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Phase: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: lane[i+1], Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(events)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
