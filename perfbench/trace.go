package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"agmdp/internal/obs"
)

// span is one timed call into a layer's public function. Spans are kept in
// memory while the run goes and written out when it ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Op     int     `json:"op"`     // the measured op the span belongs to; -1 for set-up and probes
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer was created
	End    float64 `json:"end_ms"`
}

// tracer records spans. A nil *tracer records nothing, so the untraced path
// calls the same code with tracing off. Safe for concurrent use: serve-mixed
// records spans from both client goroutines.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := float64(time.Since(t.base).Nanoseconds()) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := float64(time.Since(t.base).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes sums, per span name, each span's duration and its self time: the
// duration minus the part of its interval that its child spans cover
// (overlapping children count once).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += dur
		lt.SelfMS += dur - coveredMS(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// coveredMS is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredMS(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if curHi < curLo || x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// obsPoint is one metric of an obs.Default() snapshot.
type obsPoint struct {
	Value float64
	Count int64
	Sum   float64
}

// obsState reads every metric the program publishes on obs.Default(), keyed
// by family name plus its labels in sorted order.
func obsState() map[string]obsPoint {
	out := make(map[string]obsPoint)
	for _, f := range obs.Default().Snapshot() {
		for _, m := range f.Metrics {
			key := f.Name
			if len(m.Labels) > 0 {
				parts := make([]string, 0, len(m.Labels))
				for k, v := range m.Labels {
					parts = append(parts, k+"="+v)
				}
				sort.Strings(parts)
				key += "{" + strings.Join(parts, ",") + "}"
			}
			out[key] = obsPoint{Value: m.Value, Count: m.Count, Sum: m.Sum}
		}
	}
	return out
}

// obsDelta is after − before for every metric in after.
func obsDelta(before, after map[string]obsPoint) map[string]obsPoint {
	out := make(map[string]obsPoint, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = obsPoint{Value: a.Value - b.Value, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	return out
}

// sumPrefix adds the deltas of every metric whose key starts with prefix
// (all label children of one family).
func sumPrefix(d map[string]obsPoint, prefix string) obsPoint {
	var out obsPoint
	for k, p := range d {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			out.Value += p.Value
			out.Count += p.Count
			out.Sum += p.Sum
		}
	}
	return out
}

// runtimeState holds the Go runtime counters the benchmark reads.
type runtimeState struct {
	AllocBytes float64 // cumulative heap allocation
	GCCycles   float64
	GCCPU      float64 // seconds of CPU spent in GC
	TotalCPU   float64 // seconds of CPU the runtime accounts for
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

var runtimeMu sync.Mutex

func readRuntime() runtimeState {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	metrics.Read(runtimeSamples)
	val := func(i int) float64 {
		v := runtimeSamples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeState{AllocBytes: val(0), GCCycles: val(1), GCCPU: val(2), TotalCPU: val(3)}
}

// cpuMS is the process's user+system CPU time so far, in milliseconds.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// rssSampler tracks the peak resident set size while the measured passes
// run, reading /proc/self/statm every rssEvery. The kernel's own high-water
// mark (VmHWM) is one maximum over the whole process, set up included, and
// rare garbage-collection overshoots make it jump by half from run to run;
// the median of per-pass peaks is the peak a steady workload holds.
type rssSampler struct {
	peakPages atomic.Int64
	stop      chan struct{}
	done      chan struct{}
}

const rssEvery = 2 * time.Millisecond

// startRSS starts the sampler; it samples nothing if /proc is unavailable.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		defer f.Close()
		buf := make([]byte, 128)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.sample(f, buf)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// sample reads the resident page count (statm's second field) without
// allocating, so sampling does not show in the allocation metrics.
func (s *rssSampler) sample(f *os.File, buf []byte) {
	n, err := f.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return
	}
	field, pages := 0, int64(0)
	for _, c := range buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int64(c-'0')
		}
		if field > 1 {
			break
		}
	}
	for {
		cur := s.peakPages.Load()
		if pages <= cur || s.peakPages.CompareAndSwap(cur, pages) {
			return
		}
	}
}

// takePeakMB returns the peak since the previous call, in MiB, and starts a
// new one.
func (s *rssSampler) takePeakMB() float64 {
	return float64(s.peakPages.Swap(0)*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
}
