package main

import (
	"fmt"
	"sort"
	"strings"
)

// perLayerNames are the per-layer metrics every workload's traced run
// measures; they are the ones BENCHMARK.json lists and the result line
// carries. The traced run prints the rest — those that exist on one
// workload's path only — on the lines before it.
var perLayerNames = []string{
	"host.ref_ms", "datasets.generate_ms", "runtime.gc_cpu_share", "runtime.gc_cycles_per_op",
	"structural.growth_exp", "trace.overhead_share",
}

// issueLayerNames is every per-layer metric the traced run reports, whether
// or not it exists on the workload's path ("n/a" when it does not).
var issueLayerNames = []string{
	"host.ref_ms", "datasets.generate_ms",
	"core.fit_ms", "core.fit.attrs_ms", "core.fit.correlations_ms", "core.fit.degrees_ms", "core.fit.triangles_ms",
	"core.table_fit_ms", "engine.table_fits", "core.sample_ms", "core.refine_self_ms",
	"structural.generate_ms", "structural.generate_alloc_mb",
	"structural.seed_ms", "structural.rewire_ms", "structural.post_tail_ms", "structural.growth_exp",
	"engine.sample_ms", "engine.queue_wait_ms", "graph.materialize_ms", "graph.encode_ms", "graph.encode_mb",
	"graphstore.hit_share", "graphstore.decodes",
	"analytics.compute_ms", "analytics.cache_hit_share", "analytics.memo_hit_share",
	"server.sample_p50_ms", "server.sample_repeat_p50_ms", "server.sample_stream_p50_ms",
	"server.download_p50_ms", "server.graph_metrics_p50_ms", "server.fit_p50_ms", "server.self_ms",
	"parallel.tasks_per_op", "parallel.task_ms", "runtime.gc_cpu_share", "runtime.gc_cycles_per_op",
	"trace.overhead_share",
}

// layers collects per-layer figures: add accumulates repeated timings
// (reported as their mean), set stores a final value.
type layers struct {
	sums   map[string]float64
	counts map[string]int
	vals   map[string]metric
}

func newLayers() *layers {
	return &layers{sums: map[string]float64{}, counts: map[string]int{}, vals: map[string]metric{}}
}

func (l *layers) add(name string, v float64) {
	l.sums[name] += v
	l.counts[name]++
}

func (l *layers) set(name string, v float64, unit string) { l.vals[name] = layerMetric(v, unit) }

// finishLayers turns the accumulated figures into the run's per-layer
// metrics, writes the spans, and lays out the report lines.
func (m *measurement) finishLayers(cfg config, tr *tracer, lay *layers) {
	lay.set("host.ref_ms", m.calib.refMS(), "ms")
	for name, sum := range lay.sums {
		v := sum / float64(lay.counts[name])
		switch {
		case name == "graph.encode_bytes":
			lay.set("graph.encode_mb", v/1e6, "MB")
		case name == "engine.table_fits":
			lay.set(name, v, "count")
		default:
			lay.set(name+"_ms", v, "ms")
		}
	}
	m.layers = make(map[string]metric, len(perLayerNames))
	for _, name := range perLayerNames {
		v, ok := lay.vals[name]
		if !ok {
			v = metric{0, "n/a"}
		}
		m.layers[name] = v
	}
	if err := tr.write(spanFile(cfg)); err != nil {
		m.details = append(m.details, fmt.Sprintf("writing spans: %v", err))
	} else {
		m.details = append(m.details, fmt.Sprintf("%d spans written to %s", len(tr.snapshot()), spanFile(cfg)))
	}
	m.details = append(m.details, fmt.Sprintf("normalisation factor %.4f (timings below are raw host ms)", m.calib.factor()))
	listed := make(map[string]bool)
	for _, name := range issueLayerNames {
		listed[name] = true
		if v, ok := lay.vals[name]; ok {
			m.details = append(m.details, fmt.Sprintf("layer %-32s %14.6g %s", name, v.Value, v.Unit))
		} else {
			m.details = append(m.details, fmt.Sprintf("layer %-32s %14s (not on this workload's path)", name, "n/a"))
		}
	}
	var extra []string
	for name := range lay.vals {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v := lay.vals[name]
		m.details = append(m.details, fmt.Sprintf("layer %-32s %14.6g %s", name, v.Value, v.Unit))
	}
	self := selfTimes(tr.snapshot())
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		s := self[name]
		fmt.Fprintf(&b, " %s=%d/%.1f/%.1f", name, s.Count, s.TotalMS, s.SelfMS)
	}
	m.details = append(m.details, "spans name=count/total_ms/self_ms:"+b.String())
}
