package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 50, 200, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending input: the rule must sort
		}
		v, q, got := tailPercentile(xs)
		if got != n {
			t.Fatalf("n=%d: reported sample count %d", n, got)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: %d samples beyond the q=%.4f value %v, want ≥ %d", n, beyond, q, v, tailBeyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: q=%v above p99", n, q)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%v, want p99 once ten samples lie beyond it", n, q)
		}
		if n < 1000 && beyond != tailBeyond {
			t.Errorf("n=%d: %d beyond, want exactly %d (the highest qualifying percentile)", n, beyond, tailBeyond)
		}
	}
	if v, q, n := tailPercentile([]float64{3, 1, 2}); v != 2 || q != 0.5 || n != 3 {
		t.Errorf("ten samples or fewer: got (%v, %v, %d), want the median (2, 0.5, 3)", v, q, n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two values: quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := iqrShare(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestNormalisationArithmetic(t *testing.T) {
	// A host whose kernel runs twice as slow as nominal halves every timing
	// and doubles every rate.
	f := normFactor(2 * nominalKernelMS)
	if f != 0.5 {
		t.Fatalf("factor = %v, want 0.5", f)
	}
	m := measurement{setupS: []float64{3, 1, 2}, opMS: []float64{10, 30, 20}, ops: 3, busyS: 0.06, cpuMS: 90, allocB: 3e6}
	raw, norm := m.endToEnd(1), m.endToEnd(f)
	for name, want := range map[string]float64{"setup_s": 1, "op_p99_ms": 10, "cpu_ms_per_op": 15, "ops_per_s": 100} {
		if got := norm[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s normalised = %v, want %v (raw %v)", name, got, want, raw[name].Value)
		}
	}
	if raw["alloc_mb_per_op"] != norm["alloc_mb_per_op"] {
		t.Errorf("allocation is not a timing and must not be normalised")
	}
	var c calibrator
	c.samplesMS = []float64{40, 10, 20}
	if c.refMS() != 20 || c.factor() != nominalKernelMS/20 {
		t.Errorf("calibrator median %v factor %v", c.refMS(), c.factor())
	}
}

func TestSetupRepetitions(t *testing.T) {
	for _, tc := range []struct {
		each float64
		want int
	}{{1, minSetups}, {0.1, maxSetups}, {0.25, 8}} {
		var m measurement
		for m.moreSetups() {
			m.setupS = append(m.setupS, tc.each)
		}
		if len(m.setupS) != tc.want {
			t.Errorf("set-ups of %vs: %d repetitions, want %d", tc.each, len(m.setupS), tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.sample", Start: 10, End: 70},
		{ID: 2, Parent: 1, Name: "structural.generate", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "structural.generate", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 0, Name: "graph.materialize", Start: 70, End: 90},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"op":                  {Count: 1, TotalMS: 100, SelfMS: 20},
		"core.sample":         {Count: 1, TotalMS: 60, SelfMS: 20},
		"structural.generate": {Count: 2, TotalMS: 50, SelfMS: 50},
		"graph.materialize":   {Count: 1, TotalMS: 20, SelfMS: 20},
	} {
		if got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.start("x", 0, -1); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.end(-1)
}

func TestKernelAllocatesNothing(t *testing.T) {
	var sink uint64
	if allocs := testing.AllocsPerRun(3, func() { sink ^= kernel() }); allocs != 0 {
		t.Errorf("calibration kernel allocates %v times per run", allocs)
	}
	if kernel() != kernel() {
		t.Errorf("kernel is not deterministic")
	}
	_ = sink
}

func TestSeedStreamIsDeterministic(t *testing.T) {
	a, b, c := newSeedStream(7, 1), newSeedStream(7, 1), newSeedStream(8, 1)
	for i := 0; i < 4; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y || x <= 0 {
			t.Fatalf("seed %d: %d vs %d", i, x, y)
		}
		if x == z {
			t.Errorf("different seeds gave the same stream value %d", x)
		}
	}
}

// BenchmarkCalibration times one calibration; its ns/op on the reference
// host is nominalKernelMS.
func TestRSSSamplerSeesThisProcess(t *testing.T) {
	s := startRSS()
	defer s.close()
	time.Sleep(5 * rssEvery)
	if mb := s.takePeakMB(); mb <= 0 || mb > 1<<20 {
		t.Errorf("peak resident set %v MiB", mb)
	}
}

func BenchmarkCalibration(b *testing.B) {
	var c calibrator
	for i := 0; i < b.N; i++ {
		c.run()
	}
	b.ReportMetric(c.refMS(), "median-ms")
}
