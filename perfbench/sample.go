package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"agmdp/internal/analytics"
	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/registry"
	"agmdp/internal/structural"
)

// Worker and stream counts are pinned, not "auto", so the sampled graphs
// (and therefore the work) are the same on every host.
const (
	sampleStreams = 2 // intra-sample structural streams
	fitWorkers    = 2 // fit measurement-pass workers
	// The input graphs and their DP fits are fixed fixtures, generated from
	// these seeds whatever --seed says: the cost of sampling varies by up to
	// ±30% between DP fits of the same profile, which would drown any
	// regression. --seed drives everything drawn from the fixture: sample
	// seeds, request order and request seeds.
	fixtureDatasetSeed = 1
	fixtureFitSeed     = 2
	// edgeTolerance is how far a sampled graph's edge count may sit from the
	// model's target (half the noisy degree sum) before the check fails.
	edgeTolerance = 0.10
)

// sampleWorkload describes one of the two sampling workloads.
type sampleWorkload struct {
	dataset string
	scale   float64
	epsilon float64
	model   func(streams int) structural.StreamModel
	seeds   int  // distinct sample seeds per pass
	engine  bool // sample through the engine with a warmed acceptance table
	salt    uint64
}

// tricycleSample is the service's steady-state sampling path: the Last.fm
// profile at full scale (the paper's Table 2 dataset), privately fitted with
// TriCycLe, sampled through the engine with a warmed acceptance table. Orphan
// post-processing dominates its CPU profile.
var tricycleSample = sampleWorkload{
	dataset: "lastfm", scale: 1, epsilon: math.Log(3),
	model:  func(n int) structural.StreamModel { return structural.TriCycLe{Parallelism: n} },
	seeds:  24,
	engine: true,
	salt:   0x7452,
}

// fclSample is the library path agmdp.Sample takes: the pokec profile at its
// default scale 0.05 (the scale Table 5 runs at), FCL, core.Sample with the
// default refinement rounds and no acceptance cache. Chung–Lu proposal,
// dedup and refinement dominate; there is no orphan repair.
var fclSample = sampleWorkload{
	dataset: "pokec", scale: 0.05, epsilon: 0.2,
	model: func(n int) structural.StreamModel { return structural.FCL{Parallelism: n} },
	seeds: 4,
	salt:  0xfc1,
}

func runTriCycLeSample(ctx context.Context, cfg config, m *measurement) error {
	return runSampleWorkload(ctx, cfg, m, tricycleSample)
}

func runFCLSample(ctx context.Context, cfg config, m *measurement) error {
	return runSampleWorkload(ctx, cfg, m, fclSample)
}

// sampleState is one set-up's product: the input graph, the fitted model and,
// for the engine path, the registry and engine serving it.
type sampleState struct {
	w           sampleWorkload
	input       *graph.Graph
	model       *core.FittedModel
	id          string
	reg         *registry.Registry
	eng         *engine.Engine
	targetEdges int
}

func (st *sampleState) close() {
	if st != nil && st.eng != nil {
		st.eng.Close()
	}
}

// setupSample generates the input, fits the model and, on the engine path,
// registers it and warms its acceptance table through the engine.
func setupSample(ctx context.Context, w sampleWorkload, dsSeed, fitSeed int64, tr *tracer, lay *layers) (*sampleState, error) {
	p, err := datasets.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	sp := tr.start("datasets.generate", -1, -1)
	t := time.Now()
	input := datasets.Generate(dp.NewRand(dsSeed), p.Scaled(w.scale))
	lay.add("datasets.generate", msSince(t))
	tr.end(sp)

	sp = tr.start("core.fit", -1, -1)
	t = time.Now()
	fitted, err := core.FitDP(ctx, dp.NewRand(fitSeed), input, core.Config{
		Epsilon:     w.epsilon,
		Model:       w.model(sampleStreams),
		Parallelism: fitWorkers,
		Observe: func(stage string, d time.Duration) {
			lay.add("core.fit."+stage, float64(d.Nanoseconds())/1e6)
		},
	})
	lay.add("core.fit", msSince(t))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fitting %s: %w", w.dataset, err)
	}
	target := 0
	for _, d := range fitted.Structural.Degrees {
		target += d
	}
	st := &sampleState{w: w, input: input, model: fitted, targetEdges: target / 2}
	if !w.engine {
		return st, nil
	}
	st.reg, err = registry.Open(registry.Options{})
	if err != nil {
		return nil, err
	}
	if st.id, err = st.reg.Put(fitted); err != nil {
		return nil, err
	}
	st.eng = engine.New(engine.Config{Workers: 1, Seed: fitSeed, Parallelism: sampleStreams, Acceptance: st.reg})
	before := obsState()
	sp = tr.start("engine.warm", -1, -1)
	t = time.Now()
	_, err = st.eng.Sample(ctx, engine.Request{Model: fitted, Seed: fitSeed, CacheKey: st.id})
	lay.add("engine.warm", msSince(t))
	tr.end(sp)
	lay.add("engine.table_fits", sumPrefix(obsDelta(before, obsState()), "agmdp_engine_acceptance_table_fits_total").Value)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warming the acceptance table: %w", err)
	}
	return st, nil
}

// sample is the measured op of the untraced run.
func (st *sampleState) sample(ctx context.Context, seed int64) (*graph.Graph, error) {
	if st.w.engine {
		return st.eng.Sample(ctx, engine.Request{Model: st.model, Seed: seed, CacheKey: st.id})
	}
	return core.Sample(dp.NewRand(seed), st.model, core.SampleOptions{Model: st.w.model(sampleStreams)})
}

// sampleTraced is the same op composed from the public functions the
// untraced op calls internally — the engine path is registry.Acceptance,
// core.SampleSourceWithTable and graph.Materialize; core.Sample is
// core.SampleSource plus graph.Materialize — with a span around each call and
// around every structural generation. The output check proves the two
// compositions give byte-identical graphs.
func (st *sampleState) sampleTraced(seed int64, tr *tracer, op, parent int, gen *genStats) (*graph.Graph, error) {
	model := timedModel{inner: st.w.model(sampleStreams), tr: tr, op: op, gen: gen}
	var src graph.RowSource
	var err error
	if st.w.engine {
		sp := tr.start("registry.acceptance", op, parent)
		table, ok := st.reg.Acceptance(st.id)
		tr.end(sp)
		if !ok {
			return nil, fmt.Errorf("acceptance table of %s not cached", st.id)
		}
		sp = tr.start("core.sample", op, parent)
		model.parent = sp
		src, err = core.SampleSourceWithTable(dp.NewRand(seed), st.model, table, core.SampleOptions{Model: model})
		tr.end(sp)
	} else {
		sp := tr.start("core.sample", op, parent)
		model.parent = sp
		src, err = core.SampleSource(dp.NewRand(seed), st.model, core.SampleOptions{Model: model})
		tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	sp := tr.start("graph.materialize", op, parent)
	g := graph.Materialize(src)
	tr.end(sp)
	return g, nil
}

// genStats accumulates the structural generations of a traced phase.
type genStats struct {
	calls  int
	ms     float64
	allocB float64
}

// timedModel wraps a structural model so every generation the sampler asks
// for is a span, with its allocated bytes counted.
type timedModel struct {
	inner  structural.StreamModel
	tr     *tracer
	op     int
	parent int
	gen    *genStats
}

func (t timedModel) Name() string { return t.inner.Name() }

func (t timedModel) Generate(rng *rand.Rand, n int, params structural.Params, filter structural.EdgeFilter) *graph.Graph {
	return t.GenerateBuilder(rng, n, params, filter).Finalize()
}

func (t timedModel) GenerateBuilder(rng *rand.Rand, n int, params structural.Params, filter structural.EdgeFilter) *graph.Builder {
	sp := t.tr.start("structural.generate", t.op, t.parent)
	a0 := readRuntime().AllocBytes
	start := time.Now()
	b := t.inner.GenerateBuilder(rng, n, params, filter)
	t.gen.ms += msSince(start)
	t.gen.allocB += readRuntime().AllocBytes - a0
	t.gen.calls++
	t.tr.end(sp)
	return b
}

// sampleChecker validates every sampled graph and gathers the utility
// columns.
type sampleChecker struct {
	st      *sampleState
	buf     bytes.Buffer
	hashes  map[int64]uint64
	utility map[int64]analytics.UtilityMetrics
}

// check re-decodes g through the validating binary codec, checks its size,
// and checks that a seed sampled before gave the identical graph.
func (c *sampleChecker) check(m *measurement, seed int64, g *graph.Graph, tr *tracer, lay *layers) {
	m.attempted++
	if g == nil {
		m.fail("seed %d: no graph", seed)
		return
	}
	c.buf.Reset()
	sp := tr.start("graph.encode", -1, -1)
	t := time.Now()
	err := g.WriteBinary(&c.buf)
	if tr != nil {
		lay.add("graph.encode", msSince(t))
		lay.add("graph.encode_bytes", float64(c.buf.Len()))
	}
	tr.end(sp)
	if err != nil {
		m.fail("seed %d: encoding: %v", seed, err)
		return
	}
	decoded, err := graph.DecodeBinary(c.buf.Bytes())
	if err != nil {
		m.fail("seed %d: decoding: %v", seed, err)
		return
	}
	n, e := decoded.NumNodes(), decoded.NumEdges()
	if n != c.st.model.N || e != g.NumEdges() {
		m.fail("seed %d: decoded %d nodes/%d edges, want %d/%d", seed, n, e, c.st.model.N, g.NumEdges())
		return
	}
	if math.Abs(float64(e-c.st.targetEdges)) > edgeTolerance*float64(c.st.targetEdges) {
		m.fail("seed %d: %d edges, target %d ± %.0f%%", seed, e, c.st.targetEdges, 100*edgeTolerance)
		return
	}
	h := fnv.New64a()
	h.Write(c.buf.Bytes())
	sum := h.Sum64()
	if prev, ok := c.hashes[seed]; ok && prev != sum {
		m.fail("seed %d: resampling gave a different graph", seed)
		return
	}
	c.hashes[seed] = sum
	if _, ok := c.utility[seed]; !ok {
		c.utility[seed] = analytics.Compare(c.st.input, decoded, fitWorkers)
	}
}

// phase is what one measured phase of a sample workload collected.
type phase struct {
	ops    int
	busyS  float64
	cpuMS  float64
	allocB float64
	opMS   []float64
	rssMB  []float64 // peak resident set per pass
}

// samplePhase runs whole passes over the seed list until at least seconds
// have gone by. A pass samples every seed once and the first seed a second
// time. The calibration kernel runs before every op, never during one.
func samplePhase(ctx context.Context, st *sampleState, seeds []int64, seconds float64, c *sampleChecker,
	m *measurement, tr *tracer, lay *layers, gen *genStats) phase {
	var ph phase
	rss := startRSS()
	defer rss.close()
	rss.takePeakMB()
	start := time.Now()
	for since(start) < seconds {
		pass := append(append([]int64(nil), seeds...), seeds[0])
		for _, seed := range pass {
			m.calib.run()
			op := ph.ops
			c0, a0, t0 := cpuMS(), readRuntime().AllocBytes, time.Now()
			var g *graph.Graph
			var err error
			if tr == nil {
				g, err = st.sample(ctx, seed)
			} else {
				root := tr.start("op", op, -1)
				g, err = st.sampleTraced(seed, tr, op, root, gen)
				tr.end(root)
			}
			d := msSince(t0)
			ph.allocB += readRuntime().AllocBytes - a0
			ph.cpuMS += cpuMS() - c0
			ph.opMS = append(ph.opMS, d)
			ph.busyS += d / 1000
			ph.ops++
			if err != nil {
				m.attempted++
				m.fail("seed %d: %v", seed, err)
				continue
			}
			c.check(m, seed, g, tr, lay)
		}
		ph.rssMB = append(ph.rssMB, rss.takePeakMB())
	}
	return ph
}

func runSampleWorkload(ctx context.Context, cfg config, m *measurement, w sampleWorkload) error {
	ss := newSeedStream(cfg.seed, w.salt)
	seeds := make([]int64, w.seeds)
	for i := range seeds {
		seeds[i] = ss.next()
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lay := newLayers()

	var st *sampleState
	for m.moreSetups() {
		m.calib.run()
		st.close()
		t := time.Now()
		var err error
		st, err = setupSample(ctx, w, fixtureDatasetSeed, fixtureFitSeed, tr, lay)
		if err != nil {
			return err
		}
		m.setupS = append(m.setupS, since(t))
	}
	defer st.close()
	c := &sampleChecker{st: st, hashes: make(map[int64]uint64), utility: make(map[int64]analytics.UtilityMetrics)}

	if !cfg.trace {
		m.absorb(samplePhase(ctx, st, seeds, cfg.seconds, c, m, nil, lay, nil))
		m.setUtility(c.utility)
		return nil
	}

	// Traced run: the acceptance-table fit timed on its own (and checked
	// against the table the engine cached), an untraced half for the overhead
	// baseline, then the traced half with obs and runtime deltas, then the
	// scaling probe.
	if w.engine {
		sp := tr.start("core.table_fit", -1, -1)
		t := time.Now()
		table, err := core.FitAcceptanceTable(st.model, core.SampleOptions{Model: w.model(sampleStreams)})
		lay.add("core.table_fit", msSince(t))
		tr.end(sp)
		cached, _ := st.reg.Acceptance(st.id)
		m.attempted++
		if err != nil || fmt.Sprint(table) != fmt.Sprint(cached) {
			m.fail("acceptance table refit differs from the engine's cached table (%v)", err)
		}
	}
	o0 := obsState()
	untraced := samplePhase(ctx, st, seeds, cfg.seconds/2, c, m, nil, lay, nil)
	untracedObs := obsDelta(o0, obsState())
	m.absorb(untraced)
	m.setUtility(c.utility)

	var gen genStats
	o1, r1, c1 := obsState(), readRuntime(), cpuMS()
	traced := samplePhase(ctx, st, seeds, cfg.seconds/2, c, m, tr, lay, &gen)
	d, rt := obsDelta(o1, obsState()), readRuntime()
	ops := float64(traced.ops)
	spans := selfTimes(tr.snapshot())

	lay.set("trace.overhead_share", 1-(ops/traced.busyS)/(float64(untraced.ops)/untraced.busyS), "ratio")
	lay.set("core.sample_ms", spans["core.sample"].TotalMS/ops, "ms")
	lay.set("core.refine_self_ms", spans["core.sample"].SelfMS/ops, "ms")
	lay.set("graph.materialize_ms", spans["graph.materialize"].TotalMS/ops, "ms")
	lay.set("structural.generate_ms", gen.ms/ops, "ms")
	lay.set("structural.generate_calls_per_op", float64(gen.calls)/ops, "count")
	lay.set("structural.generate_alloc_mb", gen.allocB/ops/1e6, "MB")
	if w.engine {
		seed, rewire := sumPrefix(d, "agmdp_structural_seed_duration_seconds"), sumPrefix(d, "agmdp_structural_rewire_duration_seconds")
		lay.set("structural.seed_ms", seed.Sum*1000/ops, "ms")
		lay.set("structural.rewire_ms", rewire.Sum*1000/ops, "ms")
		lay.set("structural.post_tail_ms", (gen.ms-(seed.Sum+rewire.Sum)*1000)/ops, "ms")
		lay.set("registry.acceptance_ms", spans["registry.acceptance"].TotalMS/ops, "ms")
		exec := sumPrefix(untracedObs, "agmdp_engine_sample_duration_seconds")
		lay.set("engine.sample_ms", exec.Sum*1000/float64(exec.Count), "ms")
		lay.set("engine.queue_wait_ms", (untraced.busyS-exec.Sum)*1000/float64(exec.Count), "ms")
	}
	pool := sumPrefix(d, "agmdp_pool_task_duration_seconds")
	lay.set("parallel.tasks_per_op", float64(pool.Count)/ops, "count")
	lay.set("parallel.task_ms", pool.Sum*1000/float64(max(pool.Count, 1)), "ms")
	lay.set("runtime.gc_cpu_share", (rt.GCCPU-r1.GCCPU)/(rt.TotalCPU-r1.TotalCPU), "ratio")
	lay.set("runtime.gc_cycles_per_op", (rt.GCCycles-r1.GCCycles)/ops, "count")
	lay.set("runtime.cpu_ms_per_op", (cpuMS()-c1)/ops, "ms")
	lay.set("op.traced_ms", spans["op"].TotalMS/ops, "ms")

	if err := growthProbe(cfg, tr, lay); err != nil {
		return err
	}
	m.finishLayers(cfg, tr, lay)
	return nil
}

// absorb adds an untraced phase to the run's end-to-end figures.
func (m *measurement) absorb(ph phase) {
	m.ops += ph.ops
	m.busyS += ph.busyS
	m.cpuMS += ph.cpuMS
	m.allocB += ph.allocB
	m.opMS = append(m.opMS, ph.opMS...)
	m.rssMB = append(m.rssMB, ph.rssMB...)
}

// setUtility averages the paper's utility columns over the seed list.
func (m *measurement) setUtility(u map[int64]analytics.UtilityMetrics) {
	seeds := make([]int64, 0, len(u))
	for seed := range u {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	rows := make([]analytics.UtilityMetrics, len(seeds))
	for i, seed := range seeds {
		rows[i] = u[seed]
	}
	avg := analytics.AverageUtility(rows)
	m.mreTri, m.ksDeg = avg.MRETriangles, avg.KSDegree
}

// growthProbe measures how TriCycLe generation time scales with input size:
// log₂ of the generation-time ratio between the Last.fm profile at scale 1.0
// and at 0.5, same seeds and streams, the two sizes interleaved so host drift
// cancels. Linear scaling gives 1, quadratic 2.
func growthProbe(cfg config, tr *tracer, lay *layers) error {
	p, err := datasets.ByName("lastfm")
	if err != nil {
		return err
	}
	ss := newSeedStream(cfg.seed, 0x96047)
	var params [2]structural.Params
	var nodes [2]int
	for i, scale := range []float64{0.5, 1} {
		g := datasets.Generate(dp.NewRand(fixtureDatasetSeed), p.Scaled(scale))
		params[i] = core.FitWith(g, structural.TriCycLe{}, fitWorkers).Structural
		nodes[i] = g.NumNodes()
	}
	model := structural.TriCycLe{Parallelism: sampleStreams}
	var total [2]float64
	for k := 0; k < 4; k++ {
		seed := ss.next()
		for i := range params {
			sp := tr.start(fmt.Sprintf("probe.generate_n%d", nodes[i]), -1, -1)
			t := time.Now()
			model.GenerateBuilder(dp.NewRand(seed), nodes[i], params[i], nil)
			total[i] += msSince(t)
			tr.end(sp)
		}
	}
	lay.set("structural.growth_exp", math.Log2(total[1]/total[0]), "exponent")
	return nil
}
