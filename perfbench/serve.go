package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"agmdp/internal/analytics"
	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/registry"
	"agmdp/internal/server"
	"agmdp/internal/tenant"
)

// serve-mixed runs the HTTP service in-process on loopback, in a fresh data
// directory, with two tenants each driven by one closed-loop client over the
// synchronous endpoints only, so no work outlives its request.
const (
	serveClients = 2 // closed-loop clients, one per tenant
	serveWorkers = 2 // engine workers
	// serveStreams is the structural stream count per sample: one, so two
	// concurrent samples take one core each and a small request never waits
	// behind a sample that holds both cores.
	serveStreams = 1
	serveScale   = 0.2 // Last.fm profile scale of each tenant's source graph (369 nodes)
	// blocksPerRound is the number of op blocks each client runs between two
	// calibrations; the clients pause while the kernel runs.
	blocksPerRound = 1
	// calibrationsPerRound is the number of calibrations between two rounds:
	// a run has only a few dozen rounds, and the median of one calibration
	// per round was noisier than the drift it corrects.
	calibrationsPerRound = 3
)

// opKind is one entry of the fixed serve mix.
type opKind int

const (
	opSample       opKind = iota // fresh-seed summary sample: a memo miss
	opSampleRepeat               // repeated-seed summary sample: a memo hit
	opSampleStream               // streamed binary sample
	opDownload                   // binary download of a stored graph
	opGraphMetrics               // GET /v1/graphs/{id}/metrics
	opFit                        // synchronous DP fit: ε-ledger fsync and registry persist
	numOpKinds
)

var opNames = [numOpKinds]string{"sample", "sample_repeat", "sample_stream", "download", "graph_metrics", "fit"}

// opBlock is the mix as counts per 20 ops: 30% fresh samples, 15% repeated
// samples, 15% streamed samples, 20% downloads, 15% graph metrics, 5% fits.
var opBlock = [numOpKinds]int{6, 3, 3, 4, 3, 1}

// tenantState is what one tenant's client knows after set-up.
type tenantState struct {
	key       string
	sourceID  string
	source    *graph.Graph
	sourceTri int64
	models    [2]string // TriCycLe, FCL
	n         int
	stored    []storedGraph
	repeat    []fixedBody // summary bodies of the repeated seeds
	stream    []fixedBody // binary bodies streamed in set-up, for ks_degree
	metrics   map[string][]byte
	schedule  []opKind        // one op block, shuffled from the workload seed
	next      [numOpKinds]int // per-kind counters rotating each kind over its targets
	freshSeed int64           // last seed of a fresh summary or streamed sample
	fitSeed   int64
}

type storedGraph struct {
	id           string
	nodes, edges int
}

// fixedBody is a request whose response must be byte-identical every time.
type fixedBody struct {
	model string
	seed  int64
	body  []byte
}

// serveState is one set-up of the service.
type serveState struct {
	dir     string
	reg     *registry.Registry
	graphs  *graphstore.Store
	eng     *engine.Engine
	tenants *tenant.Registry
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	clients [serveClients]*tenantState
}

func (s *serveState) close() {
	if s == nil {
		return
	}
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.hs.Shutdown(ctx) // the listener is closed either way; a timeout only means idle handlers were cut
		cancel()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.graphs != nil {
		s.graphs.Close()
	}
	if s.tenants != nil {
		_ = s.tenants.Close() // the data directory is removed next
	}
	os.RemoveAll(s.dir)
}

// do sends one request and reads the whole body.
func (s *serveState) do(ctx context.Context, key, method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", key)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// doJSON posts v as JSON and decodes a 2xx JSON reply into out.
func (s *serveState) doJSON(ctx context.Context, key, path string, v, out any, want int) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	code, data, err := s.do(ctx, key, http.MethodPost, path, "application/json", body)
	if err != nil {
		return nil, err
	}
	if code != want {
		return nil, fmt.Errorf("POST %s: status %d, want %d: %s", path, code, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("POST %s: %w", path, err)
		}
	}
	return data, nil
}

type sampleReply struct {
	ID        string `json:"id"`
	Seed      int64  `json:"seed"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Triangles int64  `json:"triangles"`
	GraphID   string `json:"graph_id"`
}

type idReply struct {
	ID string `json:"id"`
}

// setupServe starts the service in a fresh data directory and prepares each
// tenant: its source graph uploaded, a TriCycLe and an FCL model fitted with
// their acceptance tables warmed, two stored samples, the bodies the repeat
// and metrics ops must reproduce, and streamed samples for ks_degree. All of
// it comes from the fixture seeds, so set-up is the same work for every
// --seed; the seed drives the request order and the seeds of fresh samples
// and fits.
func setupServe(ctx context.Context, cfg config, lay *layers, tr *tracer) (*serveState, error) {
	fixture, seeds := newSeedStream(fixtureDatasetSeed, 0x5e7e), newSeedStream(cfg.seed, 0x5e7e)
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveState{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if s.reg, err = registry.Open(registry.Options{Dir: filepath.Join(dir, "models")}); err != nil {
		return nil, err
	}
	if s.graphs, err = graphstore.Open(graphstore.Options{Dir: filepath.Join(dir, "graphs")}); err != nil {
		return nil, err
	}
	s.eng = engine.New(engine.Config{Workers: serveWorkers, Seed: 1, Parallelism: serveStreams, Acceptance: s.reg})
	file := tenant.File{}
	for i := 0; i < serveClients; i++ {
		file.Tenants = append(file.Tenants, tenant.Tenant{
			ID: fmt.Sprintf("tenant%d", i), Key: fmt.Sprintf("key-%d", i),
			Budget: 1e12, RatePerSec: 1e9, Burst: 1e9,
		})
	}
	if s.tenants, err = tenant.New(file, tenant.Options{Dir: filepath.Join(dir, "tenants")}); err != nil {
		return nil, err
	}
	s.srv, err = server.New(server.Config{
		Registry: s.reg, Engine: s.eng, Graphs: s.graphs, Tenants: s.tenants,
		FitParallelism: fitWorkers,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true}}

	p, err := datasets.ByName("lastfm")
	if err != nil {
		return nil, err
	}
	for i := range s.clients {
		t := &tenantState{key: file.Tenants[i].Key, metrics: map[string][]byte{}}
		sp := tr.start("datasets.generate", -1, -1)
		start := time.Now()
		t.source = datasets.Generate(dp.NewRand(fixture.next()), p.Scaled(serveScale))
		lay.add("datasets.generate", msSince(start))
		tr.end(sp)
		t.n, t.sourceTri = t.source.NumNodes(), t.source.Triangles()
		var buf bytes.Buffer
		if err := t.source.WriteBinary(&buf); err != nil {
			return nil, err
		}
		code, data, err := s.do(ctx, t.key, http.MethodPost, "/v1/graphs", "application/octet-stream", buf.Bytes())
		if err != nil || code != http.StatusCreated {
			return nil, fmt.Errorf("uploading the source graph: status %d %v: %s", code, err, data)
		}
		var up idReply
		if err := json.Unmarshal(data, &up); err != nil {
			return nil, err
		}
		t.sourceID = up.ID
		t.stored = append(t.stored, storedGraph{up.ID, t.n, t.source.NumEdges()})
		for j, kind := range []string{"tricycle", "fcl"} {
			var fit idReply
			if _, err := s.doJSON(ctx, t.key, "/v1/fit", map[string]any{
				"graph_id": t.sourceID, "epsilon": math.Log(3), "model": kind, "seed": fixture.next(), "parallelism": fitWorkers,
			}, &fit, http.StatusOK); err != nil {
				return nil, err
			}
			t.models[j] = fit.ID
			// The first default-shaped sample fits and caches the acceptance
			// table; the store:true one adds a sampled graph to the store.
			var warm sampleReply
			if _, err := s.doJSON(ctx, t.key, "/v1/sample", map[string]any{
				"id": fit.ID, "seed": fixture.next(), "store": true, "format": "summary",
			}, &warm, http.StatusOK); err != nil {
				return nil, err
			}
			t.stored = append(t.stored, storedGraph{warm.GraphID, warm.Nodes, warm.Edges})
			for k := 0; k < 2; k++ {
				seed := fixture.next()
				body, err := s.doJSON(ctx, t.key, "/v1/sample", map[string]any{"id": fit.ID, "seed": seed, "format": "summary"}, nil, http.StatusOK)
				if err != nil {
					return nil, err
				}
				t.repeat = append(t.repeat, fixedBody{fit.ID, seed, body})
				seed = fixture.next()
				body, err = s.doJSON(ctx, t.key, "/v1/sample", map[string]any{"id": fit.ID, "seed": seed, "format": "binary"}, nil, http.StatusOK)
				if err != nil {
					return nil, err
				}
				t.stream = append(t.stream, fixedBody{fit.ID, seed, body})
			}
		}
		for _, g := range t.stored {
			code, data, err := s.do(ctx, t.key, http.MethodGet, "/v1/graphs/"+g.id+"/metrics", "", nil)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("graph metrics: status %d %v: %s", code, err, data)
			}
			t.metrics[g.id] = data
		}
		for k, c := range opBlock {
			for j := 0; j < c; j++ {
				t.schedule = append(t.schedule, opKind(k))
			}
		}
		rng := rand.New(rand.NewSource(seeds.next()))
		rng.Shuffle(len(t.schedule), func(a, b int) { t.schedule[a], t.schedule[b] = t.schedule[b], t.schedule[a] })
		t.freshSeed, t.fitSeed = seeds.next()>>8, seeds.next()>>8
		s.clients[i] = t
	}
	ok = true
	return s, nil
}

// serveOp is one completed op of a client.
type serveOp struct {
	kind opKind
	ms   float64
}

// clientStats is one client's share of a measured phase.
type clientStats struct {
	ops      []serveOp
	failures []string
	failed   int
	mreSum   float64
	mreN     int
	// empty counts fresh samples with no edges. The sampler returns an empty
	// graph when a DP fit's acceptance table rejects nearly every attribute
	// pair and the proposal budget runs out (documented in structural's
	// GenerateCL); that is the program's contract, not a failed request, so
	// it is counted and printed rather than failed, and its utility cost
	// shows in mre_triangles.
	empty int
}

func (c *clientStats) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// runOp sends the i-th op of the client's schedule and checks the reply.
func (s *serveState) runOp(ctx context.Context, t *tenantState, i int, st *clientStats, tr *tracer, opID int) {
	kind := t.schedule[i%len(t.schedule)]
	k := t.next[kind]
	t.next[kind]++
	sp := tr.start("http."+opNames[kind], opID, -1)
	start := time.Now()
	var code int
	var body []byte
	var err error
	var check func()
	switch kind {
	case opSample:
		t.freshSeed++
		model := t.models[k%2]
		code, body, err = s.post(ctx, t.key, "/v1/sample", map[string]any{"id": model, "seed": t.freshSeed, "format": "summary"})
		check = func() {
			var r sampleReply
			if err := json.Unmarshal(body, &r); err != nil || r.Nodes != t.n {
				st.fail("fresh sample of %s: bad summary %s", model, body)
				return
			}
			if r.Edges == 0 {
				st.empty++
			}
			st.mreSum += math.Abs(float64(r.Triangles-t.sourceTri)) / float64(t.sourceTri)
			st.mreN++
		}
	case opSampleRepeat:
		want := t.repeat[k%len(t.repeat)]
		code, body, err = s.post(ctx, t.key, "/v1/sample", map[string]any{"id": want.model, "seed": want.seed, "format": "summary"})
		check = func() {
			if !bytes.Equal(body, want.body) {
				st.fail("repeated sample %s/%d: body differs", want.model, want.seed)
			}
		}
	case opSampleStream:
		t.freshSeed++
		model, seed := t.models[k%2], t.freshSeed
		code, body, err = s.post(ctx, t.key, "/v1/sample", map[string]any{"id": model, "seed": seed, "format": "binary"})
		check = func() {
			g, err := graph.DecodeBinary(body)
			switch {
			case err != nil:
				st.fail("streamed sample %s/%d: %v", model, seed, err)
			case g.NumNodes() != t.n:
				st.fail("streamed sample %s/%d: %d nodes, want %d", model, seed, g.NumNodes(), t.n)
			case g.NumEdges() == 0:
				st.empty++
			}
		}
	case opDownload:
		want := t.stored[k%len(t.stored)]
		code, body, err = s.do(ctx, t.key, http.MethodGet, "/v1/graphs/"+want.id+"?format=binary", "", nil)
		check = func() {
			g, err := graph.DecodeBinary(body)
			if err != nil || g.NumNodes() != want.nodes || g.NumEdges() != want.edges {
				st.fail("download %s: %v", want.id, err)
			}
		}
	case opGraphMetrics:
		want := t.stored[k%len(t.stored)]
		code, body, err = s.do(ctx, t.key, http.MethodGet, "/v1/graphs/"+want.id+"/metrics", "", nil)
		check = func() {
			if !bytes.Equal(body, t.metrics[want.id]) {
				st.fail("graph metrics %s: body differs", want.id)
			}
		}
	case opFit:
		t.fitSeed++
		model := [2]string{"tricycle", "fcl"}[k%2]
		code, body, err = s.post(ctx, t.key, "/v1/fit", map[string]any{
			"graph_id": t.sourceID, "epsilon": 0.5, "model": model, "seed": t.fitSeed, "parallelism": fitWorkers,
		})
		check = func() {
			var r idReply
			if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
				st.fail("fit: bad reply %s", body)
			}
		}
	}
	ms := msSince(start)
	tr.end(sp)
	st.ops = append(st.ops, serveOp{kind, ms})
	switch {
	case err != nil:
		st.fail("%s: %v", opNames[kind], err)
	case code != http.StatusOK:
		st.fail("%s: status %d: %s", opNames[kind], code, bytes.TrimSpace(body))
	default:
		check()
	}
}

func (s *serveState) post(ctx context.Context, key, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return s.do(ctx, key, http.MethodPost, path, "application/json", body)
}

// servePhase runs rounds until at least seconds have gone by. In a round both
// clients run blocksPerRound blocks of their schedule concurrently; the
// calibration kernel runs between rounds while the clients wait.
func servePhase(ctx context.Context, s *serveState, seconds float64, m *measurement, tr *tracer, cursor *[serveClients]int) (phase, [serveClients]*clientStats) {
	var ph phase
	var stats [serveClients]*clientStats
	for i := range stats {
		stats[i] = &clientStats{}
	}
	rss := startRSS()
	defer rss.close()
	rss.takePeakMB()
	start := time.Now()
	for since(start) < seconds {
		for i := 0; i < calibrationsPerRound; i++ {
			m.calib.run()
		}
		c0, a0, t0 := cpuMS(), readRuntime().AllocBytes, time.Now()
		var wg sync.WaitGroup
		for ci, t := range s.clients {
			wg.Add(1)
			go func(ci int, t *tenantState) {
				defer wg.Done()
				n := blocksPerRound * len(t.schedule)
				for k := 0; k < n; k++ {
					s.runOp(ctx, t, cursor[ci], stats[ci], tr, ci<<24|cursor[ci])
					cursor[ci]++
				}
			}(ci, t)
		}
		wg.Wait()
		ph.busyS += since(t0)
		ph.cpuMS += cpuMS() - c0
		ph.allocB += readRuntime().AllocBytes - a0
		ph.rssMB = append(ph.rssMB, rss.takePeakMB())
	}
	for _, st := range stats {
		for _, op := range st.ops {
			ph.opMS = append(ph.opMS, op.ms)
		}
		ph.ops += len(st.ops)
	}
	return ph, stats
}

// absorbClients folds the clients' checks into the run's counts.
func (m *measurement) absorbClients(stats [serveClients]*clientStats, mre *[2]float64) {
	for _, st := range stats {
		m.attempted += len(st.ops)
		for _, f := range st.failures {
			m.fail("%s", f)
		}
		m.failed += st.failed - len(st.failures)
		mre[0] += st.mreSum
		mre[1] += float64(st.mreN)
		m.emptySamples += st.empty
	}
}

func runServeMixed(ctx context.Context, cfg config, m *measurement) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lay := newLayers()
	o0 := obsState()
	var s *serveState
	for m.moreSetups() {
		m.calib.run()
		s.close()
		s = nil
		start := time.Now()
		var err error
		if s, err = setupServe(ctx, cfg, lay, tr); err != nil {
			return err
		}
		m.setupS = append(m.setupS, since(start))
	}
	defer s.close()
	ks, err := streamUtility(s)
	if err != nil {
		return err
	}
	m.ksDeg = ks
	var cursor [serveClients]int
	var mre [2]float64

	if !cfg.trace {
		ph, stats := servePhase(ctx, s, cfg.seconds, m, nil, &cursor)
		m.absorb(ph)
		m.absorbClients(stats, &mre)
		m.mreTri = mre[0] / math.Max(mre[1], 1)
		return nil
	}

	untraced, ustats := servePhase(ctx, s, cfg.seconds/2, m, nil, &cursor)
	m.absorb(untraced)
	m.absorbClients(ustats, &mre)
	o1, r1 := obsState(), readRuntime()
	traced, tstats := servePhase(ctx, s, cfg.seconds/2, m, tr, &cursor)
	m.absorbClients(tstats, &mre)
	m.mreTri = mre[0] / math.Max(mre[1], 1)
	d, rt := obsDelta(o1, obsState()), readRuntime()
	ops := float64(traced.ops)

	lay.set("trace.overhead_share", 1-(ops/traced.busyS)/(float64(untraced.ops)/untraced.busyS), "ratio")
	var perKind [numOpKinds][]float64
	for _, st := range tstats {
		for _, op := range st.ops {
			perKind[op.kind] = append(perKind[op.kind], op.ms)
		}
	}
	for k, xs := range perKind {
		lay.set("server."+opNames[k]+"_p50_ms", median(xs), "ms")
	}
	httpDur := sumPrefix(d, "agmdp_http_request_duration_seconds")
	exec := sumPrefix(d, "agmdp_engine_sample_duration_seconds")
	lay.set("server.self_ms", (httpDur.Sum-exec.Sum)*1000/float64(max(httpDur.Count, 1)), "ms")
	lay.set("engine.sample_ms", exec.Sum*1000/float64(max(exec.Count, 1)), "ms")
	hits, misses := sumPrefix(d, "agmdp_graphstore_cache_hits_total").Value, sumPrefix(d, "agmdp_graphstore_cache_misses_total").Value
	lay.set("graphstore.hit_share", hits/math.Max(hits+misses, 1), "ratio")
	lay.set("graphstore.decodes", sumPrefix(d, "agmdp_graphstore_decodes_total").Value, "count")
	hits, misses = sumPrefix(d, "agmdp_analytics_cache_hits_total").Value, sumPrefix(d, "agmdp_analytics_cache_misses_total").Value
	lay.set("analytics.cache_hit_share", hits/math.Max(hits+misses, 1), "ratio")
	hits, misses = sumPrefix(d, "agmdp_analytics_sample_memo_hits_total").Value, sumPrefix(d, "agmdp_analytics_sample_memo_misses_total").Value
	lay.set("analytics.memo_hit_share", hits/math.Max(hits+misses, 1), "ratio")
	whole := obsDelta(o0, obsState())
	computes := sumPrefix(whole, "agmdp_analytics_computes_total").Value
	lay.set("analytics.compute_ms", sumPrefix(whole, "agmdp_analytics_stage_duration_seconds").Sum*1000/math.Max(computes, 1), "ms")
	lay.set("engine.table_fits", sumPrefix(whole, "agmdp_engine_acceptance_table_fits_total").Value/float64(len(m.setupS)), "count")
	pool := sumPrefix(d, "agmdp_pool_task_duration_seconds")
	lay.set("parallel.tasks_per_op", float64(pool.Count)/ops, "count")
	lay.set("parallel.task_ms", pool.Sum*1000/float64(max(pool.Count, 1)), "ms")
	lay.set("runtime.gc_cpu_share", (rt.GCCPU-r1.GCCPU)/(rt.TotalCPU-r1.TotalCPU), "ratio")
	lay.set("runtime.gc_cycles_per_op", (rt.GCCycles-r1.GCCycles)/ops, "count")

	if err := growthProbe(cfg, tr, lay); err != nil {
		return err
	}
	m.finishLayers(cfg, tr, lay)
	return nil
}

// streamUtility is the mean degree KS distance of the streamed samples from
// their tenant's source graph; the bodies are fixed at set-up, so it is
// deterministic per seed.
func streamUtility(s *serveState) (float64, error) {
	var rows []analytics.UtilityMetrics
	for _, t := range s.clients {
		for _, b := range t.stream {
			g, err := graph.DecodeBinary(b.body)
			if err != nil {
				return 0, err
			}
			rows = append(rows, analytics.Compare(t.source, g, fitWorkers))
		}
	}
	if len(rows) == 0 {
		return 0, errors.New("no streamed samples")
	}
	return analytics.AverageUtility(rows).KSDegree, nil
}
