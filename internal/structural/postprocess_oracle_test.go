package structural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// postProcessGraphOracle is the reference implementation of PostProcessGraph:
// the same repair loop, but every round recomputes the orphan list with a
// full BFS over the finalized graph. PostProcessGraph must produce the same
// graph and consume the same random draws.
func postProcessGraphOracle(rng *rand.Rand, g *graph.Builder, sampler *NodeSampler, desired []int, filter EdgeFilter) {
	n := g.NumNodes()
	if n == 0 || len(desired) != n {
		return
	}
	targetEdges := sumDegrees(desired) / 2
	maxRounds := 4*n + 100
	const maxSampleAttempts = 200

	for round := 0; round < maxRounds; round++ {
		orphans := g.Finalize().OrphanedNodes()
		if len(orphans) == 0 {
			return
		}
		vi := orphans[rng.Intn(len(orphans))]
		for _, u := range g.Neighbors(vi) {
			g.RemoveEdge(vi, u)
		}
		want := desired[vi]
		if want < 1 {
			want = 1
		}
		for j := 0; j < want; j++ {
			vk := -1
			if !sampler.Empty() {
				for attempt := 0; attempt < maxSampleAttempts; attempt++ {
					cand := sampler.Sample(rng)
					if cand == vi || g.HasEdge(vi, cand) {
						continue
					}
					if g.Degree(cand) >= desired[cand] {
						continue
					}
					if filter != nil && attempt < maxSampleAttempts/2 && !acceptEdge(rng, filter, vi, cand) {
						continue
					}
					vk = cand
					break
				}
			}
			if vk < 0 {
				vk = randomAttachmentPoint(rng, g, vi)
				if vk < 0 {
					break
				}
			}
			if !g.AddEdge(vi, vk) {
				continue
			}
			if g.NumEdges() > targetEdges {
				deleteRandomEdgeAvoiding(rng, g, vi)
			}
		}
	}
}

// oracleCase is one randomly drawn post-processing input.
type oracleCase struct {
	n       int
	degrees []int
	filter  EdgeFilter
}

// randomOracleCase draws a small degree sequence that stresses the tracker:
// many degree-one nodes (held back from the seed, so the seed is fragmented),
// runs of equal degrees (equal-size component ties), and, for a third of the
// cases, degree sums below 2(n−1), which no connected graph can satisfy, so
// the repair loop runs into its round cap.
func randomOracleCase(rng *rand.Rand) oracleCase {
	n := 2 + rng.Intn(60)
	degrees := make([]int, n)
	sparse := rng.Intn(3) == 0
	for i := range degrees {
		switch {
		case sparse:
			degrees[i] = rng.Intn(2) // mostly 0/1: far below 2(n−1)
		case rng.Intn(2) == 0:
			degrees[i] = 1
		default:
			degrees[i] = 2 + rng.Intn(min(n-1, 6))
		}
		if degrees[i] > n-1 {
			degrees[i] = n - 1
		}
	}
	c := oracleCase{n: n, degrees: degrees}
	if rng.Intn(2) == 0 {
		c.filter = func(u, v int) float64 {
			if (u%3 == 0) == (v%3 == 0) {
				return 1
			}
			return 0.2
		}
	}
	return c
}

// fragmentedBuilder returns a builder of disjoint equal-size paths plus
// isolated nodes: every path ties with every other, so the main component is
// decided by the minimum-ID rule.
func fragmentedBuilder(rng *rand.Rand, n int) *graph.Builder {
	b := graph.NewBuilder(n, 0)
	size := 2 + rng.Intn(3)
	perm := rng.Perm(n)
	for start := 0; start+size <= n-n/4; start += size {
		for k := start; k+1 < start+size; k++ {
			b.AddEdge(perm[k], perm[k+1])
		}
	}
	return b
}

func sameDraws(a, b *rand.Rand) bool { return a.Int63() == b.Int63() }

func TestPostProcessGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 600; trial++ {
		c := randomOracleCase(rng)
		var seed *graph.Builder
		if trial%2 == 0 {
			seed = fragmentedBuilder(rng, c.n)
		} else {
			sampler := NewNodeSampler(c.degrees, nil)
			seed = generateCLBuilder(rng, c.n, sampler, sumDegrees(c.degrees)/4, nil)
		}
		excluded := func(i int) bool { return c.degrees[i] == 1 }
		sampler := NewNodeSampler(c.degrees, excluded)
		s := rng.Int63()
		want, got := seed.Clone(), seed.Clone()
		ro, rg := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
		postProcessGraphOracle(ro, want, sampler, c.degrees, c.filter)
		PostProcessGraph(rg, got, sampler, c.degrees, c.filter)
		if !want.Finalize().Equal(got.Finalize()) {
			t.Fatalf("trial %d (n=%d, degrees=%v): graphs differ from the oracle", trial, c.n, c.degrees)
		}
		if !sameDraws(ro, rg) {
			t.Fatalf("trial %d: random streams diverged from the oracle", trial)
		}
	}
}

func TestTriCycLeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		c := randomOracleCase(rng)
		params := Params{Degrees: c.degrees, Triangles: int64(rng.Intn(3 * c.n))}
		s := rng.Int63()
		for _, workers := range []int{1, 2} {
			model := TriCycLe{Parallelism: workers}
			ro, rg := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
			want := model.generateBuilder(ro, c.n, params, c.filter, postProcessGraphOracle).Finalize()
			got := model.GenerateBuilder(rg, c.n, params, c.filter).Finalize()
			if !want.Equal(got) {
				t.Fatalf("trial %d workers %d (degrees=%v): TriCycLe output differs from the oracle", trial, workers, c.degrees)
			}
			if !sameDraws(ro, rg) {
				t.Fatalf("trial %d workers %d: random streams diverged from the oracle", trial, workers)
			}
		}
	}
}

// TestTriCycLeMatchesOracleParallelRewiring covers degree sequences large
// enough that the seed and the rewiring take their parallel paths.
func TestTriCycLeMatchesOracleParallelRewiring(t *testing.T) {
	degrees := parallelDegrees(3000)
	for i := range degrees {
		if i%3 == 0 {
			degrees[i] = 1
		}
	}
	params := Params{Degrees: degrees, Triangles: 4000}
	filter := func(u, v int) float64 {
		if (u%2 == 0) == (v%2 == 0) {
			return 1
		}
		return 0.5
	}
	for _, workers := range []int{1, 2} {
		for _, f := range []EdgeFilter{nil, filter} {
			model := TriCycLe{Parallelism: workers}
			want := model.generateBuilder(rand.New(rand.NewSource(5)), len(degrees), params, f, postProcessGraphOracle).Finalize()
			got := model.Generate(rand.New(rand.NewSource(5)), len(degrees), params, f)
			if !want.Equal(got) {
				t.Fatalf("workers %d filter %v: TriCycLe output differs from the oracle", workers, f != nil)
			}
		}
	}
}

// checkTracker compares the tracker against a full recomputation of the
// builder's components.
func checkTracker(t *testing.T, tr *componentTracker, step string) {
	t.Helper()
	g := tr.b.Finalize()
	n := g.NumNodes()
	comps := g.ConnectedComponents()
	inMain := make([]bool, n)
	for _, v := range comps[0] {
		inMain[v] = true
	}
	for _, c := range comps {
		l := tr.label[c[0]]
		lo := c[0]
		for _, v := range c {
			if tr.label[v] != l {
				t.Fatalf("%s: component %v split across labels", step, c)
			}
			lo = min(lo, v)
		}
		if int(tr.size[l]) != len(c) {
			t.Fatalf("%s: label %d has size %d, want %d", step, l, tr.size[l], len(c))
		}
		if tr.label[tr.rep[l]] != l {
			t.Fatalf("%s: representative of label %d is not a member", step, l)
		}
		if m := tr.minID[l]; m >= 0 && int(m) != lo {
			t.Fatalf("%s: label %d records minimum %d, want %d", step, l, m, lo)
		}
	}
	if len(comps)+len(tr.free) != n {
		t.Fatalf("%s: %d components and %d free labels for %d nodes", step, len(comps), len(tr.free), n)
	}
	for v := 0; v < n; v++ {
		if (tr.label[v] == tr.main) != inMain[v] {
			t.Fatalf("%s: node %d main membership is %v, want %v", step, v, !inMain[v], inMain[v])
		}
	}
	orphans := g.OrphanedNodes()
	if tr.orphanCount() != len(orphans) {
		t.Fatalf("%s: orphan count %d, want %d", step, tr.orphanCount(), len(orphans))
	}
	for k, v := range orphans {
		if got := tr.orphanAt(k); got != v {
			t.Fatalf("%s: orphan %d is %d, want %d", step, k, got, v)
		}
	}
}

func TestComponentTrackerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(40)
		b := fragmentedBuilder(rng, n)
		tr := newComponentTracker(b)
		if trial%10 == 0 {
			tr.stamp = math.MaxUint32 - 5 // exercise the stamp wrap-around
		}
		checkTracker(t, tr, fmt.Sprintf("trial %d init", trial))
		for op := 0; op < 60; op++ {
			step := fmt.Sprintf("trial %d op %d", trial, op)
			switch r := rng.Intn(10); {
			case r < 2 && tr.orphanCount() > 0:
				vi := tr.orphanAt(rng.Intn(tr.orphanCount()))
				tr.isolate(vi)
				step += fmt.Sprintf(" isolate(%d)", vi)
			case r < 6:
				u, v := rng.Intn(n), rng.Intn(n)
				tr.addEdge(u, v)
				step += fmt.Sprintf(" add(%d,%d)", u, v)
			default:
				if u, v, ok := deleteRandomEdgeAvoiding(rng, b, -1); ok {
					tr.edgeRemoved(u, v)
					step += fmt.Sprintf(" remove(%d,%d)", u, v)
				}
			}
			checkTracker(t, tr, step)
		}
	}
}
