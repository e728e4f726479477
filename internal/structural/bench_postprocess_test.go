package structural

// Orphan post-processing benchmarks (PR 13). The Oracle/Incremental pair runs
// one post-processing pass over the same TriCycLe seed graph of full Last.fm
// size: the oracle recomputes the orphan list with a full BFS every round,
// the production pass tracks components incrementally. The pokec scaling
// curve times whole single-stream TriCycLe generations at three sizes, so
// super-linear growth shows up as a ratio. scripts/bench.sh records both in
// BENCH_pr13.json.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/graph"
)

var (
	postBenchOnce    sync.Once
	postBenchSeed    *graph.Builder
	postBenchSampler *NodeSampler
	postBenchDegrees []int
)

// postProcessBenchFixture builds (once) the seed graph TriCycLe post-processes
// first: a Chung–Lu graph over the full Last.fm degree sequence with the
// degree-one nodes held back.
func postProcessBenchFixture(b *testing.B) (*graph.Builder, *NodeSampler, []int) {
	b.Helper()
	postBenchOnce.Do(func() {
		p, err := datasets.ByName("lastfm")
		if err != nil {
			panic(err)
		}
		degrees := datasets.Generate(rand.New(rand.NewSource(1)), p).DegreeSequence()
		degreeOne := 0
		for _, d := range degrees {
			if d == 1 {
				degreeOne++
			}
		}
		postBenchSampler = NewNodeSampler(degrees, func(i int) bool { return degrees[i] == 1 })
		target := sumDegrees(degrees)/2 - degreeOne
		postBenchSeed = generateCLBuilder(rand.New(rand.NewSource(2)), len(degrees), postBenchSampler, target, nil)
		postBenchDegrees = degrees
	})
	return postBenchSeed, postBenchSampler, postBenchDegrees
}

func benchmarkPostProcess(b *testing.B, post postProcessFunc) {
	seed, sampler, degrees := postProcessBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(rand.New(rand.NewSource(3)), seed.Clone(), sampler, degrees, nil)
	}
}

func BenchmarkPostProcessOracle(b *testing.B) { benchmarkPostProcess(b, postProcessGraphOracle) }

func BenchmarkPostProcessIncremental(b *testing.B) { benchmarkPostProcess(b, PostProcessGraph) }

// BenchmarkTriCycLePokecScaling generates one single-stream TriCycLe graph
// per iteration from a pokec-profile degree sequence at three scales.
func BenchmarkTriCycLePokecScaling(b *testing.B) {
	p, err := datasets.ByName("pokec")
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{0.01, 0.02, 0.04} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			g := datasets.Generate(rand.New(rand.NewSource(7)), p.Scaled(scale))
			params := Params{Degrees: g.DegreeSequence(), Triangles: g.Triangles()}
			model := TriCycLe{Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Generate(rand.New(rand.NewSource(int64(i)+1)), g.NumNodes(), params, nil)
			}
			b.ReportMetric(float64(g.NumNodes()), "nodes")
		})
	}
}
