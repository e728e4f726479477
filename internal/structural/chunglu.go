package structural

import (
	"math/rand"

	"agmdp/internal/graph"
)

// maxProposalFactor bounds how many edge proposals a generator will make as a
// multiple of the target edge count before giving up. Rejections come from
// duplicate edges, self-loops and the AGM acceptance filter; the cap keeps the
// generators total even under extremely restrictive filters.
const maxProposalFactor = 60

// FCL is the (bias-corrected) Fast Chung–Lu structural model: it generates a
// graph whose expected degree sequence matches the target degrees but makes no
// attempt to reproduce clustering. It is the simple structural model the paper
// evaluates as AGM-FCL / AGMDP-FCL.
//
// The zero value proposes edges from the process-default number of concurrent
// streams (see GenerateCLParallel and parallel.Resolve); output remains
// deterministic for a fixed (seed, resolved worker count) pair.
type FCL struct {
	// Parallelism is the number of concurrent edge-proposal streams: ≤ 0
	// means "auto" (the process default, runtime.GOMAXPROCS unless overridden
	// with parallel.SetParallelism), 1 forces the sequential generator.
	Parallelism int
}

// Name implements Model.
func (FCL) Name() string { return "FCL" }

// Generate implements Model by delegating to GenerateCL (or its parallel
// variant) with the full target edge count.
func (f FCL) Generate(rng *rand.Rand, n int, params Params, filter EdgeFilter) *graph.Graph {
	return f.GenerateBuilder(rng, n, params, filter).Finalize()
}

// GenerateBuilder implements StreamModel: the Chung–Lu proposal loop with the
// final freeze left to the caller.
func (f FCL) GenerateBuilder(rng *rand.Rand, n int, params Params, filter EdgeFilter) *graph.Builder {
	if err := params.Validate(n); err != nil {
		panic(err)
	}
	sampler := NewNodeSampler(params.Degrees, nil)
	target := sumDegrees(params.Degrees) / 2
	return generateCLParallelBuilder(rng, n, sampler, target, filter, f.Parallelism)
}

// GenerateCL samples a Chung–Lu graph with the given number of edges over n
// nodes, drawing both endpoints of every edge from the π distribution encoded
// by sampler. Proposals that are self-loops, duplicates, or rejected by the
// filter are discarded and re-drawn (the bias-corrected FCL variant, cFCL,
// which re-samples rather than skipping so the realised edge count matches the
// target). Generation stops early if the proposal budget is exhausted, which
// can only happen under a near-zero acceptance filter.
func GenerateCL(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter EdgeFilter) *graph.Graph {
	return generateCLBuilder(rng, n, sampler, targetEdges, filter).Finalize()
}

// generateCLBuilder is GenerateCL without the final freeze: the TCL and
// TriCycLe generators keep rewiring the result, so they take the still-mutable
// Builder and finalize once at the very end.
func generateCLBuilder(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter EdgeFilter) *graph.Builder {
	b := graph.NewBuilder(n, 0)
	if sampler.Empty() || targetEdges <= 0 {
		return b
	}
	maxProposals := maxProposalFactor * (targetEdges + 1)
	if filter != nil {
		// An AGM acceptance filter rejects most proposals for configurations
		// the learned correlations consider over-represented, so the proposal
		// budget has to cover the extra rejections (the acceptance ratios are
		// capped upstream, which bounds the required head-room).
		maxProposals *= 8
	}
	for proposals := 0; b.NumEdges() < targetEdges && proposals < maxProposals; proposals++ {
		u := sampler.Sample(rng)
		v := sampler.Sample(rng)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if !acceptEdge(rng, filter, u, v) {
			continue
		}
		b.AddEdge(u, v)
	}
	return b
}

// sumDegrees returns the sum of a degree sequence.
func sumDegrees(degrees []int) int {
	total := 0
	for _, d := range degrees {
		total += d
	}
	return total
}
