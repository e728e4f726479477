package structural

import (
	"math/rand"

	"agmdp/internal/graph"
)

// PostProcessGraph implements Algorithm 2 of the paper: it repairs orphaned
// nodes (nodes outside the main connected component) by deleting their stray
// edges and reconnecting them to nodes in the rest of the graph whose desired
// degree has not yet been met, while keeping the total edge count at the value
// implied by the desired degree sequence. The builder is modified in place;
// callers finalize it into an immutable CSR graph when generation is done.
//
// desired holds the target degree of every node (the original input graph's
// degree sequence in AGM-DP); sampler is the π distribution used to pick the
// attachment points. Attachment preferences follow the paper: nodes are drawn
// from π until one with unmet desired degree is found; a bounded number of
// attempts guards against the (rare) situation where no such node exists, in
// which case a uniformly random non-orphan node is used instead. The loop is
// capped so that pathological inputs (for example a desired degree sequence
// whose sum implies fewer than n−1 edges, which no connected graph can
// satisfy) cannot spin forever.
//
// filter, when non-nil, is treated as a soft preference: candidate attachment
// points that the filter accepts are tried first, but connectivity repair
// falls back to ignoring the filter rather than leaving the node orphaned.
//
// Cost: one O(n + m) component labelling up front, then near-linear work in
// total. Components are tracked incrementally (see componentTracker): each
// round draws its orphan in O(log n), stripping an orphan relabels only its
// own component, an attachment relabels the smaller side, and a deleted edge
// costs a two-sided search that stops at the smaller piece. Only a split that
// leaves the main component with at most n/2 nodes triggers a full
// relabelling.
func PostProcessGraph(rng *rand.Rand, g *graph.Builder, sampler *NodeSampler, desired []int, filter EdgeFilter) {
	n := g.NumNodes()
	if n == 0 || len(desired) != n {
		return
	}
	targetEdges := sumDegrees(desired) / 2
	maxRounds := 4*n + 100
	const maxSampleAttempts = 200

	comps := newComponentTracker(g)
	for round := 0; round < maxRounds; round++ {
		orphans := comps.orphanCount()
		if orphans == 0 {
			return
		}
		vi := comps.orphanAt(rng.Intn(orphans))
		// Remove any edges the orphan currently has (they can only reach other
		// orphans).
		comps.isolate(vi)
		want := desired[vi]
		if want < 1 {
			want = 1 // every node in a connected input graph has degree ≥ 1
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
					// Respect the attribute-correlation filter when possible;
					// after half the attempt budget, connectivity wins.
					if filter != nil && attempt < maxSampleAttempts/2 && !acceptEdge(rng, filter, vi, cand) {
						continue
					}
					vk = cand
					break
				}
			}
			if vk < 0 {
				// Fallback: attach to any random node that is not the orphan
				// itself; prefer one that already has edges so that the orphan
				// joins an existing component.
				vk = randomAttachmentPoint(rng, g, vi)
				if vk < 0 {
					break
				}
			}
			if !comps.addEdge(vi, vk) {
				continue
			}
			if g.NumEdges() > targetEdges {
				if u, v, ok := deleteRandomEdgeAvoiding(rng, g, vi); ok {
					comps.edgeRemoved(u, v)
				}
			}
		}
	}
}

// randomAttachmentPoint returns a node other than vi to attach an orphan to,
// preferring nodes with at least one edge. It returns -1 for graphs with no
// usable candidate.
func randomAttachmentPoint(rng *rand.Rand, g *graph.Builder, vi int) int {
	n := g.NumNodes()
	if n <= 1 {
		return -1
	}
	for attempt := 0; attempt < 200; attempt++ {
		cand := rng.Intn(n)
		if cand == vi || g.HasEdge(vi, cand) {
			continue
		}
		if g.Degree(cand) > 0 || attempt > 100 {
			return cand
		}
	}
	return -1
}

// deleteRandomEdgeAvoiding removes one (approximately uniformly chosen) edge
// that is not incident to the protected node, keeping the edge count on
// target without immediately undoing the repair that was just made. It
// returns the removed edge, or ok = false if no edge was found.
func deleteRandomEdgeAvoiding(rng *rand.Rand, g *graph.Builder, protected int) (u, v int, ok bool) {
	n := g.NumNodes()
	for attempt := 0; attempt < 400; attempt++ {
		u = rng.Intn(n)
		if u == protected {
			continue
		}
		nb := g.NeighborsView(u)
		if len(nb) == 0 {
			continue
		}
		v = int(nb[rng.Intn(len(nb))])
		if v == protected {
			continue
		}
		g.RemoveEdge(u, v)
		return u, v, true
	}
	return 0, 0, false
}
