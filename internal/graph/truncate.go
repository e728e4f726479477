package graph

// Truncate applies the edge truncation operator µ(G, k) of Definition 2
// (originally from Blocki et al., restricted sensitivity): edges are visited
// in the canonical ordering (sorted by (min endpoint, max endpoint)) and an
// edge is deleted if, at the time it is processed, either endpoint still has
// degree greater than k. The result is a k-bounded graph: every node has
// degree at most k.
//
// The receiver is immutable and unchanged; a new graph is returned. Instead of
// materialising a mutable copy, the pass simulates the sequential deletions on
// a degree array and packs the surviving edges (already in canonical order in
// the CSR rows) straight into a new CSR graph. Attribute vectors are
// preserved. Truncate panics if k < 0.
func (g *Graph) Truncate(k int) *Graph {
	if k < 0 {
		panic("graph: negative truncation parameter")
	}
	degs := g.Degrees()
	kept := make([]Edge, 0, g.m)
	g.ForEachEdge(func(u, v int) bool {
		if degs[u] > k || degs[v] > k {
			degs[u]--
			degs[v]--
			return true
		}
		kept = append(kept, Edge{U: u, V: v})
		return true
	})
	out := fromCanonicalEdges(len(g.attrs), g.w, kept)
	copy(out.attrs, g.attrs)
	return out
}
