package graph

// ConnectedComponents returns the node sets of the connected components of the
// graph. Components are returned in descending order of size, ties in order of
// their smallest node ID; singleton nodes form their own components.
func (g *Graph) ConnectedComponents() [][]int {
	n := len(g.attrs)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var components [][]int
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(components)
		comp[start] = id
		queue = queue[:0]
		queue = append(queue, start)
		members := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v32 := range g.row(u) {
				v := int(v32)
				if comp[v] < 0 {
					comp[v] = id
					members = append(members, v)
					queue = append(queue, v)
				}
			}
		}
		components = append(components, members)
	}
	// Sort components by descending size with a simple insertion-style pass to
	// keep the common case (one giant component plus tiny ones) cheap.
	for i := 1; i < len(components); i++ {
		j := i
		for j > 0 && len(components[j]) > len(components[j-1]) {
			components[j], components[j-1] = components[j-1], components[j]
			j--
		}
	}
	return components
}

// LargestComponent returns the node IDs of the largest connected component.
// For an empty graph it returns an empty slice.
func (g *Graph) LargestComponent() []int {
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// IsConnected reports whether the graph consists of a single connected
// component (the empty graph and the single-node graph are connected).
func (g *Graph) IsConnected() bool {
	if len(g.attrs) <= 1 {
		return true
	}
	return len(g.LargestComponent()) == len(g.attrs)
}

// OrphanedNodes returns all nodes that are not part of the largest connected
// component. This is the notion of "orphaned" used by the TriCycLe
// post-processing step (Algorithm 2 of the paper): the input graph is assumed
// connected, so any node outside the main component of a synthetic graph is an
// orphan, including isolated nodes and nodes in small satellite components.
func (g *Graph) OrphanedNodes() []int {
	main := g.LargestComponent()
	if main == nil {
		return nil
	}
	inMain := make([]bool, len(g.attrs))
	for _, v := range main {
		inMain[v] = true
	}
	var orphans []int
	for i, in := range inMain {
		if !in {
			orphans = append(orphans, i)
		}
	}
	return orphans
}

// InducedSubgraph returns the subgraph induced by the given node set, together
// with a mapping from new node IDs (0..len(nodes)-1) to the original node IDs.
// Attribute vectors are carried over. Duplicate node IDs in the input are
// collapsed.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	newID := make(map[int]int, len(nodes))
	orig := make([]int, 0, len(nodes))
	for _, v := range nodes {
		g.validNode(v)
		if _, ok := newID[v]; ok {
			continue
		}
		newID[v] = len(orig)
		orig = append(orig, v)
	}
	var edges []Edge
	vecs := make([]AttrVector, len(orig))
	for id, v := range orig {
		vecs[id] = g.attrs[v]
		for _, u32 := range g.row(v) {
			if idU, ok := newID[int(u32)]; ok && id < idU {
				edges = append(edges, Edge{U: id, V: idU})
			}
		}
	}
	sub := FromEdges(len(orig), g.w, edges).WithAttributes(g.w, vecs)
	return sub, orig
}
