package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// twoComponentsB returns a Builder holding a 4-node cycle {0..3}, a 3-node
// path {4,5,6} and an isolated node 7.
func twoComponentsB() *Builder {
	b := NewBuilder(8, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	return b
}

// twoComponents returns the finalized CSR form of the same graph.
func twoComponents() *Graph {
	return twoComponentsB().Finalize()
}

func TestConnectedComponentsSizesAndOrder(t *testing.T) {
	g := twoComponents()
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("component sizes = %v, want [4 3 1] (descending)", sizes)
	}
}

func TestLargestComponentMembers(t *testing.T) {
	g := twoComponents()
	main := g.LargestComponent()
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if len(main) != 4 {
		t.Fatalf("LargestComponent = %v, want the 4-cycle", main)
	}
	for _, v := range main {
		if !want[v] {
			t.Fatalf("LargestComponent contains unexpected node %d", v)
		}
	}
}

func TestIsConnected(t *testing.T) {
	if !buildTriangleWithTail().IsConnected() {
		t.Fatal("connected graph reported as disconnected")
	}
	if twoComponents().IsConnected() {
		t.Fatal("disconnected graph reported as connected")
	}
	if !New(0, 0).IsConnected() || !New(1, 0).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
	if New(2, 0).IsConnected() {
		t.Fatal("two isolated nodes should not be connected")
	}
}

func TestOrphanedNodes(t *testing.T) {
	g := twoComponents()
	orphans := g.OrphanedNodes()
	want := map[int]bool{4: true, 5: true, 6: true, 7: true}
	if len(orphans) != len(want) {
		t.Fatalf("OrphanedNodes = %v, want %v", orphans, want)
	}
	for _, v := range orphans {
		if !want[v] {
			t.Fatalf("unexpected orphan %d", v)
		}
	}
	if got := buildTriangleWithTail().OrphanedNodes(); len(got) != 0 {
		t.Fatalf("connected graph has orphans %v", got)
	}
	if got := New(0, 0).OrphanedNodes(); got != nil {
		t.Fatalf("empty graph has orphans %v", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := buildTriangleWithTailB()
	b.SetAttr(0, 1)
	b.SetAttr(2, 3)
	g := b.Finalize()
	sub, orig := g.InducedSubgraph([]int{0, 1, 2})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced subgraph has %d nodes, %d edges; want 3, 3", sub.NumNodes(), sub.NumEdges())
	}
	// Attributes must follow nodes through relabelling.
	for newID, old := range orig {
		if sub.Attr(newID) != g.Attr(old) {
			t.Fatalf("attribute of node %d not carried into subgraph", old)
		}
	}
	// Edges not inside the node set must be dropped.
	sub2, _ := g.InducedSubgraph([]int{2, 3, 4})
	if sub2.NumEdges() != 2 {
		t.Fatalf("induced subgraph on tail has %d edges, want 2", sub2.NumEdges())
	}
}

func TestInducedSubgraphCollapsesDuplicates(t *testing.T) {
	g := buildTriangleWithTail()
	sub, orig := g.InducedSubgraph([]int{1, 1, 2, 2})
	if sub.NumNodes() != 2 || len(orig) != 2 {
		t.Fatalf("duplicates not collapsed: %d nodes", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("subgraph edges = %d, want 1", sub.NumEdges())
	}
}

// Property: component sizes always sum to the node count, and every component
// is internally connected.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 50, 0.03, 0)
		comps := g.ConnectedComponents()
		total := 0
		for _, c := range comps {
			total += len(c)
			sub, _ := g.InducedSubgraph(c)
			if !sub.IsConnected() {
				return false
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
