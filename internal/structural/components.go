package structural

import (
	"math"
	"math/bits"

	"agmdp/internal/graph"
)

// componentTracker maintains the connected components of a Builder while the
// orphan post-processing pass mutates it, so that every repair round can ask
// for "the k-th orphan" without a full BFS.
//
// The main component follows the rule of Graph.ConnectedComponents: the
// largest component wins, and a size tie goes to the component with the
// smallest minimum node ID. An orphan is any node outside the main
// component; a Fenwick tree over the orphan indicator selects the k-th orphan
// in ascending node order, which is the same index into the same sorted list
// Graph.OrphanedNodes returns.
//
// Components are identified by labels in [0, n). Each live label records its
// size, a member node and its minimum node ID (-1 when a split may have
// carried the old minimum away; minOf recomputes it on demand).
type componentTracker struct {
	b      *graph.Builder
	label  []int32 // component label of every node
	size   []int32 // per label: member count
	minID  []int32 // per label: smallest member, or -1 if not known
	rep    []int32 // per label: any member
	free   []int32 // labels not in use
	main   int32
	orphan fenwick

	mark  []uint32 // visit stamps for searches that cannot use labels
	stamp uint32
	queue []int32 // scratch BFS queues
	other []int32
	nbrs  []int32
}

func newComponentTracker(b *graph.Builder) *componentTracker {
	n := b.NumNodes()
	t := &componentTracker{
		b:      b,
		label:  make([]int32, n),
		size:   make([]int32, n),
		minID:  make([]int32, n),
		rep:    make([]int32, n),
		free:   make([]int32, 0, n),
		orphan: fenwick{tree: make([]int32, n+1)},
		mark:   make([]uint32, n),
	}
	t.recompute()
	return t
}

// recompute relabels every component from scratch, in the discovery order of
// a BFS started from each unlabelled node in ascending ID order, and rebuilds
// the orphan index.
func (t *componentTracker) recompute() {
	for i := range t.label {
		t.label[i] = -1
	}
	next := int32(0)
	t.main = -1
	for s := range t.label {
		if t.label[s] >= 0 {
			continue
		}
		members := t.relabel(s, -1, next)
		t.size[next] = int32(len(members))
		t.minID[next] = int32(s)
		t.rep[next] = int32(s)
		// Strict comparison: among equal sizes the first discovered, i.e.
		// the smallest minimum ID, stays main.
		if t.main < 0 || t.size[next] > t.size[t.main] {
			t.main = next
		}
		next++
	}
	t.free = t.free[:0]
	for l := int32(len(t.label)) - 1; l >= next; l-- {
		t.free = append(t.free, l)
	}
	t.rebuildOrphans()
}

func (t *componentTracker) rebuildOrphans() {
	t.orphan.build(len(t.label), func(i int) bool { return t.label[i] != t.main })
}

// orphanCount returns the number of nodes outside the main component.
func (t *componentTracker) orphanCount() int { return int(t.orphan.total) }

// orphanAt returns the k-th (0-based) orphan in ascending node order.
func (t *componentTracker) orphanAt(k int) int { return t.orphan.find(k) }

// relabel moves the component containing start from label from to label to
// with a BFS restricted to nodes labelled from, and returns the visited
// nodes. The slice is scratch space, valid until the next search.
func (t *componentTracker) relabel(start int, from, to int32) []int32 {
	q := append(t.queue[:0], int32(start))
	t.label[start] = to
	for h := 0; h < len(q); h++ {
		for _, w := range t.b.NeighborsView(int(q[h])) {
			if t.label[w] == from {
				t.label[w] = to
				q = append(q, w)
			}
		}
	}
	t.queue = q
	return q
}

func (t *componentTracker) alloc() int32 {
	l := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	return l
}

// adopt records freshly relabelled members as the whole of component l.
func (t *componentTracker) adopt(l int32, members []int32) {
	t.size[l] = int32(len(members))
	t.minID[l] = minNode(members)
	t.rep[l] = members[0]
}

func minNode(members []int32) int32 {
	m := int32(math.MaxInt32)
	for _, v := range members {
		if v < m {
			m = v
		}
	}
	return m
}

func (t *componentTracker) nextStamp() uint32 {
	if t.stamp == math.MaxUint32 {
		clear(t.mark)
		t.stamp = 0
	}
	t.stamp++
	return t.stamp
}

// minOf returns the smallest node ID of component l, scanning the component
// if a split has made the recorded minimum stale.
func (t *componentTracker) minOf(l int32) int32 {
	if t.minID[l] >= 0 {
		return t.minID[l]
	}
	s := t.nextStamp()
	start := t.rep[l]
	t.mark[start] = s
	q := append(t.queue[:0], start)
	for h := 0; h < len(q); h++ {
		for _, w := range t.b.NeighborsView(int(q[h])) {
			if t.mark[w] != s {
				t.mark[w] = s
				q = append(q, w)
			}
		}
	}
	t.queue = q
	t.minID[l] = minNode(q)
	return t.minID[l]
}

// beats reports whether component x outranks component y under the
// main-component rule.
func (t *componentTracker) beats(x, y int32) bool {
	if t.size[x] != t.size[y] {
		return t.size[x] > t.size[y]
	}
	return t.minOf(x) < t.minOf(y)
}

// isolate removes every edge of vi, which must be an orphan. Its old
// component is relabelled piece by piece from vi's former neighbours. Every
// piece is smaller than that component, which was not main, so the main
// component and the orphan set do not change.
func (t *componentTracker) isolate(vi int) {
	t.nbrs = append(t.nbrs[:0], t.b.NeighborsView(vi)...)
	if len(t.nbrs) == 0 {
		return
	}
	for _, u := range t.nbrs {
		t.b.RemoveEdge(vi, int(u))
	}
	old := t.label[vi]
	t.size[old], t.minID[old], t.rep[old] = 1, int32(vi), int32(vi)
	for _, u := range t.nbrs {
		if t.label[u] != old {
			continue // already reached from an earlier neighbour
		}
		l := t.alloc()
		t.adopt(l, t.relabel(int(u), old, l))
	}
}

// addEdge inserts {vi, vk} into the builder and merges the two endpoints'
// components, relabelling the smaller one (or the non-main one). It reports
// whether the edge was new.
func (t *componentTracker) addEdge(vi, vk int) bool {
	if !t.b.AddEdge(vi, vk) {
		return false
	}
	a, c := t.label[vi], t.label[vk]
	if a == c {
		return true
	}
	// Relabel c, entered at start, into a: the non-main side, else the
	// smaller one.
	start := vk
	if c == t.main || (a != t.main && t.size[a] < t.size[c]) {
		a, c, start = c, a, vi
	}
	members := t.relabel(start, c, a)
	if a == t.main {
		for _, v := range members {
			t.orphan.add(int(v), -1)
		}
	}
	t.size[a] += int32(len(members))
	if m := minNode(members); t.minID[a] >= 0 && m < t.minID[a] {
		t.minID[a] = m
	}
	t.free = append(t.free, c)
	if a != t.main && t.beats(a, t.main) {
		t.main = a
		t.rebuildOrphans()
	}
	return true
}

// edgeRemoved updates the components after the builder lost edge {u, v}. An
// interleaved BFS from both endpoints stops as soon as the two sides meet
// (no split) or one side runs out; that side is the piece that split off and
// gets a fresh label. A split main component keeps its status while the
// remaining part holds more than half the nodes; otherwise the tracker
// recomputes everything.
func (t *componentTracker) edgeRemoved(u, v int) {
	piece, rest := t.separate(u, v)
	if piece == nil {
		return
	}
	x := t.label[rest]
	l := t.alloc()
	for _, w := range piece {
		t.label[w] = l
	}
	t.adopt(l, piece)
	t.size[x] -= int32(len(piece))
	if t.label[t.rep[x]] == l {
		t.rep[x] = int32(rest)
	}
	if t.minID[x] >= 0 && t.label[t.minID[x]] == l {
		t.minID[x] = -1
	}
	if x != t.main {
		return // both parts are smaller than x, which did not outrank main
	}
	if 2*int(t.size[x]) > len(t.label) {
		for _, w := range piece {
			t.orphan.add(int(w), 1)
		}
		return
	}
	t.recompute()
}

// separate runs the two-sided search for edgeRemoved. It returns nil if u and
// v are still connected; otherwise the nodes of the side that ran out, and
// the endpoint on the other side.
func (t *componentTracker) separate(u, v int) (piece []int32, rest int) {
	sa, sb := t.nextStamp(), t.nextStamp()
	t.mark[u], t.mark[v] = sa, sb
	qa, qb := append(t.queue[:0], int32(u)), append(t.other[:0], int32(v))
	met := false
	for h := 0; ; h++ {
		if h == len(qa) {
			piece, rest = qa, v
			break
		}
		if qa, met = t.expand(qa, qa[h], sa, sb); met {
			break
		}
		if h == len(qb) {
			piece, rest = qb, u
			break
		}
		if qb, met = t.expand(qb, qb[h], sb, sa); met {
			break
		}
	}
	t.queue, t.other = qa, qb
	return piece, rest
}

// expand visits x's neighbours for one side of separate, appending the
// unvisited ones to q. It reports whether it reached the other side.
func (t *componentTracker) expand(q []int32, x int32, own, opp uint32) ([]int32, bool) {
	for _, w := range t.b.NeighborsView(int(x)) {
		switch t.mark[w] {
		case own:
		case opp:
			return q, true
		default:
			t.mark[w] = own
			q = append(q, w)
		}
	}
	return q, false
}

// fenwick is a binary indexed tree over 0/1 indicators.
type fenwick struct {
	tree  []int32 // 1-based
	total int32
}

// build sets the indicators from set in O(n).
func (f *fenwick) build(n int, set func(i int) bool) {
	clear(f.tree)
	f.total = 0
	for i := 1; i <= n; i++ {
		if set(i - 1) {
			f.tree[i]++
			f.total++
		}
		if j := i + i&-i; j <= n {
			f.tree[j] += f.tree[i]
		}
	}
}

func (f *fenwick) add(i int, d int32) {
	f.total += d
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += d
	}
}

// find returns the index of the k-th (0-based) set indicator.
func (f *fenwick) find(k int) int {
	n := len(f.tree) - 1
	pos, rem := 0, int32(k)+1
	for step := 1 << (bits.Len(uint(n)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next <= n && f.tree[next] < rem {
			pos = next
			rem -= f.tree[next]
		}
	}
	return pos
}
