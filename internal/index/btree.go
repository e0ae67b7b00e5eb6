// Package index provides the ordered and spatial index structures used
// across the storage engine: an in-memory B-tree (LSM memtables, primary
// key lookups, secondary B-tree indexes) and an R-tree (spatial
// secondary indexes and the transient probe structures the enrichment
// planner builds per batch).
//
// The structures themselves are not synchronized; the storage layer
// owns locking so that lock scope matches component lifecycles.
package index

import (
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// btreeDegree 64 gives wide nodes (max 127 items, min 63): the
// frame-granular storage path merges whole sorted runs into leaves, so
// fat leaves amortize split/merge churn across far more records, and
// point lookups still binary-search within a node. A node's item array
// holds maxItems items, and nodes on the right spine split full (see
// chunk), so a tree built from ascending keys — a memtable fed in key
// order — costs about one entry per stored item.
const btreeDegree = 64

// Entry is one key/value pair stored in a Tree.
type Entry[K, V any] struct {
	Key K
	Val V
}

type btreeNode[K, V any] struct {
	items    []Entry[K, V]
	children []*btreeNode[K, V] // len(children) == len(items)+1, or 0 for leaves
}

// Tree is an in-memory B-tree of entries ordered by key under the
// comparison it was made with (New). Keys are unique: Put replaces the
// value of an existing key. There is one implementation, instantiated
// over ADM values (BTree) and over encodings: the LSM memtable's tree of
// the encodings a batch's buffer holds, and a secondary index's tree of
// (secondary key, primary key) entries.
type Tree[K, V any] struct {
	root  *btreeNode[K, V]
	size  int
	cmp   func(a, b K) int
	nodes *Nodes[K, V] // where new nodes come from and Release returns them; nil: the heap
}

// New returns an empty tree ordered by cmp, which returns a negative
// number, zero or a positive number as a sorts before, with or after b.
func New[K, V any](cmp func(a, b K) int) *Tree[K, V] { return &Tree[K, V]{cmp: cmp} }

// NewIn is New for a tree that takes its nodes from l, and hands them
// back to it at Release.
func NewIn[K, V any](cmp func(a, b K) int, l *Nodes[K, V]) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp, nodes: l}
}

// Nodes is a free list of tree nodes, for trees that are filled, read
// and then dropped whole, one after another: an LSM partition's
// memtables. A tree made with NewIn takes its nodes from the list, and
// Release returns them, cleared, once no reader can reach the tree. It
// is safe for concurrent use.
type Nodes[K, V any] struct {
	mu   sync.Mutex
	free []*btreeNode[K, V]
}

// get takes a free node, or returns nil when there is none.
func (l *Nodes[K, V]) get() *btreeNode[K, V] {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return nil
	}
	n := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return n
}

// Drop empties the list.
func (l *Nodes[K, V]) Drop() {
	l.mu.Lock()
	l.free = nil
	l.mu.Unlock()
}

// Release empties t and, for a tree made with NewIn, hands its nodes to
// its list: the caller vouches that nothing reads t or still holds an
// entry of it by reference (a Cursor, an AscendFrom walk). Each node is
// cleared first, so a free node keeps no key or value alive. The list
// keeps at most trees times the nodes of the tree released — the caller
// knows how many such trees are filled at once — and leaves the rest to
// the garbage collector.
func (t *Tree[K, V]) Release(trees int) {
	root, l := t.root, t.nodes
	t.root, t.size = nil, 0
	if root == nil || l == nil {
		return
	}
	var nodes []*btreeNode[K, V]
	root.collect(&nodes)
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := max(0, min(len(nodes), trees*len(nodes)-len(l.free)))
	l.free = append(l.free, nodes[:keep]...)
}

// collect appends n and every node below it to nodes, each cleared.
func (n *btreeNode[K, V]) collect(nodes *[]*btreeNode[K, V]) {
	for _, c := range n.children {
		c.collect(nodes)
	}
	clear(n.items[:cap(n.items)])
	clear(n.children[:cap(n.children)])
	n.items, n.children = n.items[:0], n.children[:0]
	*nodes = append(*nodes, n)
}

// Item is one key/value pair of ADM values: a BTree's entry.
type Item = Entry[adm.Value, adm.Value]

// BTree is the tree of ADM values ordered by adm.Compare.
type BTree = Tree[adm.Value, adm.Value]

// NewBTree returns an empty BTree.
func NewBTree() *BTree { return New[adm.Value, adm.Value](adm.Compare) }

const (
	maxItems = 2*btreeDegree - 1
	minItems = btreeDegree - 1
)

// newNode returns an empty node with room for maxItems items and, for
// an internal node, their maxItems+1 children: a free one from t's list
// when it has one, else a new one. With the allocator's 8-byte header,
// an array of 127 ADM Items (160 B) fits a 20 KiB size class and one of
// 127 memtable entries (32 B) a 4 KiB class, each with less than 0.8 %
// to spare. A free node keeps the children array it had, empty, so it
// serves as a leaf either way.
func (t *Tree[K, V]) newNode(internal bool) *btreeNode[K, V] {
	var n *btreeNode[K, V]
	if t.nodes != nil {
		n = t.nodes.get()
	}
	if n == nil {
		n = &btreeNode[K, V]{items: make([]Entry[K, V], 0, maxItems)}
	}
	if internal && n.children == nil {
		n.children = make([]*btreeNode[K, V], 0, maxItems+1)
	}
	return n
}

// Len returns the number of stored items.
func (t *Tree[K, V]) Len() int { return t.size }

func (n *btreeNode[K, V]) leaf() bool { return len(n.children) == 0 }

// search locates the probe's key in the node's items: it returns the
// index of the first item whose key is not below it, and whether that
// key is the probe's. probe(k) compares key k with the sought one.
func (n *btreeNode[K, V]) search(probe func(K) int) (int, bool) {
	lo, hi, found := 0, len(n.items), false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := probe(n.items[mid].Key); c < 0 {
			lo = mid + 1
		} else {
			hi, found = mid, c == 0
		}
	}
	return lo, found
}

// find is search for a key of the tree's own type.
func (t *Tree[K, V]) find(n *btreeNode[K, V], key K) (int, bool) {
	return n.search(func(k K) int { return t.cmp(k, key) })
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		i, ok := t.find(n, key)
		if ok {
			return n.items[i].Val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Put inserts key/val, replacing any previous value for key. It reports
// whether an existing item was replaced.
func (t *Tree[K, V]) Put(key K, val V) bool {
	if t.root == nil {
		t.root = t.newNode(false)
	}
	replaced, promoted, siblings := t.insert(t.root, key, val, true)
	t.grow(promoted, siblings)
	if !replaced {
		t.size++
	}
	return replaced
}

// insert adds key/val to the subtree rooted at n, which is on the right
// spine when edge is set, and reports whether an existing key was
// replaced. A node the insert overflows splits on the way back up and
// returns the separators and new right siblings for its parent to
// adopt.
func (t *Tree[K, V]) insert(n *btreeNode[K, V], key K, val V, edge bool) (bool, []Entry[K, V], []*btreeNode[K, V]) {
	i, found := t.find(n, key)
	switch {
	case found:
		n.items[i].Val = val
		return true, nil, nil
	case !n.leaf():
		replaced, promoted, siblings := t.insert(n.children[i], key, val, edge && i == len(n.items))
		n.adopt(i, promoted, siblings)
		promoted, siblings = t.splitOverfull(n, edge)
		return replaced, promoted, siblings
	case len(n.items) < maxItems:
		n.items = slices.Insert(n.items, i, Entry[K, V]{key, val})
		return false, nil, nil
	default:
		// A full leaf splits as the merge of a batch of one does, so its
		// array never grows.
		_, promoted, siblings := t.mergeLeaf(n, []Entry[K, V]{{key, val}}, nil, edge)
		return false, promoted, siblings
	}
}

// adopt splices in the separators and new right siblings child i split
// into, right after it.
func (n *btreeNode[K, V]) adopt(i int, promoted []Entry[K, V], siblings []*btreeNode[K, V]) {
	n.items = slices.Insert(n.items, i, promoted...)
	n.children = slices.Insert(n.children, i+1, siblings...)
}

// grow roots the tree above the old root and the siblings it split into,
// one level per pass while the new root overflows too.
func (t *Tree[K, V]) grow(promoted []Entry[K, V], siblings []*btreeNode[K, V]) {
	for len(siblings) > 0 {
		root := t.newNode(true)
		root.items = append(root.items, promoted...)
		root.children = append(append(root.children, t.root), siblings...)
		t.root = root
		promoted, siblings = t.splitOverfull(root, true)
	}
}

// PutBatch merges run — ascending by key, with unique keys — into the
// tree. Where Put pays one root-to-leaf descent per item, PutBatch
// descends once per leaf run: consecutive keys bound for the same leaf
// are merged into it in a single pass, and nodes that overflow are
// split into however many siblings they need in one step. Existing keys
// are replaced in place. onNew, when non-nil, is invoked for each item
// that created a new entry rather than replacing one. A run that is
// unsorted or contains duplicate keys corrupts the tree.
func (t *Tree[K, V]) PutBatch(run []Entry[K, V], onNew func(Entry[K, V])) {
	if len(run) == 0 {
		return
	}
	if len(run) == 1 {
		// A batch of one is a Put: one descent and an in-place shift
		// instead of a leaf merge.
		if !t.Put(run[0].Key, run[0].Val) && onNew != nil {
			onNew(run[0])
		}
		return
	}
	if t.root == nil {
		t.root = t.newNode(false)
	}
	inserted, promoted, siblings := t.insertBatch(t.root, run, onNew, true)
	t.size += inserted
	t.grow(promoted, siblings)
}

// insertBatch merges the sorted run into the subtree rooted at n, which
// is on the right spine when edge is set, and returns the number of
// newly created entries. Like insert, a node that overflows splits and
// returns the separators and new right siblings for its parent.
func (t *Tree[K, V]) insertBatch(n *btreeNode[K, V], run []Entry[K, V], onNew func(Entry[K, V]), edge bool) (int, []Entry[K, V], []*btreeNode[K, V]) {
	if n.leaf() {
		return t.mergeLeaf(n, run, onNew, edge)
	}
	// Segment the run across children, replacing items that match
	// separators in place. Segments are gathered first and processed
	// right-to-left so splicing a split child's new siblings into
	// n.items/n.children never shifts a pending segment's child index.
	type segment struct{ child, lo, hi int }
	var segBuf [maxItems + 1]segment // one segment per child at most
	segs := segBuf[:0]
	i := 0
	for i < len(run) {
		c, exact := t.find(n, run[i].Key)
		if exact {
			n.items[c].Val = run[i].Val
			i++
			continue
		}
		j := i + 1
		for j < len(run) && (c >= len(n.items) || t.cmp(run[j].Key, n.items[c].Key) < 0) {
			j++
		}
		segs = append(segs, segment{child: c, lo: i, hi: j})
		i = j
	}
	last := len(n.items) // the last child's index, before any splice
	inserted := 0
	for k := len(segs) - 1; k >= 0; k-- {
		s := segs[k]
		added, promoted, siblings := t.insertBatch(n.children[s.child], run[s.lo:s.hi], onNew, edge && s.child == last)
		inserted += added
		n.adopt(s.child, promoted, siblings)
	}
	promoted, siblings := t.splitOverfull(n, edge)
	return inserted, promoted, siblings
}

// mergeLeaf merges the sorted run into the leaf's sorted items in one
// backward pass and returns the number of newly inserted items. When
// the merged items overflow the leaf, the same pass splits it (chunk
// sets the sizes) by writing every item straight to its final place:
// later chunks fill new right siblings, the separators between them are
// returned with them, and the leftmost chunk goes back into the leaf's
// own array — safe, because the read index never passes the write
// index. No array ever holds more than one node's items.
func (t *Tree[K, V]) mergeLeaf(n *btreeNode[K, V], run []Entry[K, V], onNew func(Entry[K, V]), edge bool) (int, []Entry[K, V], []*btreeNode[K, V]) {
	// Count the keys not already present to size the result.
	newCount := 0
	i, j := 0, 0
	for i < len(n.items) && j < len(run) {
		switch c := t.cmp(n.items[i].Key, run[j].Key); {
		case c < 0:
			i++
		case c > 0:
			newCount++
			j++
		default:
			i++
			j++
		}
	}
	newCount += len(run) - j
	if newCount == 0 {
		// Pure replacement: every run key already exists.
		for _, it := range run {
			at, _ := t.find(n, it.Key)
			n.items[at].Val = it.Val
		}
		return 0, nil, nil
	}
	old := len(n.items)
	total := old + newCount
	first := chunk(total, edge)
	n.items = n.items[:max(old, first)]
	// The destinations, left to right: the leaf's own chunk, then each
	// separator and the new sibling it precedes.
	dsts := append(make([][]Entry[K, V], 0, 8), n.items[:first])
	var siblings []*btreeNode[K, V]
	for pos := first; pos < total; {
		s := t.newNode(false)
		s.items = s.items[:chunk(total-pos-1, edge)]
		siblings = append(siblings, s)
		pos += 1 + len(s.items)
	}
	promoted := make([]Entry[K, V], len(siblings))
	for k, s := range siblings {
		dsts = append(dsts, promoted[k:k+1], s.items)
	}
	i, j = old-1, len(run)-1
	for d := len(dsts) - 1; d >= 0; d-- {
		dst := dsts[d]
		// In the leaf's own chunk, once the run is used up the items
		// left are already in place.
		for w := len(dst) - 1; w >= 0 && (d > 0 || j >= 0); w-- {
			c := 1 // the run is used up: take the leaf's next item
			if j >= 0 {
				c = -1
				if i >= 0 {
					c = t.cmp(n.items[i].Key, run[j].Key)
				}
			}
			switch {
			case c > 0:
				dst[w] = n.items[i]
				i--
			case c == 0:
				// Replacement keeps the existing key, like Put.
				dst[w] = Entry[K, V]{n.items[i].Key, run[j].Val}
				i--
				j--
			default:
				dst[w] = run[j]
				if onNew != nil {
					onNew(run[j])
				}
				j--
			}
		}
	}
	clear(n.items[first:]) // moved to siblings; don't pin them here
	n.items = n.items[:first]
	return newCount, promoted, siblings
}

// chunk returns how many of the rem items a split still has to place
// the next node takes: all of them once they fit in one node; otherwise
// half a node, as in any B-tree — except on the right spine, where the
// node takes a full node's worth and leaves the next a separator and at
// least one item. Ascending keys all arrive at the right spine, so a
// node split half-full there would never be filled; the spine's last
// node may hold fewer than minItems, as in a bulk-loaded tree.
func chunk(rem int, edge bool) int {
	switch {
	case rem <= maxItems:
		return rem
	case edge:
		return min(maxItems, rem-2)
	default:
		return minItems
	}
}

// splitOverfull splits an internal node holding more than maxItems
// items — the separators its children's splits spliced in — into as
// many nodes as it needs in one pass, and returns nothing for a node
// that fits. (A leaf never overflows: mergeLeaf splits as it merges.) n
// keeps the leftmost chunk and each further chunk becomes a new right
// sibling, with promoted[k] separating siblings[k] from what precedes
// it; chunk sets the sizes. The single pass matters: chaining binary
// splits would re-copy the remaining tail once per split, going
// quadratic exactly when a large sorted run lands in one node.
func (t *Tree[K, V]) splitOverfull(n *btreeNode[K, V], edge bool) (promoted []Entry[K, V], siblings []*btreeNode[K, V]) {
	items, children := n.items, n.children
	if len(items) <= maxItems {
		return nil, nil
	}
	first := chunk(len(items), edge)
	for pos := first; pos < len(items); {
		promoted = append(promoted, items[pos])
		pos++
		size := chunk(len(items)-pos, edge)
		s := t.newNode(true)
		s.items = append(s.items, items[pos:pos+size]...)
		s.children = append(s.children, children[pos:pos+size+1]...)
		siblings = append(siblings, s)
		pos += size
	}
	n.items = truncate(items, first, maxItems)
	n.children = truncate(children, first+1, maxItems+1)
	return promoted, siblings
}

// truncate cuts s to its first k elements, clearing the rest — they
// moved to siblings, and this array must not keep them reachable. An
// array a batch's splices grew past limit is replaced by a node-sized
// copy, so no oversized array outlives the split.
func truncate[E any](s []E, k, limit int) []E {
	if cap(s) > limit {
		return append(make([]E, 0, limit), s[:k]...)
	}
	clear(s[k:])
	return s[:k]
}

// Cursor returns a pull iterator positioned before the smallest item.
// It walks the tree in key order without materializing items into a
// slice — the read path for frozen LSM memtables and streaming query
// scans. The tree must not be mutated while the cursor is in use.
func (t *Tree[K, V]) Cursor() *Cursor[K, V] {
	c := &Cursor[K, V]{}
	c.stack = c.buf[:0]
	if t.root != nil {
		c.descendFirst(t.root)
	}
	return c
}

// AscendFrom calls fn on every item at or after the sought position, in
// key order, until fn returns false: probe(k) is negative for a key k
// before the position, zero for the key at it and positive for one
// after it, in the tree's order, and a nil probe starts at the smallest
// item. A probe
// that never returns zero starts between two keys: that is how a
// secondary index starts a range on the secondary-key part of its
// entries. The walk recurses down the tree's few levels instead of
// keeping a cursor's stack, so it allocates nothing. The tree must not
// be mutated during the walk.
func (t *Tree[K, V]) AscendFrom(probe func(K) int, fn func(Entry[K, V]) bool) {
	if t.root != nil {
		t.root.ascend(probe, fn)
	}
}

// ascend is AscendFrom over the subtree rooted at n; it reports whether
// fn asked for more.
func (n *btreeNode[K, V]) ascend(probe func(K) int, fn func(Entry[K, V]) bool) bool {
	i, at := 0, false
	if probe != nil {
		i, at = n.search(probe)
	}
	// Unless item i is the sought position itself, child i may hold items
	// at or after it.
	if !at && !n.leaf() && !n.children[i].ascend(probe, fn) {
		return false
	}
	for ; i < len(n.items); i++ {
		if !fn(n.items[i]) {
			return false
		}
		if !n.leaf() && !n.children[i+1].ascend(nil, fn) {
			return false
		}
	}
	return true
}

// Bound is one end of a range of keys, as the query planner hands it to
// a secondary index. The zero value is unbounded (no constraint at that
// end).
type Bound struct {
	key       adm.Value
	inclusive bool
	set       bool
}

// Include bounds a range at key, with key itself in range.
func Include(key adm.Value) Bound { return Bound{key: key, inclusive: true, set: true} }

// Exclude bounds a range at key, with key itself out of range.
func Exclude(key adm.Value) Bound { return Bound{key: key, set: true} }

// Unbounded leaves one end of a range open.
func Unbounded() Bound { return Bound{} }

// Unbounded reports whether the bound imposes no constraint.
func (b Bound) Unbounded() bool { return !b.set }

// Key returns the bounding key and whether it is inclusive; meaningless
// for unbounded bounds.
func (b Bound) Key() (adm.Value, bool) { return b.key, b.inclusive }

// Inclusive reports whether the bound includes its key; meaningless for
// unbounded bounds.
func (b Bound) Inclusive() bool { return b.inclusive }

// cursorFrame is one level of a cursor's descent: node plus the index
// of the next item to yield there.
type cursorFrame[K, V any] struct {
	node *btreeNode[K, V]
	idx  int
}

// Cursor iterates a Tree in ascending key order, one item per Next
// call. The zero value is not usable; obtain cursors from Tree.Cursor.
type Cursor[K, V any] struct {
	stack []cursorFrame[K, V]
	buf   [8]cursorFrame[K, V] // inline storage: tree heights stay tiny
}

// descendFirst pushes the path to the leftmost leaf of the subtree.
func (c *Cursor[K, V]) descendFirst(n *btreeNode[K, V]) {
	for {
		c.stack = append(c.stack, cursorFrame[K, V]{node: n})
		if n.leaf() {
			return
		}
		n = n.children[0]
	}
}

// Next returns the next item in key order.
func (c *Cursor[K, V]) Next() (Entry[K, V], bool) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		n := top.node
		if n.leaf() {
			if top.idx < len(n.items) {
				it := n.items[top.idx]
				top.idx++
				return it, true
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		if top.idx < len(n.items) {
			it := n.items[top.idx]
			top.idx++
			// top may be invalidated by the appends in descendFirst;
			// capture the child before growing the stack.
			child := n.children[top.idx]
			c.descendFirst(child)
			return it, true
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	return Entry[K, V]{}, false
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	removed := t.remove(t.root, key)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if removed {
		t.size--
		if t.size == 0 {
			t.root = nil
		}
	}
	return removed
}

func (t *Tree[K, V]) remove(n *btreeNode[K, V], key K) bool {
	i, found := t.find(n, key)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor (max of left child) then remove it.
		child := n.growChildIfNeeded(i)
		i, found = t.find(n, key)
		if !found {
			return t.remove(child, key)
		}
		left := n.children[i]
		pred := left.max()
		n.items[i] = pred
		return t.remove(left, pred.Key) // pred removal never misses
	}
	child := n.growChildIfNeeded(i)
	return t.remove(child, key)
}

// growChildIfNeeded ensures the child the removal will descend into can
// lose an item, borrowing from siblings or merging: it has more than
// minItems, or — a right-spine node, which may hold fewer — one more
// than it had. It returns the child to descend into (which may have
// changed due to merging).
func (n *btreeNode[K, V]) growChildIfNeeded(i int) *btreeNode[K, V] {
	if i > len(n.items) {
		i = len(n.items)
	}
	child := n.children[i]
	if len(child.items) > minItems {
		return child
	}
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].items) > minItems {
		left := n.children[i-1]
		child.items = append(child.items, Entry[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return child
	}
	// Borrow from right sibling.
	if i < len(n.items) && len(n.children[i+1].items) > minItems {
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return child
	}
	// Merge with a sibling.
	if i == len(n.items) {
		i-- // merge into left sibling instead
		child = n.children[i]
	}
	right := n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	child.children = append(child.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	return child
}

func (n *btreeNode[K, V]) max() Entry[K, V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}
