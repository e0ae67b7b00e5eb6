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
// point lookups still binary-search within a node.
const btreeDegree = 64

// Item is one key/value pair stored in a B-tree.
type Item struct {
	Key adm.Value
	Val adm.Value
}

type btreeNode struct {
	items    []Item
	children []*btreeNode // len(children) == len(items)+1, or 0 for leaves
}

// BTree is an in-memory B-tree over ADM values ordered by adm.Compare.
// Keys are unique: Put replaces the value of an existing key.
type BTree struct {
	root *btreeNode
	size int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{} }

// poolItemCap is the canonical item-array capacity for pooled nodes:
// maxItems plus one slot of headroom so an in-place merge of a single
// item never reallocates.
const poolItemCap = maxItems + 1

// nodePool recycles the node structs and canonical-capacity item arrays
// that deletes retire (releaseNode). Children arrays are not pooled
// (internal nodes are 1/64th of the tree); item arrays grown past the
// canonical capacity mid-batch are dropped for the GC at release.
var nodePool sync.Pool

func newNode() *btreeNode {
	n, _ := nodePool.Get().(*btreeNode)
	if n == nil {
		n = &btreeNode{}
	}
	if n.items == nil {
		n.items = make([]Item, 0, poolItemCap)
	}
	return n
}

// releaseNode returns a dead node to the pool. The caller guarantees
// nothing references the node; its item array is cleared to full
// capacity so pooled storage never pins record payloads.
func releaseNode(n *btreeNode) {
	if cap(n.items) == poolItemCap {
		full := n.items[:poolItemCap]
		clear(full)
		n.items = full[:0]
	} else {
		n.items = nil
	}
	n.children = nil
	nodePool.Put(n)
}

// Len returns the number of stored items.
func (t *BTree) Len() int { return t.size }

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// find locates key in the node's items: returns the index of the first
// item >= key and whether it is an exact match.
func (n *btreeNode) find(key adm.Value) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if adm.Less(n.items[mid].Key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && adm.Compare(n.items[lo].Key, key) == 0 {
		return lo, true
	}
	return lo, false
}

const maxItems = 2*btreeDegree - 1
const minItems = btreeDegree - 1

// Get returns the value stored under key.
func (t *BTree) Get(key adm.Value) (adm.Value, bool) {
	n := t.root
	for n != nil {
		i, ok := n.find(key)
		if ok {
			return n.items[i].Val, true
		}
		if n.leaf() {
			return adm.Value{}, false
		}
		n = n.children[i]
	}
	return adm.Value{}, false
}

// Put inserts key/val, replacing any previous value for key. It reports
// whether an existing item was replaced.
func (t *BTree) Put(key, val adm.Value) bool {
	if t.root == nil {
		n := newNode()
		n.items = append(n.items, Item{key, val})
		t.root = n
		t.size = 1
		return false
	}
	if len(t.root.items) >= maxItems {
		mid, right := t.root.split(maxItems / 2)
		parent := newNode()
		parent.items = append(parent.items, mid)
		parent.children = append(parent.children, t.root, right)
		t.root = parent
	}
	replaced := t.root.insert(key, val)
	if !replaced {
		t.size++
	}
	return replaced
}

// split divides the node at item index i, returning the promoted item
// and the new right sibling.
func (n *btreeNode) split(i int) (Item, *btreeNode) {
	mid := n.items[i]
	right := newNode()
	right.items = append(right.items, n.items[i+1:]...)
	clear(n.items[i:]) // don't pin the moved items through n's array
	n.items = n.items[:i]
	if !n.leaf() {
		right.children = append(right.children, n.children[i+1:]...)
		clear(n.children[i+1:])
		n.children = n.children[:i+1]
	}
	return mid, right
}

// insert adds key/val into the subtree rooted at n, which is guaranteed
// non-full. Reports whether an existing key was replaced.
func (n *btreeNode) insert(key, val adm.Value) bool {
	i, found := n.find(key)
	if found {
		n.items[i].Val = val
		return true
	}
	if n.leaf() {
		n.items = append(n.items, Item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = Item{key, val}
		return false
	}
	if len(n.children[i].items) >= maxItems {
		mid, right := n.children[i].split(maxItems / 2)
		n.items = append(n.items, Item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = mid
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		switch c := adm.Compare(key, mid.Key); {
		case c == 0:
			n.items[i].Val = val
			return true
		case c > 0:
			i++
		}
	}
	return n.children[i].insert(key, val)
}

// PutBatch merges run — ascending by key, with unique keys — into the
// tree. Where Put pays one root-to-leaf descent per item, PutBatch
// descends once per leaf run: consecutive keys bound for the same leaf
// are merged into it in a single pass, and nodes that overflow are
// split into however many siblings they need in one step. Existing keys
// are replaced in place. onNew, when non-nil, is invoked for each item
// that created a new entry rather than replacing one (the LSM memtable
// uses it for byte accounting without a per-item pre-lookup). A run
// that is unsorted or contains duplicate keys corrupts the tree.
func (t *BTree) PutBatch(run []Item, onNew func(Item)) {
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
		t.root = newNode()
	}
	t.size += t.root.insertBatch(run, onNew)
	// The root may come back overfull; split it into as many levels as
	// the batch requires.
	for len(t.root.items) > maxItems {
		promoted, siblings := splitOverfull(t.root)
		nr := newNode()
		nr.items = append(nr.items, promoted...)
		nr.children = make([]*btreeNode, 0, len(siblings)+1)
		nr.children = append(nr.children, t.root)
		nr.children = append(nr.children, siblings...)
		t.root = nr
	}
}

// insertBatch merges the sorted run into the subtree rooted at n and
// returns the number of newly created entries. The node may be left
// overfull (more than maxItems items); the caller splits it via
// splitOverfull.
func (n *btreeNode) insertBatch(run []Item, onNew func(Item)) int {
	if n.leaf() {
		return n.mergeLeaf(run, onNew)
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
		c, exact := n.find(run[i].Key)
		if exact {
			n.items[c].Val = run[i].Val
			i++
			continue
		}
		j := i + 1
		for j < len(run) && (c >= len(n.items) || adm.Less(run[j].Key, n.items[c].Key)) {
			j++
		}
		segs = append(segs, segment{child: c, lo: i, hi: j})
		i = j
	}
	inserted := 0
	for k := len(segs) - 1; k >= 0; k-- {
		s := segs[k]
		child := n.children[s.child]
		inserted += child.insertBatch(run[s.lo:s.hi], onNew)
		if len(child.items) > maxItems {
			promoted, siblings := splitOverfull(child)
			n.items = slices.Insert(n.items, s.child, promoted...)
			n.children = slices.Insert(n.children, s.child+1, siblings...)
		}
	}
	return inserted
}

// mergeLeaf merges the sorted run into the leaf's sorted items in one
// backward pass, returning the number of newly inserted items. The leaf
// may be left overfull.
func (n *btreeNode) mergeLeaf(run []Item, onNew func(Item)) int {
	// Count the keys not already present to size the tail extension.
	newCount := 0
	i, j := 0, 0
	for i < len(n.items) && j < len(run) {
		switch c := adm.Compare(n.items[i].Key, run[j].Key); {
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
			at, _ := n.find(it.Key)
			n.items[at].Val = it.Val
		}
		return 0
	}
	old := len(n.items)
	n.items = slices.Grow(n.items, newCount)[:old+newCount]
	// Merge from the back so existing items shift right exactly once.
	i, j = old-1, len(run)-1
	for w := old + newCount - 1; j >= 0; w-- {
		if i >= 0 {
			switch c := adm.Compare(n.items[i].Key, run[j].Key); {
			case c > 0:
				n.items[w] = n.items[i]
				i--
				continue
			case c == 0:
				// Replacement keeps the existing key header, like Put.
				n.items[w] = Item{n.items[i].Key, run[j].Val}
				i--
				j--
				continue
			}
		}
		n.items[w] = run[j]
		if onNew != nil {
			onNew(run[j])
		}
		j--
	}
	return newCount
}

// splitOverfull splits a node holding more than maxItems into as many
// nodes as it needs in one pass: n keeps the leftmost chunk and each
// further chunk becomes a new right sibling, with promoted[k]
// separating siblings[k] from what precedes it. Every resulting node
// holds between minItems and maxItems items, so B-tree invariants need
// no further rebalancing. The single pass matters: chaining ordinary
// binary splits would re-copy the remaining tail once per split, going
// quadratic exactly when a large sorted run lands in one leaf.
//
// Each sibling copies its chunk into a singly-owned (pool-drawn) array
// rather than aliasing the overfull node's storage: single ownership is
// the precondition for releaseNode recycling nodes, and the copy is part
// of the same linear pass, so the anti-quadratic property is unchanged.
func splitOverfull(n *btreeNode) (promoted []Item, siblings []*btreeNode) {
	items := n.items
	children := n.children
	const chunk = maxItems / 2 // half-full, like an ordinary split
	est := len(items) / (chunk + 1)
	promoted = make([]Item, 0, est)
	siblings = make([]*btreeNode, 0, est)
	pos := chunk
	for pos < len(items) {
		promoted = append(promoted, items[pos])
		pos++
		size := chunk
		if rem := len(items) - pos; rem <= maxItems {
			size = rem // the final sibling takes the whole remainder
		}
		s := newNode()
		s.items = append(s.items, items[pos:pos+size]...)
		if len(children) > 0 {
			s.children = append(s.children, children[pos:pos+size+1]...)
		}
		siblings = append(siblings, s)
		pos += size
	}
	// n keeps sole ownership of the original (possibly oversized) array,
	// truncated to the leftmost chunk; the moved tail is cleared so it
	// never pins the copied items.
	clear(items[chunk:])
	n.items = items[:chunk]
	if len(children) > 0 {
		clear(children[chunk+1:])
		n.children = children[:chunk+1]
	}
	return promoted, siblings
}

// Cursor returns a pull iterator positioned before the smallest item.
// It walks the tree in key order without materializing items into a
// slice — the read path for frozen LSM memtables and streaming query
// scans. The tree must not be mutated while the cursor is in use.
func (t *BTree) Cursor() *Cursor {
	c := &Cursor{}
	c.stack = c.buf[:0]
	if t.root != nil {
		c.descendFirst(t.root)
	}
	return c
}

// Bound is one end of a key range for bounded cursors. The zero value
// is unbounded (no constraint at that end).
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

// CursorRange returns a cursor over the items within the bound pair, in
// ascending key order. Unlike CursorAt plus a caller-side check, the
// upper bound stops the walk inside the tree: a range predicate over a
// large index touches one descent plus the in-range leaves, never the
// tail of the tree.
func (t *BTree) CursorRange(lo, hi Bound) *Cursor {
	var c *Cursor
	if lo.set {
		c = t.CursorAt(lo.key)
		if !lo.inclusive {
			c.skip, c.skipSet = lo.key, true
		}
	} else {
		c = t.Cursor()
	}
	c.hi = hi
	return c
}

// CursorAt returns a cursor positioned before the first item whose key
// is >= from.
func (t *BTree) CursorAt(from adm.Value) *Cursor {
	c := &Cursor{}
	c.stack = c.buf[:0]
	n := t.root
	for n != nil {
		i, ok := n.find(from)
		c.stack = append(c.stack, cursorFrame{node: n, idx: i})
		if ok || n.leaf() {
			break
		}
		// The next item at this node comes after the subtree we are
		// descending into; idx already points at it.
		n = n.children[i]
	}
	// A leaf frame may be positioned past its last item; Next pops
	// exhausted frames itself.
	return c
}

// cursorFrame is one level of a cursor's descent: node plus the index
// of the next item to yield there.
type cursorFrame struct {
	node *btreeNode
	idx  int
}

// Cursor iterates a BTree in ascending key order, one item per Next
// call. The zero value is not usable; obtain cursors from
// BTree.Cursor/CursorAt/CursorRange.
type Cursor struct {
	stack []cursorFrame
	buf   [8]cursorFrame // inline storage: tree heights stay tiny

	hi      Bound     // upper bound; zero value = unbounded
	skip    adm.Value // exclusive lower bound to swallow once
	skipSet bool
}

// descendFirst pushes the path to the leftmost leaf of the subtree.
func (c *Cursor) descendFirst(n *btreeNode) {
	for {
		c.stack = append(c.stack, cursorFrame{node: n})
		if n.leaf() {
			return
		}
		n = n.children[0]
	}
}

// Next returns the next item in key order (within the cursor's bounds,
// for bounded cursors).
func (c *Cursor) Next() (Item, bool) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		n := top.node
		if n.leaf() {
			if top.idx < len(n.items) {
				it := n.items[top.idx]
				top.idx++
				return c.emit(it)
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
			return c.emit(it)
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
	return Item{}, false
}

// emit applies the cursor's range bounds to a candidate item: it
// swallows the exclusive lower bound key (at most once — keys are
// unique) and exhausts the cursor at the first item past the upper
// bound.
func (c *Cursor) emit(it Item) (Item, bool) {
	if c.skipSet {
		c.skipSet = false
		if adm.Compare(it.Key, c.skip) == 0 {
			return c.Next()
		}
	}
	if c.hi.set {
		if cmp := adm.Compare(it.Key, c.hi.key); cmp > 0 || (cmp == 0 && !c.hi.inclusive) {
			c.stack = c.stack[:0]
			return Item{}, false
		}
	}
	return it, true
}

// Delete removes key, reporting whether it was present.
func (t *BTree) Delete(key adm.Value) bool {
	if t.root == nil {
		return false
	}
	removed := t.root.remove(key)
	if len(t.root.items) == 0 && !t.root.leaf() {
		old := t.root
		t.root = t.root.children[0]
		old.children = nil // keep the promoted child out of the release
		releaseNode(old)
	}
	if removed {
		t.size--
		if t.size == 0 {
			releaseNode(t.root)
			t.root = nil
		}
	}
	return removed
}

func (n *btreeNode) remove(key adm.Value) bool {
	i, found := n.find(key)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor (max of left child) then remove it.
		child := n.growChildIfNeeded(i, key)
		i, found = n.find(key)
		if !found {
			return child.remove(key)
		}
		left := n.children[i]
		pred := left.max()
		n.items[i] = pred
		return left.remove(pred.Key) // pred removal never misses
	}
	child := n.growChildIfNeeded(i, key)
	return child.remove(key)
}

// growChildIfNeeded ensures the child the removal will descend into has
// more than minItems, borrowing from siblings or merging. It returns the
// child to descend into (which may have changed due to merging).
func (n *btreeNode) growChildIfNeeded(i int, key adm.Value) *btreeNode {
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
		child.items = append(child.items, Item{})
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
	right.children = nil // contents were copied into child; recycle the shell
	releaseNode(right)
	return child
}

func (n *btreeNode) max() Item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}
