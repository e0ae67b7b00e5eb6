package index

import (
	"github.com/ideadb/idea/internal/spatial"
)

const (
	rtreeMaxEntries = 16
	rtreeMinEntries = 4
)

// RTreeEntry is one spatial item: a bounding rectangle plus an opaque
// payload (typically a record or a primary key).
type RTreeEntry struct {
	Rect spatial.Rect
	Data any
}

type rtreeNode struct {
	leaf     bool
	entries  []RTreeEntry // leaf payloads
	children []*rtreeNode // internal children (parallel to rects)
	rects    []spatial.Rect
}

// RTree is an in-memory R-tree with quadratic split, supporting insert,
// delete, and rectangle-intersection search. It backs persistent spatial
// secondary indexes (Nearby Monuments' index-NLJ) and the transient
// per-batch probe structures built by the enrichment planner.
type RTree struct {
	root *rtreeNode
}

// NewRTree returns an empty R-tree.
func NewRTree() *RTree {
	return &RTree{root: &rtreeNode{leaf: true}}
}

// Insert adds an entry.
func (t *RTree) Insert(rect spatial.Rect, data any) {
	split := t.root.insert(RTreeEntry{rect, data})
	if split != nil {
		old := t.root
		t.root = &rtreeNode{
			leaf:     false,
			children: []*rtreeNode{old, split},
			rects:    []spatial.Rect{old.bounds(), split.bounds()},
		}
	}
}

func (n *rtreeNode) bounds() spatial.Rect {
	var b spatial.Rect
	first := true
	if n.leaf {
		for _, e := range n.entries {
			if first {
				b = e.Rect
				first = false
			} else {
				b = b.Union(e.Rect)
			}
		}
	} else {
		for _, r := range n.rects {
			if first {
				b = r
				first = false
			} else {
				b = b.Union(r)
			}
		}
	}
	return b
}

// insert places e into the subtree; a non-nil return is a new sibling
// produced by splitting.
func (n *rtreeNode) insert(e RTreeEntry) *rtreeNode {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > rtreeMaxEntries {
			return n.splitLeaf()
		}
		return nil
	}
	i := n.chooseSubtree(e.Rect)
	split := n.children[i].insert(e)
	n.rects[i] = n.children[i].bounds()
	if split != nil {
		n.children = append(n.children, split)
		n.rects = append(n.rects, split.bounds())
		if len(n.children) > rtreeMaxEntries {
			return n.splitInternal()
		}
	}
	return nil
}

// chooseSubtree picks the child whose bounds need the least enlargement
// (ties broken by smaller area), the classic Guttman heuristic.
func (n *rtreeNode) chooseSubtree(r spatial.Rect) int {
	best := 0
	bestEnl := n.rects[0].Enlargement(r)
	bestArea := n.rects[0].Area()
	for i := 1; i < len(n.rects); i++ {
		enl := n.rects[i].Enlargement(r)
		area := n.rects[i].Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// quadraticSeeds picks the pair of rectangles wasting the most area when
// grouped, per Guttman's quadratic split.
func quadraticSeeds(rects []spatial.Rect) (int, int) {
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

func (n *rtreeNode) splitLeaf() *rtreeNode {
	entries := n.entries
	rects := make([]spatial.Rect, len(entries))
	for i, e := range entries {
		rects[i] = e.Rect
	}
	g1, g2 := splitGroups(rects)
	sib := &rtreeNode{leaf: true}
	newEntries := make([]RTreeEntry, 0, len(g1))
	for _, i := range g1 {
		newEntries = append(newEntries, entries[i])
	}
	for _, i := range g2 {
		sib.entries = append(sib.entries, entries[i])
	}
	n.entries = newEntries
	return sib
}

func (n *rtreeNode) splitInternal() *rtreeNode {
	g1, g2 := splitGroups(n.rects)
	sib := &rtreeNode{leaf: false}
	newChildren := make([]*rtreeNode, 0, len(g1))
	newRects := make([]spatial.Rect, 0, len(g1))
	for _, i := range g1 {
		newChildren = append(newChildren, n.children[i])
		newRects = append(newRects, n.rects[i])
	}
	for _, i := range g2 {
		sib.children = append(sib.children, n.children[i])
		sib.rects = append(sib.rects, n.rects[i])
	}
	n.children, n.rects = newChildren, newRects
	return sib
}

// splitGroups partitions indexes of rects into two groups using the
// quadratic method, respecting the minimum fill factor.
func splitGroups(rects []spatial.Rect) (g1, g2 []int) {
	s1, s2 := quadraticSeeds(rects)
	g1 = append(g1, s1)
	g2 = append(g2, s2)
	b1, b2 := rects[s1], rects[s2]
	for i := range rects {
		if i == s1 || i == s2 {
			continue
		}
		remaining := len(rects) - len(g1) - len(g2)
		// Force assignment when a group needs every remaining entry to
		// reach the minimum.
		if len(g1)+remaining <= rtreeMinEntries {
			g1 = append(g1, i)
			b1 = b1.Union(rects[i])
			continue
		}
		if len(g2)+remaining <= rtreeMinEntries {
			g2 = append(g2, i)
			b2 = b2.Union(rects[i])
			continue
		}
		e1 := b1.Enlargement(rects[i])
		e2 := b2.Enlargement(rects[i])
		if e1 < e2 || (e1 == e2 && len(g1) <= len(g2)) {
			g1 = append(g1, i)
			b1 = b1.Union(rects[i])
		} else {
			g2 = append(g2, i)
			b2 = b2.Union(rects[i])
		}
	}
	return g1, g2
}

// Search visits every entry whose rectangle intersects query until fn
// returns false.
func (t *RTree) Search(query spatial.Rect, fn func(RTreeEntry) bool) {
	t.root.search(query, fn)
}

func (n *rtreeNode) search(query spatial.Rect, fn func(RTreeEntry) bool) bool {
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect.Intersects(query) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for i, r := range n.rects {
		if r.Intersects(query) {
			if !n.children[i].search(query, fn) {
				return false
			}
		}
	}
	return true
}

// Delete removes one entry with an identical rectangle for which eq
// returns true, reporting whether one was found. The R-tree performs no
// rebalancing on delete (underfull nodes are tolerated), which is the
// usual trade-off for in-memory R-trees with churn.
func (t *RTree) Delete(rect spatial.Rect, eq func(data any) bool) bool {
	return t.root.delete(rect, eq)
}

func (n *rtreeNode) delete(rect spatial.Rect, eq func(any) bool) bool {
	if n.leaf {
		for i, e := range n.entries {
			if e.Rect == rect && eq(e.Data) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				return true
			}
		}
		return false
	}
	for i, r := range n.rects {
		if r.Intersects(rect) {
			if n.children[i].delete(rect, eq) {
				n.rects[i] = n.children[i].bounds()
				return true
			}
		}
	}
	return false
}
