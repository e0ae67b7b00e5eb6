package lsm

import (
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/spatial"
)

// SecondaryIndex is a per-partition index maintained synchronously on
// the write path (AsterixDB's local secondary indexes). It is handed
// batches in the shape the partition's own write path holds them:
// items whose Key is a record's primary key and whose Val is the
// record. The probe surface is type-specific; callers type-assert to
// *RTreeIndex or *BTreeIndex.
type SecondaryIndex interface {
	// Name is the index name from CREATE INDEX.
	Name() string
	// InsertBatch adds an entry for every item under a single lock
	// acquisition — the write path's grouped maintenance. The index may
	// keep the items' keys and records, not the slice.
	InsertBatch(items []index.Item)
	// DeleteBatch removes the entry previously inserted for every item
	// (primary key, old record) under a single lock acquisition.
	DeleteBatch(items []index.Item)
}

// RectExtractor derives the indexed bounding rectangle from a record
// (e.g. the rect of a point field). ok=false skips the record.
type RectExtractor func(rec adm.Value) (spatial.Rect, bool)

// FieldRectExtractor indexes a top-level spatial field: points index as
// degenerate rects, rectangles as themselves, circles as their bounds.
func FieldRectExtractor(field string) RectExtractor {
	return func(rec adm.Value) (spatial.Rect, bool) {
		v := rec.Field(field)
		switch v.Kind() {
		case adm.KindPoint:
			x, y := v.PointVal()
			return spatial.BoundsPoint(spatial.Point{X: x, Y: y}), true
		case adm.KindRectangle:
			x1, y1, x2, y2 := v.RectVal()
			return spatial.NewRect(x1, y1, x2, y2), true
		case adm.KindCircle:
			cx, cy, r := v.CircleVal()
			return spatial.Circle{Center: spatial.Point{X: cx, Y: cy}, R: r}.Bounds(), true
		}
		return spatial.Rect{}, false
	}
}

// RTreeIndex is a spatial secondary index: rect(record) → primary key.
// Probes run concurrently with maintenance; an RWMutex arbitrates, which
// is precisely the contention the paper's update experiment measures on
// its index-join use case.
type RTreeIndex struct {
	name    string
	extract RectExtractor

	mu   sync.RWMutex
	tree *index.RTree
}

// NewRTreeIndex returns an empty spatial index over extract.
func NewRTreeIndex(name string, extract RectExtractor) *RTreeIndex {
	return &RTreeIndex{name: name, extract: extract, tree: index.NewRTree()}
}

// Name implements SecondaryIndex.
func (ix *RTreeIndex) Name() string { return ix.name }

// InsertBatch implements SecondaryIndex: one lock for the whole frame.
func (ix *RTreeIndex) InsertBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	ix.mu.Lock()
	for _, it := range items {
		if rect, ok := ix.extract(it.Val); ok {
			ix.tree.Insert(rect, it.Key)
		}
	}
	ix.mu.Unlock()
}

// DeleteBatch implements SecondaryIndex: one lock for the whole frame.
func (ix *RTreeIndex) DeleteBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	ix.mu.Lock()
	for _, it := range items {
		if rect, ok := ix.extract(it.Val); ok {
			ix.tree.Delete(rect, func(d any) bool {
				v, isVal := d.(adm.Value)
				return isVal && adm.Equal(v, it.Key)
			})
		}
	}
	ix.mu.Unlock()
}

// Search returns the primary keys of records whose indexed rect
// intersects query.
func (ix *RTreeIndex) Search(query spatial.Rect) []adm.Value {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var pks []adm.Value
	ix.tree.Search(query, func(e index.RTreeEntry) bool {
		pks = append(pks, e.Data.(adm.Value))
		return true
	})
	return pks
}

// KeyExtractor derives the indexed key from a record. ok=false skips the
// record (e.g. the field is missing).
type KeyExtractor func(rec adm.Value) (adm.Value, bool)

// FieldKeyExtractor indexes a top-level field by value. The index keeps
// the value for good, so it must keep nothing else alive: a string
// field of a stored record, or a string inside an array or object
// field, aliases the record's block or batch buffer (adm.ViewAlias), so
// the key is a detached deep copy.
func FieldKeyExtractor(field string) KeyExtractor {
	return func(rec adm.Value) (adm.Value, bool) {
		v := rec.Field(field)
		if v.IsUnknown() {
			return adm.Value{}, false
		}
		return v.Detached(), true
	}
}

// BTreeIndex is an ordered secondary index: key(record) → set of primary
// keys (duplicates allowed across records).
//
// A key's primary keys are one postings array, and a published postings
// array is never written: InsertBatch and deleteGroupLocked always build
// a new array and Put it in the old one's place. So a reader may keep
// the arrays LookupRangeBounds hands out past the read lock, and they
// still hold exactly what the index held at that instant.
type BTreeIndex struct {
	name    string
	extract KeyExtractor

	mu   sync.RWMutex
	tree *index.BTree // key → adm array of pks
}

// NewBTreeIndex returns an empty ordered index over extract.
func NewBTreeIndex(name string, extract KeyExtractor) *BTreeIndex {
	return &BTreeIndex{name: name, extract: extract, tree: index.NewBTree()}
}

// Name implements SecondaryIndex.
func (ix *BTreeIndex) Name() string { return ix.name }

// groupPairs extracts the secondary key of every item's record and
// returns the (key, pk) pairs sorted by key (stable, so pk order within
// a key matches item order). The batch box comes from the shared
// item-batch pool; the caller returns it with itemBatches.put after
// restoring the written length.
func (ix *BTreeIndex) groupPairs(items []index.Item) (*[]index.Item, []index.Item) {
	batch := itemBatches.get(len(items))
	pairs := *batch
	for _, it := range items {
		if key, ok := ix.extract(it.Val); ok {
			pairs = append(pairs, index.Item{Key: key, Val: it.Key})
		}
	}
	slices.SortStableFunc(pairs, func(a, b index.Item) int {
		return adm.Compare(a.Key, b.Key)
	})
	return batch, pairs
}

// InsertBatch implements SecondaryIndex: one lock for the whole frame,
// and — because entries are grouped by secondary key — one postings
// rebuild per distinct key instead of one per record. For
// low-cardinality keys (every tweet sharing a language) a batch of one
// re-copies the whole postings array per record; a frame copies it once.
func (ix *BTreeIndex) InsertBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	batch, pairs := ix.groupPairs(items)
	ix.mu.Lock()
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && adm.Compare(pairs[i].Key, pairs[j].Key) == 0 {
			j++
		}
		cur, _ := ix.tree.Get(pairs[i].Key)
		elems := cur.ArrayVal()
		out := make([]adm.Value, 0, len(elems)+(j-i))
		out = append(out, elems...)
		for k := i; k < j; k++ {
			out = append(out, pairs[k].Val)
		}
		ix.tree.Put(pairs[i].Key, adm.Array(out))
		i = j
	}
	ix.mu.Unlock()
	*batch = pairs
	itemBatches.put(batch)
}

// DeleteBatch implements SecondaryIndex: one lock for the whole frame
// and one postings rebuild per distinct key, removing one occurrence
// per (key, pk) pair.
func (ix *BTreeIndex) DeleteBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	batch, pairs := ix.groupPairs(items)
	ix.mu.Lock()
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && adm.Compare(pairs[i].Key, pairs[j].Key) == 0 {
			j++
		}
		ix.deleteGroupLocked(pairs[i].Key, pairs[i:j])
		i = j
	}
	ix.mu.Unlock()
	*batch = pairs
	itemBatches.put(batch)
}

// deleteGroupLocked removes one postings occurrence per pair (all pairs
// share the key) in a single rebuild of the postings array.
func (ix *BTreeIndex) deleteGroupLocked(key adm.Value, pairs []index.Item) {
	cur, found := ix.tree.Get(key)
	if !found {
		return
	}
	elems := cur.ArrayVal()
	out := make([]adm.Value, 0, len(elems))
	remaining := len(pairs)
	for _, e := range elems {
		if remaining > 0 {
			matched := false
			for k := range pairs {
				// Consumed pairs are marked by blanking their key
				// (extract never yields MISSING keys).
				if !pairs[k].Key.IsMissing() && adm.Equal(e, pairs[k].Val) {
					pairs[k].Key = adm.Missing()
					remaining--
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		ix.tree.Delete(key)
	} else {
		ix.tree.Put(key, adm.Array(out))
	}
}

// LookupRangeBounds appends to dst the postings array of every
// secondary key within the bound pair (either end may be unbounded or
// exclusive), in key order, walking only the in-range portion of the
// tree via a bounded cursor. The arrays are the index's own, not
// copies: a published postings array is never written (see BTreeIndex),
// so the caller may read them after this call returns — resolving the
// keys against the primary store without holding the index lock, which
// keeps the index-lock → partition-lock order out of the read path
// entirely — and they stay the postings of the instant of the call
// whatever the index is given afterwards. The caller must not write
// them.
func (ix *BTreeIndex) LookupRangeBounds(lo, hi index.Bound, dst [][]adm.Value) [][]adm.Value {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cur := ix.tree.CursorRange(lo, hi)
	for {
		it, ok := cur.Next()
		if !ok {
			return dst
		}
		dst = append(dst, it.Val.ArrayVal())
	}
}

var (
	_ SecondaryIndex = (*RTreeIndex)(nil)
	_ SecondaryIndex = (*BTreeIndex)(nil)
)
