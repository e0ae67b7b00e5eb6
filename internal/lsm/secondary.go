package lsm

import (
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
	// acquisition — the write path's grouped maintenance. A key or record
	// may alias a batch's buffer or a run's block, so what the index keeps
	// of them it copies.
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
// The tree keeps each primary key for good, so it keeps a detached copy.
func (ix *RTreeIndex) InsertBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	ix.mu.Lock()
	for _, it := range items {
		if rect, ok := ix.extract(it.Val); ok {
			ix.tree.Insert(rect, it.Key.Detached())
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

// FieldKeyExtractor indexes a top-level field by value. The key may
// alias the record's bytes: the index keeps its encoding, not the key.
func FieldKeyExtractor(field string) KeyExtractor {
	return func(rec adm.Value) (adm.Value, bool) {
		v := rec.Field(field)
		return v, !v.IsUnknown()
	}
}

// BTreeIndex is an ordered secondary index: one entry per indexed
// record, the encodings of its secondary key and of its primary key
// concatenated (sk‖pk) in a string of its own, ordered by the secondary
// key and then by the primary key (compareIndexEntries) — AsterixDB's
// composite [SK, PK] B-tree entry. A write puts or deletes one entry per
// record, O(log n) whatever the number of records under its key, and
// never rewrites an entry's bytes. So a reader may keep the primary keys
// lookupRange hands out, substrings of the entries, past the read lock:
// they are the entries of the instant of the call whatever the index is
// given afterwards.
type BTreeIndex struct {
	name    string
	extract KeyExtractor

	mu   sync.RWMutex
	tree *index.Tree[string, struct{}]
	buf  []byte // scratch an entry is encoded into, under mu
}

// NewBTreeIndex returns an empty ordered index over extract.
func NewBTreeIndex(name string, extract KeyExtractor) *BTreeIndex {
	return &BTreeIndex{name: name, extract: extract, tree: index.New[string, struct{}](compareIndexEntries)}
}

// Name implements SecondaryIndex.
func (ix *BTreeIndex) Name() string { return ix.name }

// splitIndexEntry splits an entry into the encodings of its secondary
// key and its primary key. The entry was encoded by the index itself.
func splitIndexEntry(e string) (sk, pk []byte) {
	b := bytesOf(e)
	n, _ := adm.SkipBinary(b)
	return b[:n], b[n:]
}

// compareIndexEntries orders entries by secondary key, then by primary
// key, each as adm.Compare orders the values they encode: 7 and 7.0 are
// one secondary key.
func compareIndexEntries(a, b string) int {
	ska, pka := splitIndexEntry(a)
	skb, pkb := splitIndexEntry(b)
	if c := adm.CompareEncoded(ska, skb); c != 0 {
		return c
	}
	return adm.CompareEncoded(pka, pkb)
}

// entryLocked encodes the entry of the record rec stored under pk into
// the index's scratch, or reports that the record has no secondary key.
func (ix *BTreeIndex) entryLocked(pk, rec adm.Value) ([]byte, bool) {
	sk, ok := ix.extract(rec)
	if !ok {
		return nil, false
	}
	ix.buf = adm.AppendBinary(adm.AppendBinary(ix.buf[:0], sk), pk)
	return ix.buf, true
}

// InsertBatch implements SecondaryIndex: one lock for the whole frame
// and one entry per record, a string the index allocates for it.
func (ix *BTreeIndex) InsertBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	ix.mu.Lock()
	for _, it := range items {
		if e, ok := ix.entryLocked(it.Key, it.Val); ok {
			ix.tree.Put(string(e), struct{}{})
		}
	}
	ix.mu.Unlock()
}

// DeleteBatch implements SecondaryIndex: one lock for the whole frame
// and one entry deleted per (primary key, old record) item.
func (ix *BTreeIndex) DeleteBatch(items []index.Item) {
	if len(items) == 0 {
		return
	}
	ix.mu.Lock()
	for _, it := range items {
		if e, ok := ix.entryLocked(it.Key, it.Val); ok {
			ix.tree.Delete(stringOf(e))
		}
	}
	ix.mu.Unlock()
}

// keyBound is one end of a secondary-key range as the index compares
// it: the bound's encoding, nil for an unbounded end.
type keyBound struct {
	enc       []byte
	inclusive bool
}

// encodeBound encodes b into dst and returns it as a keyBound, with dst
// grown to hold it.
func encodeBound(dst []byte, b index.Bound) (keyBound, []byte) {
	if b.Unbounded() {
		return keyBound{}, dst
	}
	key, inclusive := b.Key()
	dst = adm.AppendBinary(dst[:0], key)
	return keyBound{enc: dst, inclusive: inclusive}, dst
}

// lookupRange appends to dst the encoded primary key of every entry
// whose secondary key lies within [lo, hi], in entry order (secondary
// key, then primary key). It walks the tree from the first entry past
// the low bound (Tree.AscendFrom, which allocates nothing) and stops at
// the first entry past the high bound, comparing secondary keys only. A
// primary key is a substring of its entry, which nothing rewrites (see
// BTreeIndex), so the caller may read it after this call returns —
// resolving the keys against the primary store without holding the
// index lock, which keeps the index-lock → partition-lock order out of
// the read path entirely.
func (ix *BTreeIndex) lookupRange(lo, hi keyBound, dst []string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var from func(e string) int
	if lo.enc != nil {
		from = func(e string) int {
			sk, _ := splitIndexEntry(e)
			if c := adm.CompareEncoded(sk, lo.enc); c > 0 || c == 0 && lo.inclusive {
				return 1
			}
			return -1
		}
	}
	ix.tree.AscendFrom(from, func(e index.Entry[string, struct{}]) bool {
		sk, _ := splitIndexEntry(e.Key)
		if hi.enc != nil {
			if c := adm.CompareEncoded(sk, hi.enc); c > 0 || c == 0 && !hi.inclusive {
				return false
			}
		}
		dst = append(dst, e.Key[len(sk):])
		return true
	})
	return dst
}

var (
	_ SecondaryIndex = (*RTreeIndex)(nil)
	_ SecondaryIndex = (*BTreeIndex)(nil)
)
