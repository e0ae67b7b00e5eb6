package lsm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Frame slab and memtable node recycling.
//
// A routed frame's slab (Dataset.UpsertFrame) is the memtable's own
// storage for its records: entries alias it, and a flush copies it into
// a run file. Once that flush has swapped the memtable for its run, only
// a reader could still alias the slab, or hold the tree whose nodes
// point into it. Two readers hand out views of a memtable's bytes:
// Partition.Get, of the memtable and of every frozen tree, and Snapshot,
// which freezes first and keeps the frozen trees, and so covers every
// reader that goes through one (cursors, index scans, parallel scans,
// enrichment state). Each marks the trees it may show a reader escaped
// (frameSlabs). The write path's own lookups (getLocked) and the index
// back-fill read under p.mu and keep copies, so they mark nothing.
//
// The flush of a memtable no reader saw hands its slabs to the
// partition's free list (slabList), overwritten with recycledByte, so a
// view that outlived its memtable unnoticed fails to decode instead of
// reading other records, and its tree's nodes, cleared, to the
// partition's node list (index.Nodes), which the next memtables take
// their nodes from. Dataset.Slab serves the next routed frames from the
// slab list. Every slab of a partition has one size, so a flushed
// memtable's slabs fit the next memtable's frames: a memtable's memory
// is a budget its flush hands back. An escaped memtable's slabs and
// nodes, and every other batch buffer (an encodeBatch copy, a WAL
// segment replay read), stay with the garbage collector.

// frameSlabs are the routed frame slabs one memtable keeps, and whether
// a reader may ever have held a view of them (escaped). A memtable gets
// one with its first slab; a frozen component keeps it.
type frameSlabs struct {
	slabs   [][]byte
	escaped atomic.Bool
}

// escape marks s's slabs as seen by a reader, for good. It is safe under
// p.mu held for reading, and on a nil s (a memtable with no slab).
func (s *frameSlabs) escape() {
	if s != nil && !s.escaped.Load() {
		s.escaped.Store(true)
	}
}

// slabList is a partition's free frame slabs. Every slab it hands out
// has one capacity, size: the largest frame asked for so far, rounded up
// to an allocator size class (whose spare bytes the frame may as well
// use). It grows when a frame outgrows it and never shrinks, so every
// free slab fits every request and the list is a plain stack. It keeps
// up to the limit a flush passes (put), about what is live at once —
// the memtable filling, the one being flushed and the frames in flight
// — and is emptied at Close. Its own mutex guards it, so producers
// taking slabs do not wait on p.mu. It is not a sync.Pool: slabs come
// back once per flush, and a collection between two flushes would empty
// a pool.
type slabList struct {
	mu    sync.Mutex
	size  int
	slabs [][]byte // each of capacity size
	// hits and misses count the slabs get handed out from the list and
	// the ones it allocated (Stats.RecycledSlabs, FreshSlabs).
	hits, misses uint64
}

// get takes a free slab of at least n bytes, empty, or allocates one. A
// request larger than size raises size, and the slabs on the list, now
// too small, go to the garbage collector.
func (l *slabList) get(n int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.size {
		s := slices.Grow([]byte(nil), n) // capacity: n's size class
		l.size, l.slabs = cap(s), nil
		l.misses++
		return s
	}
	k := len(l.slabs)
	if k == 0 {
		l.misses++
		return make([]byte, 0, l.size)
	}
	s := l.slabs[k-1]
	l.slabs[k-1] = nil
	l.slabs = l.slabs[:k-1]
	l.hits++
	return s
}

// put overwrites the slabs of a flushed memtable no reader saw, outside
// the lock, and keeps those of the list's size while it holds less than
// limit bytes; the rest are left to the garbage collector. Every slab is
// overwritten, kept or not, so a missed escape reads recycledByte either
// way.
func (l *slabList) put(slabs [][]byte, limit int) {
	for _, s := range slabs {
		overwrite(s[:cap(s)])
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range slabs {
		if cap(s) == l.size && len(l.slabs)*l.size < limit {
			l.slabs = append(l.slabs, s[:0])
		}
	}
}

// drop empties the list: a closed partition takes no more frames.
func (l *slabList) drop() {
	l.mu.Lock()
	l.slabs = nil
	l.mu.Unlock()
}

// counts reports how many slabs the list has handed out and how many it
// allocated.
func (l *slabList) counts() (recycled, fresh uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

// overwrite fills b with recycledByte, so a view left over the bytes
// fails to decode.
func overwrite(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = recycledByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// slab returns an empty slab of at least n bytes for a frame routed to
// p, of the partition's one slab size: a recycled one when the free list
// has one, else a fresh one.
func (p *Partition) slab(n int) []byte { return p.free.get(n) }

// keepSlabLocked records that the memtable keeps enc, a routed frame's
// slab.
func (p *Partition) keepSlabLocked(enc []byte) {
	if p.slabs == nil {
		p.slabs = new(frameSlabs)
	}
	p.slabs.slabs = append(p.slabs.slabs, enc)
}

// escapeTreesLocked marks the memtable and every frozen tree escaped:
// Partition.Get may hand a reader a view of any of them.
func (p *Partition) escapeTreesLocked() {
	p.slabs.escape()
	for _, c := range p.components {
		if c.run != nil {
			break // the tree-backed components are the newest
		}
		c.slabs.escape()
	}
}
