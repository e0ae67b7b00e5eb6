package lsm

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Frame slab recycling.
//
// A routed frame's slab (Dataset.UpsertFrame) is the memtable's own
// storage for its records: entries alias it, and a flush copies it into
// a run file. Once that flush has swapped the memtable for its run, only
// a reader could still alias the slab. Two readers hand out views of a
// memtable's bytes: Partition.Get, of the memtable and of every frozen
// tree, and Snapshot, which freezes first and so covers every reader
// that goes through one (cursors, index scans, parallel scans,
// enrichment state). Each marks the trees it may show a reader escaped
// (frameSlabs). The write path's own lookups (getLocked) and the index
// back-fill read under p.mu and keep copies, so they mark nothing.
//
// The flush of a memtable no reader saw hands its slabs to the
// partition's free list (slabList), overwritten with recycledByte, so a
// view that outlived its memtable unnoticed fails to decode instead of
// reading other records; Dataset.Slab serves the next routed frames from
// it. An escaped memtable's slabs, and every other batch buffer (an
// encodeBatch copy, a WAL segment replay read), stay with the garbage
// collector.

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

// slabList is a partition's free frame slabs, ordered by capacity. It
// holds about MemBudget bytes of capacity — one memtable's worth, what
// the next memtable needs — and is emptied at Close. Its own mutex
// guards it, so producers taking slabs do not wait on p.mu. It is not a
// sync.Pool: slabs come back once per flush, and a collection between
// two flushes would empty a pool.
type slabList struct {
	mu    sync.Mutex
	slabs [][]byte // by ascending capacity
	bytes int      // their summed capacity
	// hits counts the slabs get handed out (Stats.RecycledSlabs).
	hits uint64
}

// slabSlack is how much larger than asked a recycled slab may be, as a
// share of the request: the memtable is charged a slab's capacity, so a
// larger one would hold room its frame may not use.
const slabSlack = 4 // n + n/slabSlack

// get takes the smallest free slab of n to n+n/slabSlack bytes, empty,
// or returns nil when there is none.
func (l *slabList) get(n int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, _ := slices.BinarySearchFunc(l.slabs, n, func(s []byte, n int) int { return cap(s) - n })
	if i == len(l.slabs) || cap(l.slabs[i]) > n+n/slabSlack {
		return nil
	}
	s := l.slabs[i]
	l.slabs = slices.Delete(l.slabs, i, i+1)
	l.bytes -= cap(s)
	l.hits++
	return s[:0]
}

// put overwrites the slabs of a flushed memtable no reader saw, outside
// the lock, and keeps them while the list holds less than limit bytes;
// the rest are left to the garbage collector. Every slab is overwritten,
// kept or not, so a missed escape reads recycledByte either way. A
// memtable's slabs may hold a little more than its budget — it freezes
// at the frame that crosses it — so the list keeps that frame's slab too.
func (l *slabList) put(slabs [][]byte, limit int) {
	for _, s := range slabs {
		overwrite(s[:cap(s)])
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range slabs {
		if l.bytes >= limit {
			break
		}
		i, _ := slices.BinarySearchFunc(l.slabs, cap(s), func(s []byte, n int) int { return cap(s) - n })
		l.slabs = slices.Insert(l.slabs, i, s)
		l.bytes += cap(s)
	}
}

// drop empties the list: a closed partition takes no more frames.
func (l *slabList) drop() {
	l.mu.Lock()
	l.slabs, l.bytes = nil, 0
	l.mu.Unlock()
}

// recycled reports how many slabs the list has handed out.
func (l *slabList) recycled() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits
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
// p: a recycled one when the free list has one that fits, else a fresh
// one.
func (p *Partition) slab(n int) []byte {
	if s := p.free.get(n); s != nil {
		return s
	}
	return make([]byte, 0, n)
}

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
