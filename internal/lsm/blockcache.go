package lsm

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// BlockCache caches run-file blocks as their decoded payloads (plus
// an entry-offset table, see block), so warm point lookups and scans
// touch no filesystem and expand no lz stream, and — records being
// handed up as views of those bytes — decode nothing either. An entry
// costs exactly the bytes it holds, so the budget is exact. One cache
// is shared by every partition of a cluster (the budget is a
// deployment-level knob, like a buffer pool), keyed by (run file id,
// block index) — run ids are process-unique, so a retired run's
// entries can never be confused with its successor's.
//
// The cache is sharded to keep the lock off the read hot path's
// profile; each shard keeps its blocks under its own mutex within an
// even split of the byte budget, the way 2Q does (Johnson & Shasha,
// VLDB 1994):
//
//   - hot (2Q's Am), an LRU of the decoded blocks point reads asked for;
//   - ring (2Q's A1in), a FIFO of the decoded blocks scans loaded;
//   - frames (2Q's A1out, keeping its bytes), a FIFO of the frames — the
//     codec byte, body and checksum, as they lie on disk — of every block
//     the shard read from a file (frameStore), in a log bounded at
//     1/ghostShare of the split.
//
// A point hit moves its entry to hot's head, out of the ring if it was
// there. A decoded miss whose frame is resident copies the frame out
// under the shard lock and decodes it as a file read's frame is decoded
// (runFile.decodeFrame: the checksum, the codec, the structure walk): no
// file is read, and the miss counts a frame hit. A point miss enters hot
// while the shard has room for a block of runBlockTarget bytes; once the
// shard is full it enters hot only if the store has a record of it (a
// second touch), and otherwise it is not admitted: fetch loads the block
// into an entry no shard holds, which its reader alone pins (runFile.get
// keeps only its record), and its frame joins the store — its key alone
// when the frame is larger than the store's share. So a one-off point
// read on a full cache allocates no block, and a block read twice while
// its frame is resident replaces hot's coldest without a second file
// read — the records are what lets the hot set change while the cache
// stays full, and the frames, compressed, keep in memory data its
// decoded blocks would overflow. A scan miss joins the ring, whether its
// frame was resident or not; a scan hit moves nothing. So a scan never
// reorders hot, and it displaces hot only while the ring holds no more
// than its share (ringShare) of the shard: past that, a scan evicts the
// ring's own oldest blocks. The ring is what lets concurrent scans of
// the same data share loads — a trailing scan hits the blocks a leading
// one just brought in.
//
// Residency is all the cache decides. The frame store is charged its
// log's length in the shard's bytes, so the budget counts decoded blocks
// and the memory the frames kept beside them lie in. The log grows,
// doubling, to its share and no further: a frame that does not fit then
// overwrites the store's oldest, and a grown log evicts no decoded block
// for a frame. An over-budget insert, of a block or of the log's growth,
// evicts one decoded victim at a time until the shard fits — from the
// ring when the ring holds more than its share or hot is empty, else
// from hot, the coldest block no reader pins (of the other list when
// that one has none) — the block just inserted included when it alone
// exceeds what the log leaves of the split. The budget is enforced at
// admission time, and only a shard over its split evicts, so while there
// is room a scan fills the cache as a point read would.
//
// Where an evicted block's bytes go is decided by its pins. The unit of
// block memory is the entry: every load — a miss, and a point miss the
// cache declined — takes an entry from one pool (entries) and decodes
// into the entry's own buffers. Every reader pins the entry it reads,
// and keeps nothing aliasing the block past the pin, the rule
// AsterixDB's buffer cache keeps for a page frame:
//
//   - a cursor (runFileCursor) pins each block it loads and, once it
//     has moved past the block, hands the pin to its Leases, which
//     its owner releases once nothing reads the block's rows: a
//     Cursor at its next Next or Close, a parallel scan once its
//     consumer has pulled past every row of the block
//     (ParallelScanCursor), the index back-fill after each chunk the
//     index has copied (Partition.AttachIndex);
//   - a point read (runFile.get) copies its one record out and releases
//     the pin, or, given Leases, leaves the pin there for their owner: an
//     index scan releases it when its consumer pulls the next row
//     (IndexScanCursor), an enrichment once its record's row is written
//     (Snapshot.GetLeased). A declined miss's private read is an entry
//     no shard holds, pinned once by its reader.
//
// Each entry keeps a pin count under its shard's lock, and an entry the
// cache has let go of (eviction, dropRun) goes back to the pool whole
// once it is also unpinned — at once, or at its last release — its
// payload overwritten with recycledByte first, so a view that outlived
// its pin fails to decode instead of reading another block's records.
// The next load decodes into it.
//
// Pins steer eviction, not admission: an over-budget shard evicts the
// coldest block no reader pins, so that the entry goes back to the pool
// at once (fit), and a pinned block only when every block is, whose
// bytes' reuse then waits for its last release. The budget counts payload lengths
// (block.size), not the allocator's size classes, whoever loaded a
// block: a fresh payload just over runBlockTarget and a recycled one
// both lie in a buffer of recycledRoom bytes.
type BlockCache struct {
	shardBudget int64
	shards      [blockCacheShards]cacheShard

	hits, scanHits     atomic.Uint64
	misses, scanMisses atomic.Uint64
	bypasses           atomic.Uint64
	evictions          atomic.Uint64
	recycled           atomic.Uint64
	frameHits          atomic.Uint64
}

const blockCacheShards = 8

// An over-budget shard evicts from its scan ring first while the ring
// holds more than 1/ringShare of the shard's split: a quarter, 2Q's
// published default for its probationary queue (Kin = 25 %), not a
// figure tuned to any workload.
const ringShare = 4

// A shard's frame log takes at most 1/ghostShare of its split: half,
// 2Q's published default for its ghost list (Kout = 50 %), again not a
// tuned figure.
const ghostShare = 2

// DefaultBlockCacheBytes is the budget used when a cluster does not set
// one explicitly.
const DefaultBlockCacheBytes = 64 << 20

// CacheStats is a point-in-time snapshot of BlockCache counters. The
// fields carry the cache's name because the snapshot is embedded, as
// is, in the cluster-wide storage snapshot and from there reaches the
// public API and the STATS verb (block_cache_hits, ...).
type CacheStats struct {
	BlockCacheHits      uint64
	BlockCacheMisses    uint64
	BlockCacheEvictions uint64
	// Entries / Bytes gauge the cached population.
	BlockCacheEntries int
	BlockCacheBytes   int64
	// ScanHits / ScanMisses are the share of Hits / Misses that scans
	// made; point reads made the rest.
	BlockCacheScanHits   uint64
	BlockCacheScanMisses uint64
	// Bypasses is the share of point misses a full shard did not admit:
	// each loaded its block into an entry no shard holds, its reader's
	// alone.
	BlockCacheBypasses uint64
	// Recycled counts the block loads that decoded into the memory of a
	// block the cache had let go of (entries) instead of allocating.
	BlockCacheRecycled uint64
	// FrameHits is the share of Misses that decoded a frame the shard
	// kept (frameStore) and read no file.
	BlockCacheFrameHits uint64
	// FrameBytes gauges the share of Bytes that the frame logs take.
	BlockCacheFrameBytes int64
}

// readMode says who reads a block: it decides where a miss is admitted
// and what a hit moves.
type readMode uint8

const (
	// pointRead is runFile.get: hot, admitted while the shard has room
	// or the frame store has a record of the block.
	pointRead readMode = iota
	// cursorRead is a cursor's: the ring, always admitted.
	cursorRead
)

// recycledByte overwrites a recycled payload: no ADM kind has it, so a
// view left over the bytes fails to decode.
const recycledByte = 0xff

// maxRecycled bounds a recycled buffer: the budget charges a block its
// payload's length, so a larger one would hold room no block of
// runBlockTarget bytes uses, uncharged.
const maxRecycled = 2 * runBlockTarget

// recycledRoom is the room a fresh payload just over runBlockTarget is
// decoded into (decodeBlockBody): a writer flushes a block once its
// payload reaches runBlockTarget, so a block of records under 2 KiB
// fits, and a pooled entry that once held such a block fits any such
// block. It is the allocator's size class for payloads just over
// runBlockTarget, so it takes no more memory than a buffer of exactly
// their length does.
const recycledRoom = runBlockTarget + runBlockTarget/8

// blockKey names a block. Run ids start at 1, so the zero key names no
// block.
type blockKey struct {
	run   uint64
	block int
}

// blockEntry is one block in memory, and the unit the cache keeps,
// evicts and recycles: one cached or being loaded, or one a declined
// point miss read privately (no shard, gone from birth). blk and err
// are written once, by the load, before loaded is done. The list links,
// inRing, pins and gone are owned by the shard lock (by the one reader,
// for a private entry).
type blockEntry struct {
	key    blockKey
	shard  *cacheShard
	blk    block
	err    error
	loaded sync.WaitGroup
	// pins counts the pins held on the entry; gone says no cache holds
	// it.
	pins   int32
	gone   bool
	inRing bool

	prev, next *blockEntry
}

// blockList is an intrusive list: entries join at head and leave from
// tail, so it is an LRU when a touched entry moves back to head (hot)
// and a FIFO when nothing moves (ring).
type blockList struct {
	head, tail *blockEntry
}

// cacheShard is one region of the cache: its two lists, its frames, the
// bytes its entries and its frame log take (used) and the ring's alone,
// and the loads in flight.
type cacheShard struct {
	mu       sync.Mutex
	used     int64
	ringUsed int64
	entries  map[blockKey]*blockEntry
	loading  map[blockKey]*blockEntry
	hot      blockList
	ring     blockList
	frames   frameStore
}

// NewBlockCache creates a cache with the given byte budget across all
// shards. Budgets smaller than the shard count are clamped to one byte a
// shard, so no split is zero or negative and eviction always stops, at
// the latest at an empty shard; a split smaller than a block keeps no
// block resident: every block is handed to its reader and recycled at
// its release, and its frame store keeps what of the frames, or of their
// keys, half of it holds — nothing, when that is less than a record's
// header (noCache).
func NewBlockCache(budget int64) *BlockCache {
	if budget < blockCacheShards {
		budget = blockCacheShards
	}
	c := &BlockCache{shardBudget: budget / blockCacheShards}
	for i := range c.shards {
		c.shards[i].entries = make(map[blockKey]*blockEntry)
		c.shards[i].loading = make(map[blockKey]*blockEntry)
	}
	return c
}

func (c *BlockCache) shard(k blockKey) *cacheShard {
	// Runs hold ~dozens of blocks; mixing the block index into the shard
	// choice spreads one hot run across shards.
	return &c.shards[(k.run*31+uint64(k.block))%blockCacheShards]
}

// entries lends every load the entry it decodes into (BlockCache): an
// entry the cache let go of, once unpinned, comes back here whole with
// its buffers, and the next load overwrites them. A pooled entry's
// WaitGroup is idle: every waiter pinned the entry, and released it
// after its Wait returned.
var entries = sync.Pool{New: func() any { return new(blockEntry) }}

// blockSource is what a miss reads a block from: a run file
// (runFile), in two steps, so that the cache keeps the frame between
// them. Both name the run and the block in their errors.
type blockSource interface {
	// readFrame reads block i's frame, as it lies on disk, into buf —
	// grown when it lacks the room — and counts a block read.
	readFrame(i int, buf []byte) ([]byte, error)
	// decodeFrame checks block i's frame and decodes its block into the
	// buffers of reuse when they have the room.
	decodeFrame(i int, frame []byte, reuse block) (block, error)
	// dropped reports whether the run has been dropped (dropRun).
	dropped() bool
}

// fetch returns block i of run: the resident block on a hit, else the
// block load returns, published — into hot for a point read, into the
// ring for a scan. The mode also decides what a hit moves. The reader
// pins the block: lease is the pin, which the reader ends with release
// once nothing it handed up reads the block any more. A block is loaded
// once however many readers miss it together: the first registers its
// load, and the others wait for it and share its block (or its error),
// counted as hits — they read nothing. Readers that each loaded a copy
// would read and allocate the block once each. A miss copies its
// block's frame out of the shard's store when it is resident, and the
// load decodes that copy instead of reading src. A point miss on a full
// shard is admitted when the store has a record of the block, with its
// frame or without; one the shard does not admit registers nothing: its
// entry is held by no shard, gone from birth and pinned by its reader
// alone. The load decodes into the buffers of a pooled entry when they
// have the room.
func (c *BlockCache) fetch(run uint64, i int, mode readMode, src blockSource) (blk block, lease *blockEntry, err error) {
	k := blockKey{run: run, block: i}
	s := c.shard(k)
	scan := mode == cursorRead
	var buf *[]byte // the frame, on a miss
	framed := false
	s.mu.Lock()
	e, hit := s.entries[k]
	if hit {
		s.touch(e, scan)
	} else if e, hit = s.loading[k]; !hit {
		// The entry is taken before the load, so waiters have something to
		// wait on.
		e = entries.Get().(*blockEntry)
		buf = frameBufs.Get().(*[]byte)
		var seen bool
		*buf, seen = s.frames.lookup(k, *buf)
		framed = len(*buf) > 0
		if scan || seen || s.used+runBlockTarget <= c.shardBudget {
			e.key, e.shard = k, s
			e.loaded.Add(1)
			s.loading[k] = e
		} else {
			e.gone = true
			c.bypasses.Add(1)
		}
	}
	e.pins++
	s.mu.Unlock()
	c.count(hit, scan)
	if hit {
		e.loaded.Wait() // at once for a resident entry
	} else {
		if framed {
			c.frameHits.Add(1)
		}
		c.load(s, e, k, scan, buf, framed, src)
	}
	if e.err != nil {
		return block{}, nil, e.err
	}
	return e.blk, e, nil
}

// release ends a pin: a lease fetch handed out.
// The last one out of an entry no cache holds recycles it.
func (e *blockEntry) release() {
	if s := e.shard; s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	e.pins--
	e.recycle()
}

// recycle hands e back to entries, under its shard's lock, once no
// cache holds e and no pin can still read its buffers. The payload is
// overwritten first (recycledByte); a buffer larger than maxRecycled is
// left to the garbage collector.
func (e *blockEntry) recycle() {
	if !e.gone || e.pins > 0 {
		return
	}
	overwrite(e.blk.data)
	if cap(e.blk.data) > maxRecycled {
		e.blk.data = nil
	}
	if 4*cap(e.blk.offs) > maxRecycled {
		e.blk.offs = nil
	}
	e.key, e.shard, e.gone = blockKey{}, nil, false
	entries.Put(e)
}

// load reads block k into e's own buffers — decoding the frame fetch
// copied into buf when one was resident (framed), else reading the frame
// from src into buf first — and publishes the outcome under s's lock: a
// frame read from src joins the store, a registered load's block is
// admitted, and an error is handed to the waiters alone (an entry that
// failed is never admitted, and so never recycled). A frame that failed
// to decode is forgotten, so the next miss reads the file. A declined
// miss's block is its reader's alone, and so is the block of a run
// dropped while the load read it: its frame is not kept and its entry
// not admitted, since no key of the run is asked for again.
func (c *BlockCache) load(s *cacheShard, e *blockEntry, k blockKey, scan bool, buf *[]byte, framed bool, src blockSource) {
	defer frameBufs.Put(buf)
	registered := e.shard != nil
	if registered {
		defer e.loaded.Done()
	}
	pooled := unsafe.SliceData(e.blk.data)
	if !framed {
		*buf, e.err = src.readFrame(k.block, *buf)
	}
	if e.err == nil {
		e.blk, e.err = src.decodeFrame(k.block, *buf, e.blk)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if registered {
		delete(s.loading, k)
	}
	switch {
	case e.err != nil && framed:
		s.used += s.frames.forgetKey(k)
		return
	case e.err != nil:
		return
	case src.dropped():
		e.gone = true
		return
	case !framed:
		s.used += s.frames.keep(k, *buf, c.shardBudget/ghostShare)
		c.fit(s)
	}
	if !registered {
		return
	}
	if pooled != nil && pooled == unsafe.SliceData(e.blk.data) {
		c.recycled.Add(1)
	}
	c.admit(s, e, scan)
}

// count records a lookup; scans are counted apart inside the totals.
func (c *BlockCache) count(hit, scan bool) {
	if hit {
		c.hits.Add(1)
		if scan {
			c.scanHits.Add(1)
		}
		return
	}
	c.misses.Add(1)
	if scan {
		c.scanMisses.Add(1)
	}
}

// admit makes e resident in s, under s's lock, and evicts until the
// shard fits its split — e itself included, when it alone exceeds what
// the frames leave of it.
func (c *BlockCache) admit(s *cacheShard, e *blockEntry, scan bool) {
	s.entries[e.key] = e
	s.used += e.blk.size()
	s.link(e, scan)
	c.fit(s)
}

// fit evicts decoded blocks from s, under its lock, until s fits its
// split. The list it evicts from first is the ring while the ring holds
// more than its share or hot is empty, else hot; its victim is the
// coldest block of that list no reader pins, else of the other list, so
// that the evicted entry goes back to the pool at once and the next
// load decodes into it. Only when every block is pinned does it evict
// the first list's coldest, whose bytes wait for their readers, so the
// budget stays exact. The frame log never takes more than half of the
// split, so the lists run dry no sooner than the shard fits.
func (c *BlockCache) fit(s *cacheShard) {
	for s.used > c.shardBudget {
		first, second := &s.hot, &s.ring
		if s.ringUsed > c.shardBudget/ringShare || first.tail == nil {
			first, second = second, first
		}
		victim := first.coldestUnpinned()
		if victim == nil {
			victim = second.coldestUnpinned()
		}
		if victim == nil {
			victim = first.tail
		}
		s.remove(victim)
		c.evictions.Add(1)
	}
}

// dropRun unlinks every entry of a retired run and forgets its frames,
// whose bytes the log's later records overwrite (frameStore): run ids
// never repeat, so no key matches them again. The run is marked dropped
// first (blockSource.dropped), so a load of it that publishes after this
// keeps nothing.
func (c *BlockCache) dropRun(run uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.run == run {
				s.remove(e)
			}
		}
		s.used += s.frames.forget(run)
		s.mu.Unlock()
	}
}

// touch applies a hit: a point read moves e to hot's head, out of the
// ring if it was there; a scan moves nothing.
func (s *cacheShard) touch(e *blockEntry, scan bool) {
	if !scan {
		s.unlink(e)
		s.link(e, false)
	}
}

// remove takes e out of the shard — map, list and byte counts — and
// recycles its buffers if nothing can read them any more.
func (s *cacheShard) remove(e *blockEntry) {
	delete(s.entries, e.key)
	s.used -= e.blk.size()
	s.unlink(e)
	e.gone = true
	e.recycle()
}

// link puts e at the head of the ring (a scan's block) or of hot.
func (s *cacheShard) link(e *blockEntry, scan bool) {
	e.inRing = scan
	if scan {
		s.ringUsed += e.blk.size()
		s.ring.pushFront(e)
	} else {
		s.hot.pushFront(e)
	}
}

// unlink takes e off whichever list holds it.
func (s *cacheShard) unlink(e *blockEntry) {
	if e.inRing {
		s.ringUsed -= e.blk.size()
		s.ring.unlink(e)
	} else {
		s.hot.unlink(e)
	}
}

// Stats snapshots the cache counters and gauges.
func (c *BlockCache) Stats() CacheStats {
	st := CacheStats{
		BlockCacheHits:       c.hits.Load(),
		BlockCacheMisses:     c.misses.Load(),
		BlockCacheEvictions:  c.evictions.Load(),
		BlockCacheScanHits:   c.scanHits.Load(),
		BlockCacheScanMisses: c.scanMisses.Load(),
		BlockCacheBypasses:   c.bypasses.Load(),
		BlockCacheRecycled:   c.recycled.Load(),
		BlockCacheFrameHits:  c.frameHits.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.BlockCacheEntries += len(s.entries)
		st.BlockCacheBytes += s.used
		st.BlockCacheFrameBytes += int64(len(s.frames.log))
		s.mu.Unlock()
	}
	return st
}

func (l *blockList) pushFront(e *blockEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// coldestUnpinned is the entry nearest the tail that no reader pins,
// or nil.
func (l *blockList) coldestUnpinned() *blockEntry {
	for e := l.tail; e != nil; e = e.prev {
		if e.pins == 0 {
			return e
		}
	}
	return nil
}

func (l *blockList) unlink(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if l.head == e {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
