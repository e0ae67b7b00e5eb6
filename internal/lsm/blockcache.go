package lsm

import (
	"sync"
	"sync/atomic"
)

// BlockCache caches run-file blocks as the bytes the file holds (plus an
// entry-offset table, see block), so warm point lookups and scans touch
// no filesystem, and — records being handed up as views of those bytes —
// decode nothing either. An entry costs exactly the bytes it holds, so
// the budget is exact. One cache is shared by every partition of a
// cluster (the budget is a deployment-level knob, like a buffer pool),
// keyed by (run file id, block index) — run ids are process-unique, so a
// retired run's entries can never be confused with its successor's.
//
// The cache is sharded to keep the lock off the read hot path's
// profile; each shard runs its own LRU list under its own mutex within
// an even split of the byte budget.
//
// # Pinning
//
// acquire/insert return the entry pinned until release. A pin protects
// residency, not memory: block bytes are garbage-collected, so a view
// outlives eviction, dropRun and the cache itself. What the pin buys is
// that the block a cursor is parked on is skipped by eviction — readers
// arriving meanwhile share it instead of loading a second copy — and
// that BlockCachePinned counts readers mid-block (a leaked cursor shows
// there). A run retired by compaction (dropRun) has its entries unlinked
// at once, pinned or not. The budget is enforced at admission time:
// inserts evict from the cold end until the shard fits, and a shard
// whose entries are all pinned may transiently exceed its split.
type BlockCache struct {
	shardBudget int64
	shards      [blockCacheShards]cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

const blockCacheShards = 8

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
	// Entries / Bytes gauge the cached population; Pinned counts entries
	// currently held by readers.
	BlockCacheEntries int
	BlockCachePinned  int
	BlockCacheBytes   int64
}

type blockKey struct {
	run   uint64
	block int
}

// blockEntry is one cached block. blk is immutable once published. pins
// and the LRU links are owned by the shard lock.
type blockEntry struct {
	key blockKey
	blk block

	pins int
	// dead marks an entry unlinked while pinned (dropRun of a retired
	// run); release must not touch shard accounting for it again.
	dead       bool
	prev, next *blockEntry
}

// cacheShard is one LRU region: head is hottest, tail coldest.
type cacheShard struct {
	mu      sync.Mutex
	used    int64
	entries map[blockKey]*blockEntry
	head    *blockEntry
	tail    *blockEntry
	pinned  int
}

// NewBlockCache creates a cache with the given byte budget across all
// shards. Budgets smaller than the shard count are clamped so every
// shard can hold at least something.
func NewBlockCache(budget int64) *BlockCache {
	if budget < blockCacheShards {
		budget = blockCacheShards
	}
	c := &BlockCache{shardBudget: budget / blockCacheShards}
	for i := range c.shards {
		c.shards[i].entries = make(map[blockKey]*blockEntry)
	}
	return c
}

func (c *BlockCache) shard(k blockKey) *cacheShard {
	// Runs hold ~dozens of blocks; mixing the block index into the shard
	// choice spreads one hot run across shards.
	return &c.shards[(k.run*31+uint64(k.block))%blockCacheShards]
}

// acquire returns the cached entry pinned, or (nil, false) on a miss.
func (c *BlockCache) acquire(run uint64, block int) (*blockEntry, bool) {
	k := blockKey{run: run, block: block}
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if e.pins == 0 {
		s.pinned++
	}
	e.pins++
	s.moveToFront(e)
	s.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// insert publishes a freshly loaded block and returns its entry pinned.
// If another reader raced the same block in, the existing entry wins
// (and is returned) so concurrent readers share one copy.
func (c *BlockCache) insert(run uint64, block int, blk block) *blockEntry {
	k := blockKey{run: run, block: block}
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		if e.pins == 0 {
			s.pinned++
		}
		e.pins++
		s.moveToFront(e)
		s.mu.Unlock()
		return e
	}
	e := &blockEntry{key: k, blk: blk, pins: 1}
	s.entries[k] = e
	s.pushFront(e)
	s.pinned++
	s.used += blk.size()
	c.evictLocked(s)
	s.mu.Unlock()
	return e
}

// release drops one pin.
func (c *BlockCache) release(e *blockEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	e.pins--
	if e.pins == 0 && !e.dead {
		s.pinned--
	}
	s.mu.Unlock()
}

// dropRun unlinks every entry of a retired run; a pinned one is marked
// dead so that its release leaves the shard's accounting alone.
func (c *BlockCache) dropRun(run uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.run != run {
				continue
			}
			delete(s.entries, k)
			s.unlink(e)
			s.used -= e.blk.size()
			if e.pins > 0 {
				s.pinned--
				e.dead = true
			}
		}
		s.mu.Unlock()
	}
}

// evictLocked trims the shard's cold end (skipping pinned entries)
// until it fits its budget split. Caller holds s.mu.
func (c *BlockCache) evictLocked(s *cacheShard) {
	e := s.tail
	for s.used > c.shardBudget && e != nil {
		prev := e.prev
		if e.pins == 0 {
			delete(s.entries, e.key)
			s.unlink(e)
			s.used -= e.blk.size()
			c.evictions.Add(1)
		}
		e = prev
	}
}

// Stats snapshots the cache counters and gauges.
func (c *BlockCache) Stats() CacheStats {
	st := CacheStats{
		BlockCacheHits:      c.hits.Load(),
		BlockCacheMisses:    c.misses.Load(),
		BlockCacheEvictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.BlockCacheEntries += len(s.entries)
		st.BlockCachePinned += s.pinned
		st.BlockCacheBytes += s.used
		s.mu.Unlock()
	}
	return st
}

func (s *cacheShard) pushFront(e *blockEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *blockEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
