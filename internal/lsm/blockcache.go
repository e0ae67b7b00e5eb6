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
// Residency is all the cache decides. Block bytes are garbage-collected,
// so a reader keeps the block it was handed — and every view into it —
// through eviction, dropRun and the cache itself, and there is nothing
// to give back. The budget is enforced at admission time: an insert
// evicts from the cold end until the shard fits, the block just inserted
// included when it alone exceeds the shard's split.
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
	// Entries / Bytes gauge the cached population.
	BlockCacheEntries int
	BlockCacheBytes   int64
}

type blockKey struct {
	run   uint64
	block int
}

// blockEntry is one cached block. blk is immutable once published; the
// LRU links are owned by the shard lock.
type blockEntry struct {
	key        blockKey
	blk        block
	prev, next *blockEntry
}

// cacheShard is one LRU region: head is hottest, tail coldest.
type cacheShard struct {
	mu      sync.Mutex
	used    int64
	entries map[blockKey]*blockEntry
	head    *blockEntry
	tail    *blockEntry
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

// get returns the resident block, or false on a miss.
func (c *BlockCache) get(run uint64, i int) (block, bool) {
	k := blockKey{run: run, block: i}
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return block{}, false
	}
	s.moveToFront(e)
	s.mu.Unlock()
	c.hits.Add(1)
	return e.blk, true
}

// insert publishes a freshly loaded block and returns the block to read.
// If another reader raced the same block in, the resident copy wins (and
// is returned) so concurrent readers share one.
func (c *BlockCache) insert(run uint64, i int, blk block) block {
	k := blockKey{run: run, block: i}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.moveToFront(e)
		return e.blk
	}
	e := &blockEntry{key: k, blk: blk}
	s.entries[k] = e
	s.pushFront(e)
	s.used += blk.size()
	for s.used > c.shardBudget {
		s.remove(s.tail)
		c.evictions.Add(1)
	}
	return blk
}

// dropRun unlinks every entry of a retired run.
func (c *BlockCache) dropRun(run uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.run == run {
				s.remove(e)
			}
		}
		s.mu.Unlock()
	}
}

// remove takes e out of the shard: map, list and byte count.
func (s *cacheShard) remove(e *blockEntry) {
	delete(s.entries, e.key)
	s.unlink(e)
	s.used -= e.blk.size()
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
