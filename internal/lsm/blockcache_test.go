package lsm

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// get is a lookup that never loads: the resident block (a hit, touched
// as fetch touches it), or false (a miss, declined or not: its load
// fails). It keeps its pin, so no block it returns is recycled.
func (c *BlockCache) get(run uint64, i int, scan bool) (block, bool) {
	b, _, err := c.fetch(run, i, modeOf(scan), loadFunc(func(block) (block, error) { return block{}, errNotResident }))
	return b, err == nil
}

// loadFunc is a blockSource made of a test's load function: its frames
// are empty, so a full shard keeps their keys alone, and decoding one
// calls the function. Its run is never dropped.
type loadFunc func(reuse block) (block, error)

func (f loadFunc) readFrame(int, []byte) ([]byte, error)                   { return nil, nil }
func (f loadFunc) decodeFrame(_ int, _ []byte, reuse block) (block, error) { return f(reuse) }
func (f loadFunc) dropped() bool                                           { return false }

// modeOf is the read mode of a point read or a scan.
func modeOf(scan bool) readMode {
	if scan {
		return cursorRead
	}
	return pointRead
}

var errNotResident = errors.New("not resident")

// insert publishes blk as a load that raced fetch's lookup would: the
// resident copy, if there is one, wins and is touched; nothing is
// counted.
func (c *BlockCache) insert(run uint64, i int, blk block, scan bool) block {
	k := blockKey{run: run, block: i}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.touch(e, scan)
		return e.blk
	}
	c.admit(s, &blockEntry{key: k, blk: blk}, scan)
	return blk
}

// TestBlockCacheOps unit-tests the shard accounting: get/insert, LRU
// eviction under budget pressure, the scan ring beside the hot list,
// dropRun, and a block no shard can hold.
func TestBlockCacheOps(t *testing.T) {
	blk := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	perEntry := blk.size()

	c := NewBlockCache(perEntry * blockCacheShards * 2) // 2 entries per shard
	if _, ok := c.get(1, 0, false); ok {
		t.Fatal("get on empty cache hit")
	}
	c.insert(1, 0, blk, false)
	st := c.Stats()
	if st.BlockCacheEntries != 1 || st.BlockCacheBytes != perEntry || st.BlockCacheMisses != 1 {
		t.Fatalf("after insert: %+v", st)
	}
	// A second reader gets the resident block; a racing insert of the same
	// block does too, and adds nothing.
	other := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	got, ok := c.get(1, 0, false)
	if !ok || &got.data[0] != &blk.data[0] {
		t.Fatal("get did not return the resident block")
	}
	if got = c.insert(1, 0, other, false); &got.data[0] != &blk.data[0] {
		t.Fatal("a racing insert replaced the resident block")
	}
	if st = c.Stats(); st.BlockCacheEntries != 1 || st.BlockCacheBytes != perEntry || st.BlockCacheHits != 1 {
		t.Fatalf("after the second reader: %+v", st)
	}
	// Scan traffic is counted apart, inside the totals.
	c.get(1, 0, true)
	c.get(1, 1, true)
	if st = c.Stats(); st.BlockCacheScanHits != 1 || st.BlockCacheScanMisses != 1 || st.BlockCacheHits != 2 || st.BlockCacheMisses != 2 {
		t.Fatalf("after a scan hit and a scan miss: %+v", st)
	}

	// dropRun frees the run's entries; the block a reader holds stays
	// readable, its bytes being garbage-collected, not the cache's.
	c.dropRun(1)
	if st = c.Stats(); st.BlockCacheEntries != 0 || st.BlockCacheBytes != 0 {
		t.Fatalf("after dropRun: %+v", st)
	}
	if k, _, err := adm.DecodeBinary(got.key(0)); got.entries() != 1 || err != nil || adm.Compare(k, adm.Int(1)) != 0 {
		t.Fatal("a dropped run's block is no longer readable")
	}

	// Budget pressure evicts from the cold end, and a get warms: the block
	// touched before every insert survives 64 of them.
	c.insert(3, 0, blk, false)
	for i := 1; i < 64; i++ {
		if _, ok := c.get(3, 0, false); !ok {
			t.Fatalf("the hottest block was evicted at insert %d", i)
		}
		c.insert(3, i, blk, false)
	}
	st = c.Stats()
	if st.BlockCacheEvictions == 0 || st.BlockCacheBytes > perEntry*blockCacheShards*2 {
		t.Fatalf("under %dx budget pressure: %+v", 64, st)
	}

	checkRing(t, blk)
	checkFrames(t)

	// A block larger than a shard's split is handed back to its reader and
	// is not resident afterwards; what the shard held, on either list,
	// goes with it and both lists stay usable.
	items := make([]index.Item, 8)
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: adm.String("payload-payload-payload-payload")}
	}
	big := loadTestBlock(t, items)
	if big.size() <= 2*perEntry {
		t.Fatalf("the large block is %d bytes, a shard's split %d", big.size(), 2*perEntry)
	}
	s := c.shard(blockKey{run: 4, block: 0})
	// Run 4's blocks 0, 8, 16, ... share s: (4*31+8i) % 8 == (4*31) % 8.
	c.dropRun(3) // room for a scan's block: a full shard this small keeps none
	c.insert(4, 16, blk, true)
	if s.ring.head == nil {
		t.Fatal("a scan's block did not join the ring")
	}
	if got = c.insert(4, 0, big, false); got.entries() != len(items) {
		t.Fatalf("insert returned a block of %d entries, want %d", got.entries(), len(items))
	}
	if _, ok := c.get(4, 0, false); ok {
		t.Fatal("a block larger than its shard's split stayed resident")
	}
	if s.used != 0 || s.ringUsed != 0 || len(s.entries) != 0 || s.hot != (blockList{}) || s.ring != (blockList{}) {
		t.Fatalf("the shard after the large block: used %d (ring %d), %d entries, hot %v, ring %v", s.used, s.ringUsed, len(s.entries), s.hot, s.ring)
	}
	c.insert(4, 8, blk, false)
	c.insert(4, 24, blk, true)
	if s.hot.head == nil || s.hot.head != s.hot.tail || s.ring.head == nil || s.ring.head != s.ring.tail || s.used != 2*perEntry || s.ringUsed != perEntry {
		t.Fatalf("the shard does not take a block on each list after the large one: used %d (ring %d)", s.used, s.ringUsed)
	}
	// A scan's oversized block takes the ring with it and leaves hot be.
	c.insert(4, 32, big, true)
	if _, ok := s.entries[blockKey{run: 4, block: 8}]; !ok || s.ring != (blockList{}) || s.ringUsed != 0 || s.used != perEntry {
		t.Fatalf("after a scan's large block: hot kept %v, used %d (ring %d)", ok, s.used, s.ringUsed)
	}
}

// checkRing drives one shard of a fresh cache, eight blocks large,
// through the scan ring's rules: once point reads have filled the shard
// the ring never holds more than its share, a scan hit reorders
// nothing, and a point hit promotes a ring entry into hot.
func checkRing(t *testing.T, blk block) {
	t.Helper()
	c := NewBlockCache(blk.size() * blockCacheShards * 8)
	s := c.shard(blockKey{run: 5, block: 0})
	key := func(i int) blockKey { return blockKey{run: 5, block: i * blockCacheShards} } // all in s
	for i := 0; i < 8; i++ {
		c.insert(5, key(i).block, blk, false)
	}
	if s.used != c.shardBudget || s.ring.head != nil {
		t.Fatalf("eight point reads: used %d of %d, ring %v", s.used, c.shardBudget, s.ring)
	}
	for i := 8; i < 40; i++ {
		c.insert(5, key(i).block, blk, true)
		if s.ringUsed > c.shardBudget/ringShare || s.used > c.shardBudget {
			t.Fatalf("scan insert %d: the ring holds %d bytes, its share %d (shard %d of %d)", i, s.ringUsed, c.shardBudget/ringShare, s.used, c.shardBudget)
		}
	}
	// The ring took two hot blocks, the coldest, and has recycled itself
	// since: the six hottest point blocks are still resident.
	for i := 2; i < 8; i++ {
		if _, ok := s.entries[key(i)]; !ok {
			t.Fatalf("point block %d was evicted by a scan", i)
		}
	}

	hot, ring := listKeys(s.hot), listKeys(s.ring)
	if len(ring) != 2 || ring[0] != key(39) {
		t.Fatalf("the ring is %v, want the scan's last two blocks, newest first", ring)
	}
	for _, k := range []blockKey{hot[len(hot)-1], ring[len(ring)-1]} {
		if _, ok := c.get(k.run, k.block, true); !ok {
			t.Fatalf("scan get of resident %v missed", k)
		}
	}
	if !slices.Equal(listKeys(s.hot), hot) || !slices.Equal(listKeys(s.ring), ring) {
		t.Fatalf("a scan hit reordered: hot %v -> %v, ring %v -> %v", hot, listKeys(s.hot), ring, listKeys(s.ring))
	}

	promoted := ring[1]
	if _, ok := c.get(promoted.run, promoted.block, false); !ok {
		t.Fatal("point get of a ring entry missed")
	}
	if e := s.entries[promoted]; e.inRing || s.hot.head != e || s.ringUsed != blk.size() || !slices.Equal(listKeys(s.ring), ring[:1]) {
		t.Fatalf("a point hit did not promote %v: hot %v, ring %v (%d bytes)", promoted, listKeys(s.hot), listKeys(s.ring), s.ringUsed)
	}
	if s.used != c.shardBudget || len(s.entries) != 8 {
		t.Fatalf("a promotion changed the shard's bytes: used %d in %d entries", s.used, len(s.entries))
	}
}

// frameSource is a blockSource whose every block is blk and every frame
// frame; it counts the frames it reads and fails a decode of any other.
type frameSource struct {
	blk   block
	frame []byte
	reads int
}

func (f *frameSource) readFrame(_ int, buf []byte) ([]byte, error) {
	f.reads++
	return append(buf[:0], f.frame...), nil
}

func (f *frameSource) decodeFrame(i int, frame []byte, _ block) (block, error) {
	if !bytes.Equal(frame, f.frame) {
		return block{}, fmt.Errorf("block %d: a frame of %d bytes is not the one read", i, len(frame))
	}
	return f.blk, nil
}

func (f *frameSource) dropped() bool { return false }

// checkFrames drives one shard of a fresh cache, four runBlockTarget
// blocks large, through the frame store's rules. While the shard has
// room for a block of runBlockTarget bytes a point miss is admitted;
// once it has none a first point miss is loaded for its reader alone and
// is not admitted. Either way its frame stays resident, and a miss whose
// frame is resident is admitted into hot from that frame, reading
// nothing, and evicts hot's coldest. The log grows, doubling, to its
// share, evicting decoded blocks as it grows; grown, it forgets its
// oldest frame for a new one, and a declined miss evicts nothing. The
// shard's bytes are its decoded blocks plus its log's length, within its
// split.
func checkFrames(t *testing.T) {
	t.Helper()
	items := make([]index.Item, 63) // one block just over runBlockTarget
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: adm.String(strings.Repeat("g", 250))}
	}
	src := &frameSource{blk: loadTestBlock(t, items), frame: make([]byte, runBlockTarget/2)}
	bs, rec := src.blk.size(), int64(frameRecHeader+len(src.frame))
	c := NewBlockCache(4 * runBlockTarget * blockCacheShards)
	split, share := c.shardBudget, c.shardBudget/ghostShare
	if bs+rec+runBlockTarget > split || 2*bs+2*rec > split || 2*bs+2*rec+runBlockTarget <= split ||
		2*bs+share <= split || bs+share > split || bs+share+runBlockTarget <= split || 3*rec > share || 4*rec <= share {
		t.Fatalf("a %d-byte block and %d-byte frame records in a %d-byte split do not walk the steps below", bs, rec, split)
	}
	s := c.shard(blockKey{run: 6})
	key := func(i int) blockKey { return blockKey{run: 6, block: i * blockCacheShards} } // all in s
	// fetch misses block i and reports whether the shard admitted it: a
	// declined miss counts a bypass, and its entry is no shard's.
	fetch := func(i int) bool {
		t.Helper()
		bypasses := c.Stats().BlockCacheBypasses
		b, lease, err := c.fetch(6, key(i).block, pointRead, src)
		if err != nil || b.entries() != src.blk.entries() {
			t.Fatalf("fetch %d: %v, %d entries", i, err, b.entries())
		}
		declined := c.Stats().BlockCacheBypasses != bypasses
		if _, resident := s.entries[key(i)]; resident == declined || declined != (lease.shard == nil) {
			t.Fatalf("fetch %d: declined %v, resident %v, entry of a shard %v", i, declined, resident, lease.shard != nil)
		}
		if s.used != int64(len(s.entries))*bs+int64(len(s.frames.log)) || s.used > split {
			t.Fatalf("fetch %d: the shard holds %d bytes, %d entries and a %d-byte log, its split %d", i, s.used, len(s.entries), len(s.frames.log), split)
		}
		return !declined
	}
	framed := func(is ...int) bool {
		for _, i := range is {
			if _, ok := s.frames.at[key(i)]; !ok {
				return false
			}
		}
		return len(s.frames.at) == len(is)
	}
	resident := func(is ...int) bool {
		for _, i := range is {
			if _, ok := s.entries[key(i)]; !ok {
				return false
			}
		}
		return len(s.entries) == len(is)
	}
	evictions := func() uint64 { return c.Stats().BlockCacheEvictions }
	for i := 0; i < 2; i++ {
		if !fetch(i) || src.reads != i+1 {
			t.Fatalf("miss %d on a shard with room was not admitted", i)
		}
	}
	if !framed(0, 1) || int64(len(s.frames.log)) != 2*rec || evictions() != 0 {
		t.Fatalf("two loads into room: frames %v in a %d-byte log, %d evictions", s.frames.at, len(s.frames.log), evictions())
	}
	// A first miss on a full shard: declined, its frame kept. The log grows
	// to its share, and evicts hot's coldest.
	if fetch(2) || src.reads != 3 || !framed(0, 1, 2) || int64(len(s.frames.log)) != share || !resident(1) {
		t.Fatalf("a first miss on a full shard: admitted, or %d reads, frames %v in a %d-byte log", src.reads, s.frames.at, len(s.frames.log))
	}
	hits := c.Stats().BlockCacheFrameHits
	if !fetch(2) || src.reads != 3 || s.hot.head.key != key(2) || c.Stats().BlockCacheFrameHits != hits+1 || !resident(2) {
		t.Fatalf("a second miss with its frame resident was not admitted at hot's head from the frame, evicting block 1 (%d reads)", src.reads)
	}
	before := evictions()
	if fetch(3) || src.reads != 4 || !framed(1, 2, 3) || fetch(0) || src.reads != 5 || !framed(2, 3, 0) || evictions() != before {
		t.Fatalf("declined misses past the store's share: %d reads, frames %v, want blocks 2, 3 and 0; %d evictions", src.reads, s.frames.at, evictions()-before)
	}
	if !fetch(3) || src.reads != 5 || !resident(3) || !framed(2, 3, 0) {
		t.Fatalf("a second touch of a block whose frame was kept: declined, or %d reads, frames %v", src.reads, s.frames.at)
	}
	if st := c.Stats(); st.BlockCacheBypasses != 3 || st.BlockCacheMisses != 7 || st.BlockCacheFrameHits != 2 || st.BlockCacheEvictions != 3 ||
		st.BlockCacheEntries != 1 || st.BlockCacheFrameBytes != share || st.BlockCacheBytes != bs+share {
		t.Fatalf("after the frame rules: %+v", st)
	}
}

// listKeys walks l from head to tail.
func listKeys(l blockList) []blockKey {
	var keys []blockKey
	for e := l.head; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// loadTestBlock writes items as a one-block run and loads that block.
func loadTestBlock(t *testing.T, items []index.Item) block {
	t.Helper()
	rf, err := writeRun(NewMemFS(), "runs", "b.run", runEnv{}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.close()
	blk, err := rf.loadBlock(0, block{})
	if err != nil || len(rf.blocks) != 1 {
		t.Fatalf("%d blocks, %v", len(rf.blocks), err)
	}
	return blk
}

// overBudgetPartition flushes records into one run of at least twice
// the cache's budget — in the decoded bytes the cache charges, not the
// compressed bytes on disk — and returns the partition and its run.
func overBudgetPartition(t *testing.T, budget int64) (*Partition, *runFile) {
	t.Helper()
	opts := cachedOptions()
	opts.MemBudget = 1 << 30
	opts.BlockCache = NewBlockCache(budget)
	p := flushedPartition(t, opts, 16000)
	runs := partitionRuns(p)
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	var size int64
	for i := range runs[0].blocks {
		blk, err := runs[0].loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		size += blk.size()
	}
	if size < 2*budget {
		t.Fatalf("the run holds %d bytes, not twice the cache's %d", size, budget)
	}
	return p, runs[0]
}

// TestBlockCacheEvictsUnpinnedBlocks: a scan load that needs room
// while the ring's oldest block is pinned evicts the oldest block no
// reader pins, which goes back to the pool at once, and the next load
// decodes into that block's entry instead of a fresh one. The pinned
// block stays resident. Evicting the pinned tail — the rule before —
// let go of bytes no load could reuse until their reader released
// them, so scans over a full cache loaded into fresh entries.
func TestBlockCacheEvictsUnpinnedBlocks(t *testing.T) {
	const size = 4000
	// Four blocks a shard, and keys that all fall in one shard.
	c := NewBlockCache(blockCacheShards * (4*size + size/2))
	key := func(i int) blockKey { return blockKey{run: 1, block: blockCacheShards * i} }
	s := c.shard(key(0))
	var data [6][]byte // each block's payload
	var fresh [6]bool  // whether its load found no buffer to reuse
	load := func(i int) *blockEntry {
		t.Helper()
		blk, lease, err := c.fetch(1, key(i).block, cursorRead, loadFunc(func(reuse block) (block, error) {
			fresh[i] = reuse.data == nil
			return block{data: append(reuse.data[:0], make([]byte, size)...)}, nil
		}))
		if err != nil || c.shard(key(i)) != s {
			t.Fatalf("block %d: %v", i, err)
		}
		data[i] = blk.data
		return lease
	}
	resident := func(i int) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.entries[key(i)]
		return ok
	}
	// Empty the entry pool, so a load that finds buffers found a
	// recycled block's.
	for entries.Get().(*blockEntry).blk.data != nil {
	}
	pinned := load(0)
	defer pinned.release()
	for i := 1; i < 4; i++ {
		load(i).release()
	}
	load(4).release()
	if !resident(0) || resident(1) || !resident(2) || !resident(4) {
		t.Fatalf("after a load past the budget: resident 0 %v, 1 %v, 2 %v, 4 %v; want the pinned block 0 kept and block 1 evicted",
			resident(0), resident(1), resident(2), resident(4))
	}
	load(5).release()
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	if fresh[5] || &data[5][0] != &data[1][0] {
		t.Fatalf("the load after the eviction decoded into a fresh entry (%v), not block 1's", fresh[5])
	}
}

// TestBlockCacheScanKeepsPointBlocks: full scans of data twice the
// cache's size pass through the scan ring and leave the blocks point
// reads warmed resident — under a plain LRU the scans flushed them.
func TestBlockCacheScanKeepsPointBlocks(t *testing.T) {
	const n = 16000
	p, _ := overBudgetPartition(t, 2<<20)
	read := func() {
		t.Helper()
		for i := 0; i < 8; i++ {
			k := int64(i*n/8 + 17)
			if v, ok, err := p.Get(adm.Int(k)); !ok || err != nil || v.Field("id").IntVal() != k {
				t.Fatalf("get %d = %v, %v, %v", k, v, ok, err)
			}
		}
	}
	read()
	for i := 0; i < 2; i++ {
		if got := liveLen(t, p.Snapshot()); got != n {
			t.Fatalf("scan %d saw %d records", i, got)
		}
	}
	before, cs := p.renv.ctr.blockReads.Load(), p.opts.BlockCache.Stats()
	read()
	if reads := p.renv.ctr.blockReads.Load() - before; reads != 0 || cs.BlockCacheEvictions == 0 {
		t.Fatalf("point reads after two scans loaded %d blocks (the scans evicted %d)", reads, cs.BlockCacheEvictions)
	}
}

// TestBlockCacheConcurrentScansShare: two cursors walk a run larger than
// the cache in lockstep, the trailing one a few blocks behind, and every
// block is loaded once — the trailer hits what the leader's scan put in
// the ring. (A cache that never admitted a scan's block once full would
// load each of those twice.)
func TestBlockCacheConcurrentScansShare(t *testing.T) {
	const gap = 4
	p, run := overBudgetPartition(t, 1<<20)
	step := func(c *runFileCursor) bool { // onto the next block's first entry
		for b := c.block; c.block == b; {
			if _, _, ok, _ := c.advance(); !ok {
				return false
			}
		}
		return true
	}
	before := p.renv.ctr.blockReads.Load()
	lead, trail := run.cursor(new(Leases)), run.cursor(new(Leases))
	for i := 0; i < gap; i++ {
		step(lead)
	}
	for step(lead) {
		step(trail)
	}
	for step(trail) {
	}
	if err := cmp.Or(lead.err, trail.err); err != nil {
		t.Fatal(err)
	}
	cs := p.opts.BlockCache.Stats()
	if reads := p.renv.ctr.blockReads.Load() - before; reads != uint64(len(run.blocks)) || cs.BlockCacheEvictions == 0 {
		t.Fatalf("two scans of a %d-block run loaded %d blocks (%d evictions)", len(run.blocks), reads, cs.BlockCacheEvictions)
	}
	if cs.BlockCacheScanHits != uint64(len(run.blocks)) {
		t.Fatalf("the trailing scan hit %d blocks of %d", cs.BlockCacheScanHits, len(run.blocks))
	}
}

// fillPointReads point-reads one key in each of run's blocks from the
// first on, until every shard of cache is full — no room left for a
// block of runBlockTarget bytes, so a point miss needs its frame store's
// record to be admitted — and returns the first block not read.
func fillPointReads(t *testing.T, p *Partition, run *runFile, cache *BlockCache) int {
	t.Helper()
	full := func() bool {
		for i := range cache.shards {
			s := &cache.shards[i]
			s.mu.Lock()
			room := s.used+runBlockTarget <= cache.shardBudget
			s.mu.Unlock()
			if room {
				return false
			}
		}
		return true
	}
	for b := range run.blocks {
		if full() {
			return b
		}
		getBlockKey(t, p, run, b)
	}
	t.Fatalf("%d blocks did not fill the cache", len(run.blocks))
	return 0
}

// growFrames point-reads one key in each of run's blocks from the first
// on, until every shard of cache has grown its frame store's log to the
// store's share — which it allocates, and charges, once — and returns
// the first block not read.
func growFrames(t *testing.T, p *Partition, run *runFile, cache *BlockCache, from int) int {
	t.Helper()
	grown := func() bool {
		for i := range cache.shards {
			s := &cache.shards[i]
			s.mu.Lock()
			n := int64(len(s.frames.log))
			s.mu.Unlock()
			if n != cache.shardBudget/ghostShare {
				return false
			}
		}
		return true
	}
	for b := from; b < len(run.blocks); b++ {
		if grown() {
			return b
		}
		getBlockKey(t, p, run, b)
	}
	t.Fatalf("%d blocks did not grow the frame stores", len(run.blocks))
	return 0
}

// getBlockKey point-reads the first key of run's block b and checks the
// record it returns.
func getBlockKey(t *testing.T, p *Partition, run *runFile, b int) {
	t.Helper()
	k := adm.ViewAlias(run.blocks[b].firstKey)
	if v, ok, err := p.Get(k); !ok || err != nil || v.Field("id").IntVal() != k.IntVal() {
		t.Fatalf("get %v = %v, %v, %v", k, v, ok, err)
	}
}

// TestFullCachePointMissKeepsOnlyItsRecord: a point read that misses a
// full cache, first touch of its block, reads the block into pooled
// buffers and keeps only a copy of its record — it neither allocates a
// block nor evicts one: its frame joins a log that has grown to its
// share, which it allocated once — and a run with no cache reads every
// block that way. The record such a read hands up is a copy, which the
// reads after it, decoding into the same pooled buffers, leave as it
// was. Admitting each such miss cost a decoded block (16 KiB and its
// offset table) and an eviction per read.
func TestFullCachePointMissKeepsOnlyItsRecord(t *testing.T) {
	const budget = 512 << 10
	perMiss := func(t *testing.T, p *Partition, run *runFile, from int) float64 {
		t.Helper()
		getBlockKey(t, p, run, from) // the pooled buffers' first use
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for b := from + 1; b < len(run.blocks); b++ {
			getBlockKey(t, p, run, b)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(run.blocks)-from-1)
	}
	t.Run("full", func(t *testing.T) {
		p, run := overBudgetPartition(t, budget)
		cache := p.opts.BlockCache
		from := growFrames(t, p, run, cache, fillPointReads(t, p, run, cache))
		before, reads := cache.Stats(), p.renv.ctr.blockReads.Load()
		got := perMiss(t, p, run, from)
		st := cache.Stats()
		misses := uint64(len(run.blocks) - from)
		if st.BlockCacheMisses-before.BlockCacheMisses != misses || st.BlockCacheBypasses-before.BlockCacheBypasses != misses || st.BlockCacheEvictions != before.BlockCacheEvictions ||
			p.renv.ctr.blockReads.Load()-reads != misses || st.BlockCacheFrameHits != before.BlockCacheFrameHits || st.BlockCacheFrameBytes != before.BlockCacheFrameBytes {
			t.Fatalf("%d first touches on a full cache: %d misses, %d bypasses, %d evictions, %d block reads, %d frame hits, %d → %d frame bytes", misses,
				st.BlockCacheMisses-before.BlockCacheMisses, st.BlockCacheBypasses-before.BlockCacheBypasses, st.BlockCacheEvictions-before.BlockCacheEvictions,
				p.renv.ctr.blockReads.Load()-reads, st.BlockCacheFrameHits-before.BlockCacheFrameHits, before.BlockCacheFrameBytes, st.BlockCacheFrameBytes)
		}
		t.Logf("%d blocks, cache full and its frames grown after %d: %.0f B a missed get", len(run.blocks), from, got)
		if got > 2048 && !raceEnabled { // sync.Pool drops a quarter of its Puts at random under -race
			t.Fatalf("a point read that missed a full cache allocated %.0f B: it kept its block", got)
		}
	})
	t.Run("nocache", func(t *testing.T) {
		opts := DefaultOptions()
		opts.MemBudget = 1 << 30
		p := flushedPartition(t, opts, 16000)
		run := partitionRuns(p)[0]
		// The largest block first: every read after it decodes its block
		// into the pooled buffers that block was decoded into.
		largest, size := 0, int64(0)
		for i := range run.blocks {
			blk, err := run.loadBlock(i, block{})
			if err != nil {
				t.Fatal(err)
			}
			if blk.size() > size {
				largest, size = i, blk.size()
			}
		}
		k := adm.ViewAlias(run.blocks[largest].firstKey)
		first, _, _ := p.Get(k)
		got := perMiss(t, p, run, 0)
		if adm.Compare(first, viewRec(int(k.IntVal()))) != 0 {
			t.Fatalf("a record read privately is not a copy: it now reads %v", first)
		}
		t.Logf("%d blocks: %.0f B a get", len(run.blocks), got)
		if got > 2048 && !raceEnabled { // sync.Pool drops a quarter of its Puts at random under -race
			t.Fatalf("a point read of a run with no cache allocated %.0f B: it kept its block", got)
		}
	})
}

// TestBlockCacheAdmitsReReferencedPointBlocks: on a full cache, its
// frame stores grown to their share, a small hot set is declined on its
// first read, which leaves its frames resident, and admitted on its
// second from those frames, reading no block — and then stays resident
// through a burst of one-off point reads of more blocks than the cache
// holds, so its third read loads nothing. A cache that admitted every
// point miss let the burst's blocks evict it; one that admitted none
// once full never admitted it at all; one that remembered only the keys
// it declined read each block twice.
func TestBlockCacheAdmitsReReferencedPointBlocks(t *testing.T) {
	p, run := overBudgetPartition(t, 512<<10)
	cache := p.opts.BlockCache
	from := growFrames(t, p, run, cache, fillPointReads(t, p, run, cache))
	hotSet := []int{from, from + 1, from + 2, from + 3} // four shards
	burst := from + len(hotSet)
	if len(run.blocks)-burst < 2*len(cache.shards)*int(cache.shardBudget/runBlockTarget) {
		t.Fatalf("%d blocks after the hot set: no burst larger than the cache", len(run.blocks)-burst)
	}
	readHot := func() uint64 {
		t.Helper()
		before := p.renv.ctr.blockReads.Load()
		for _, b := range hotSet {
			getBlockKey(t, p, run, b)
		}
		return p.renv.ctr.blockReads.Load() - before
	}
	framed := func() bool {
		for _, b := range hotSet {
			k := blockKey{run: run.id, block: b}
			s := cache.shard(k)
			s.mu.Lock()
			_, ok := s.frames.at[k]
			s.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	}
	st0 := cache.Stats()
	first := readHot()
	st1 := cache.Stats()
	if first != 4 || st1.BlockCacheBypasses-st0.BlockCacheBypasses != 4 || !framed() {
		t.Fatalf("the hot set's first read: %d block reads, %d bypasses, frames resident %v", first, st1.BlockCacheBypasses-st0.BlockCacheBypasses, framed())
	}
	second := readHot()
	st := cache.Stats()
	if second != 0 || st.BlockCacheFrameHits-st1.BlockCacheFrameHits != 4 || st.BlockCacheBypasses != st1.BlockCacheBypasses {
		t.Fatalf("the hot set's second read: %d block reads, %d frame hits, %d bypasses",
			second, st.BlockCacheFrameHits-st1.BlockCacheFrameHits, st.BlockCacheBypasses-st1.BlockCacheBypasses)
	}
	for b := burst; b < len(run.blocks); b++ {
		getBlockKey(t, p, run, b)
	}
	if third := readHot(); third != 0 {
		t.Fatalf("the hot set's third read, after a burst of %d one-off reads, loaded %d blocks", len(run.blocks)-burst, third)
	}
}

// diffOp drives one deterministic mixed workload step.
func diffKey(r *rand.Rand, space int64) adm.Value { return adm.Int(r.Int63n(space)) }

func diffRec(k adm.Value, v int64) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs("pk", k, "v", adm.Int(v), "pad", adm.String("pppppppppppppppppppppppppppppppp")))
}

// TestBlockCacheDifferential runs the same randomized workload — point
// gets and full scans interleaved with upserts, deletes, and forced
// flushes (with compactions triggering naturally) — against three
// stores: a cached partition, an uncached partition, and a shadow map.
// All three must agree at every checkpoint, the cache must hold no more
// than its budget after every operation, and the cached partition must
// agree again after a clean reopen. Two caches: a tiny one, which evicts
// constantly, and one whose splits hold every frame the runs have beside
// few decoded blocks, so decoded misses decode kept frames.
func TestBlockCacheDifferential(t *testing.T) {
	// tiny: 8 KiB a shard, so a flush's block fits, a compaction's 16 KiB
	// block never does, and eviction is constant. (A smaller cache holds
	// nothing: a block larger than its shard's split does not stay.)
	// frames: 12 KiB a shard, whose half holds the frames of every block
	// the workload's runs have at once, and the other half two of the
	// flushes' decoded blocks and none of the compactions'.
	t.Run("tiny", func(t *testing.T) {
		const budget = 64 << 10
		if budget/blockCacheShards >= runBlockTarget {
			t.Fatalf("a %d-byte split has room for a block", budget/blockCacheShards)
		}
		cs := checkCacheDifferential(t, budget)
		// Both ways a point miss can go ran: read privately (a bypass) and
		// admitted. A split smaller than runBlockTarget is never roomy, so
		// every point miss admitted was a second touch of a key its frame
		// store kept, with its frame or alone.
		if cs.BlockCacheEvictions == 0 || cs.BlockCacheBypasses == 0 || pointAdmissions(cs) == 0 {
			t.Fatalf("%d evictions; point misses: %d bypassed, %d admitted as second touches (%+v)", cs.BlockCacheEvictions, cs.BlockCacheBypasses, pointAdmissions(cs), cs)
		}
	})
	t.Run("frames", func(t *testing.T) {
		if cs := checkCacheDifferential(t, 96<<10); cs.BlockCacheFrameHits == 0 {
			t.Fatalf("no decoded miss was served from a kept frame (%+v)", cs)
		}
	})
}

// checkCacheDifferential is TestBlockCacheDifferential behind a cache of
// budget bytes; it returns the cache's counters before the reopen.
func checkCacheDifferential(t *testing.T, budget int64) CacheStats {
	const keySpace = 512
	opts := func(cache *BlockCache) Options {
		return Options{MemBudget: 4 << 10, MaxComponents: 6, WALSegBytes: 16 << 10, BlockCache: cache}
	}
	cache := NewBlockCache(budget)
	fsOn, fsOff := NewMemFS(), NewMemFS()
	pOn, err := OpenPartition(fsOn, "part", opts(cache))
	if err != nil {
		t.Fatal(err)
	}
	pOff, err := OpenPartition(fsOff, "part", opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	shadow := make(map[int64]int64)
	inBudget := func(tag string) {
		t.Helper()
		if st := cache.Stats(); st.BlockCacheBytes > budget {
			t.Fatalf("%s: the cache holds %d bytes (%d in frames), its budget %d", tag, st.BlockCacheBytes, st.BlockCacheFrameBytes, budget)
		}
	}
	r := rand.New(rand.NewSource(1234))
	version := int64(0)
	checkKey := func(k adm.Value, tag string) {
		t.Helper()
		want, inShadow := shadow[k.IntVal()]
		gotOn, okOn, _ := pOn.Get(k)
		inBudget(tag)
		gotOff, okOff, _ := pOff.Get(k)
		if okOn != inShadow || okOff != inShadow {
			t.Fatalf("%s: key %v presence on=%v off=%v shadow=%v", tag, k, okOn, okOff, inShadow)
		}
		if inShadow {
			if gv := gotOn.Field("v").IntVal(); gv != want {
				t.Fatalf("%s: key %v cached value %d, want %d", tag, k, gv, want)
			}
			if gv := gotOff.Field("v").IntVal(); gv != want {
				t.Fatalf("%s: key %v uncached value %d, want %d", tag, k, gv, want)
			}
		}
	}
	checkScan := func(tag string) {
		t.Helper()
		seen := 0
		pOn.Snapshot().Scan(func(k, rec adm.Value) bool {
			want, okS := shadow[k.IntVal()]
			if !okS || rec.Field("v").IntVal() != want {
				t.Fatalf("%s: scan saw key %v = %v (shadow %d,%v)", tag, k, rec, want, okS)
			}
			seen++
			inBudget(tag)
			return true
		})
		if seen != len(shadow) {
			t.Fatalf("%s: scan saw %d records, shadow has %d", tag, seen, len(shadow))
		}
	}

	for round := 0; round < 30; round++ {
		for op := 0; op < 40; op++ {
			k := diffKey(r, keySpace)
			switch r.Intn(10) {
			case 0:
				pOn.Delete(k)
				pOff.Delete(k)
				delete(shadow, k.IntVal())
			default:
				version++
				pOn.Upsert(k, diffRec(k, version))
				pOff.Upsert(k, diffRec(k, version))
				shadow[k.IntVal()] = version
			}
			inBudget(fmt.Sprintf("round %d op %d", round, op))
		}
		// Random gets every round; flush (and let compaction churn runs)
		// on a cadence so lookups cross memtable, cached runs, and
		// retired-run boundaries.
		for i := 0; i < 20; i++ {
			checkKey(diffKey(r, keySpace*2), fmt.Sprintf("round %d", round)) // 2x space: absent keys probe fences+bloom
		}
		if round%3 == 0 {
			pOn.Flush()
			pOff.Flush()
			if err := pOn.WaitForFlush(); err != nil {
				t.Fatal(err)
			}
			if err := pOff.WaitForFlush(); err != nil {
				t.Fatal(err)
			}
			inBudget(fmt.Sprintf("round %d flush", round))
		}
		if round%5 == 0 {
			checkScan(fmt.Sprintf("round %d", round))
		}
	}
	checkScan("final")
	st := pOn.Stats()
	if cs := cache.Stats(); st.BlockReads == 0 || cs.BlockCacheHits == 0 {
		t.Fatalf("workload never exercised the cache: part=%+v cache=%+v", st, cache.Stats())
	}
	cs := cache.Stats()

	// A clean close and reopen (fresh cache) must converge to the same
	// state.
	if err := pOn.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenPartition(fsOn.Crash(), "part", opts(NewBlockCache(budget)))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	defer pOff.Close()
	pOn = reopened
	for k, want := range shadow {
		got, ok, _ := pOn.Get(adm.Int(k))
		if !ok || got.Field("v").IntVal() != want {
			t.Fatalf("reopen: key %d = %v,%v want %d", k, got, ok, want)
		}
	}
	return cs
}

// pointAdmissions is how many point misses a cache admitted.
func pointAdmissions(cs CacheStats) uint64 {
	return cs.BlockCacheMisses - cs.BlockCacheScanMisses - cs.BlockCacheBypasses
}

// gatedSource is a frameSource whose frame reads signal reading and then
// wait for gate, and whose run is dropped once drop is set.
type gatedSource struct {
	frameSource
	reading, gate chan struct{}
	drop          atomic.Bool
}

func (g *gatedSource) readFrame(i int, buf []byte) ([]byte, error) {
	g.reading <- struct{}{}
	<-g.gate
	return g.frameSource.readFrame(i, buf)
}

func (g *gatedSource) dropped() bool { return g.drop.Load() }

// TestBlockCacheDropRunRacesLoad: a run dropped while a load of one of
// its blocks reads the file — as a run's close does, marking it closed
// before it drops its blocks — leaves nothing of the run in the cache
// once the load is done, whichever way the load would have published:
// no entry admitted into room or into the ring, no frame kept by a miss
// a full shard declined. The reader still gets its block. A load that
// published after dropRun left an entry, or a frame, that no key names
// again, held until the cache evicted it.
func TestBlockCacheDropRunRacesLoad(t *testing.T) {
	blk := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	for _, arm := range []struct {
		name   string
		budget int64
		mode   readMode
	}{
		{"point into room", 4 * runBlockTarget * blockCacheShards, pointRead},
		{"scan into the ring", 4 * runBlockTarget * blockCacheShards, cursorRead},
		{"declined point, frame kept", 1 << 10 * blockCacheShards, pointRead},
	} {
		t.Run(arm.name, func(t *testing.T) {
			c := NewBlockCache(arm.budget)
			src := &gatedSource{frameSource: frameSource{blk: blk, frame: make([]byte, 100)}, reading: make(chan struct{}), gate: make(chan struct{})}
			done := make(chan error)
			go func() {
				// The lease is kept: the block is the test's, not to be recycled.
				b, _, err := c.fetch(9, 0, arm.mode, src)
				if err == nil && b.entries() != blk.entries() {
					err = fmt.Errorf("the reader got a block of %d entries", b.entries())
				}
				done <- err
			}()
			<-src.reading
			src.drop.Store(true)
			c.dropRun(9)
			close(src.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			s := c.shard(blockKey{run: 9})
			s.mu.Lock()
			loading, kept := len(s.loading), len(s.frames.at)
			s.mu.Unlock()
			if st := c.Stats(); st.BlockCacheEntries != 0 || st.BlockCacheBytes != 0 || st.BlockCacheFrameBytes != 0 || loading != 0 || kept != 0 {
				t.Fatalf("after the dropped run's load: %d loads in flight, %d frames kept, %+v", loading, kept, st)
			}
		})
	}
}

// TestBlockCacheConcurrentMissesLoadOnce: readers that miss a block
// while another reader loads it wait for that load and share its block —
// or its error, after which the block is not resident and the next miss
// loads again. Without the wait each loaded a copy of its own, and the
// longer a load takes (a decode), the more of them did.
func TestBlockCacheConcurrentMissesLoadOnce(t *testing.T) {
	const waiters = 8
	blk := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	failed := errors.New("the one load failed")
	for _, loadErr := range []error{nil, failed} {
		c := NewBlockCache(1 << 20)
		release := make(chan struct{})
		var loads atomic.Int32
		load := loadFunc(func(block) (block, error) {
			loads.Add(1)
			<-release
			return blk, loadErr
		})
		var wg sync.WaitGroup
		got := make([]block, waiters+1)
		errs := make([]error, waiters+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[0], _, errs[0] = c.fetch(7, 0, pointRead, load)
		}()
		for loads.Load() == 0 {
			runtime.Gosched()
		}
		for w := 1; w <= waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w], _, errs[w] = c.fetch(7, 0, modeOf(w%2 == 0), load)
			}()
		}
		for c.Stats().BlockCacheHits+uint64(loads.Load()-1) < waiters { // each joined the load, or started one
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if n := loads.Load(); n != 1 {
			t.Fatalf("%d readers missing one block loaded it %d times", waiters+1, n)
		}
		for w := range got {
			if errs[w] != loadErr || loadErr == nil && &got[w].data[0] != &blk.data[0] {
				t.Fatalf("reader %d got %v, %v; the load returned %v", w, got[w].entries(), errs[w], loadErr)
			}
		}
		st := c.Stats()
		if resident := loadErr == nil; st.BlockCacheMisses != 1 || (st.BlockCacheEntries == 1) != resident || len(c.shard(blockKey{run: 7}).loading) != 0 {
			t.Fatalf("after the shared load (error %v): %+v", loadErr, st)
		}
		again := 0
		if _, _, err := c.fetch(7, 0, pointRead, loadFunc(func(block) (block, error) { again++; return blk, nil })); err != nil || (again == 0) != (loadErr == nil) {
			t.Fatalf("the next reader after a load that returned %v: %v, loading %d times", loadErr, err, again)
		}
	}
}

// TestBlockCacheConcurrentReaders hammers one cached partition under the
// race detector: a writer keeps upserting and flushing (so compaction
// retires runs and drops their cache entries) while readers point-look-up
// a sealed key range and walk snapshot cursors, sharing the cache, and
// two more read a few sealed keys twice in a row, so that one reader's
// private read of a block (a bypass) races another's admission of it
// (a second touch), and two run leased scans, whose every load decodes
// into recycled memory, racing the point reads that pin the blocks they
// share and copy their records out, and the compactions that drop them.
// The cache's 2 KiB splits are smaller than a block of runBlockTarget
// bytes, so a shard never has room for a point miss, and their 1 KiB
// frame shares keep a few small frames and only the keys of larger
// ones: every point miss is declined, or admitted as a second touch —
// from its kept frame, or by its key alone and a file read — and a
// pinned block evicted as others are admitted is recycled at its last
// release.
func TestBlockCacheConcurrentReaders(t *testing.T) {
	const sealed = 300
	cache := NewBlockCache(16 << 10)
	fs := NewMemFS()
	p, err := OpenPartition(fs, "part", Options{MemBudget: 8 << 10, MaxComponents: 4, WALSegBytes: 16 << 10, BlockCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Seal a key prefix on disk first; its values never change, so
	// readers can assert exact results while the writer churns elsewhere.
	for i := 0; i < sealed; i++ {
		k := adm.Int(int64(i))
		p.Upsert(k, diffRec(k, int64(i)))
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(1)
	go func() { // writer: churn a disjoint key range, force flushes
		defer writers.Done()
		v := int64(0)
		for round := 0; ; round++ {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < 50; i++ {
				v++
				k := adm.Int(int64(sealed + i%100))
				p.Upsert(k, diffRec(k, v))
			}
			p.Flush()
			if err := p.WaitForFlush(); err != nil {
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 400; it++ {
				k := r.Int63n(sealed * 2) // half the probes miss
				got, ok, _ := p.Get(adm.Int(k))
				if k < sealed {
					if !ok || got.Field("v").IntVal() != k {
						t.Errorf("sealed key %d = %v,%v", k, got, ok)
						return
					}
				}
				if it%50 == 0 { // partial scans: a cursor stopped early, over runs compaction retires
					cur := p.Snapshot().Cursor()
					for i := 0; i < 40; i++ {
						if _, _, ok := cur.Next(); !ok {
							break
						}
					}
					cur.Close()
				}
			}
		}(int64(g) + 77)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 400; it++ {
				k := int64(r.Intn(8) * sealed / 8)
				for range 2 {
					if got, ok, _ := p.Get(adm.Int(k)); !ok || got.Field("v").IntVal() != k {
						t.Errorf("sealed key %d = %v,%v", k, got, ok)
						return
					}
				}
			}
		}(int64(g) + 91)
	}
	for g := 0; g < 2; g++ { // leased scans: every block they load is recycled at its release
		readers.Add(1)
		go func(order ScanOrder) {
			defer readers.Done()
			for it := 0; it < 20; it++ {
				cur := NewParallelScanCursor([]*Snapshot{p.Snapshot()}, nil, order)
				n := 0
				for {
					k, rec, ok, err := cur.Next()
					if err != nil || !ok {
						if err != nil {
							t.Error(err)
						}
						break
					}
					if id := k.IntVal(); id < sealed {
						if rec.Field("v").IntVal() != id {
							t.Errorf("a leased scan read sealed key %d = %v", id, rec)
							cur.Close()
							return
						}
						n++
					}
				}
				cur.Close()
				if n != sealed {
					t.Errorf("a leased scan saw %d sealed keys", n)
					return
				}
			}
		}([]ScanOrder{PartitionOrder, Unordered}[g])
	}
	// Readers drive the duration; stop the writer when they finish.
	readers.Wait()
	close(done)
	writers.Wait()

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if cs := cache.Stats(); cs.BlockCacheBypasses == 0 || pointAdmissions(cs) == 0 || cs.BlockCacheRecycled == 0 {
		t.Fatalf("point misses: %d bypassed, %d admitted; %d blocks recycled", cs.BlockCacheBypasses, pointAdmissions(cs), cs.BlockCacheRecycled)
	}
}
