package lsm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// viewRec is a record wide enough (≈ 300 encoded bytes) that keeping its
// block alive by mistake shows in a heap measurement.
func viewRec(i int) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(int64(i)),
		"cat", adm.String(fmt.Sprintf("c%04d", i%1000)),
		"user", adm.ObjectValue(adm.ObjectFromPairs("name", adm.String(fmt.Sprintf("u%d", i)))),
		"pad", adm.String(fmt.Sprintf("%0256d", i)),
	))
}

// flushedPartition opens a partition on opts, stores n viewRecs and
// flushes them to one run file. It returns with the flusher idle:
// WaitForFlush returns once the run is swapped in, while the flusher
// still truncates the WAL, and an allocation gate measured then counts
// that work too (settle waits for it).
func flushedPartition(t testing.TB, opts Options, n int) *Partition {
	t.Helper()
	p := memPartition(t, opts)
	keys, recs := make([]adm.Value, n), make([]adm.Value, n)
	for i := range keys {
		keys[i], recs[i] = adm.Int(int64(i)), viewRec(i)
	}
	if err := p.UpsertBatch(keys, recs); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	settle(t, p)
	return p
}

// partitionRuns returns the partition's run files, newest first.
func partitionRuns(p *Partition) []*runFile {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var runs []*runFile
	for _, c := range p.components {
		if c.run != nil {
			runs = append(runs, c.run)
		}
	}
	return runs
}

// TestBlockCacheBudgetIsExact: a cached block costs the bytes it holds —
// its payload's length plus four bytes per offset-table entry, whatever
// the file spends on it and whoever loaded it — and a shard's frames the
// length of the log they lie in, so BlockCacheBytes is a sum one can do
// by hand, and a 64 KiB budget holds three 16 KiB blocks. A shard's log
// holds the frames it kept in less than twice their bytes, and on a full
// cache it grows to its share (ghostShare) and stays there. (Budgeted as
// decoded objects, ≈ 6× their payload, that cache held none of them.) A
// stored payload's buffer and a recycled one have room past the payload,
// and are not charged it: a fresh payload just over runBlockTarget is
// given a recycled buffer's room (recycledRoom), so a block costs the
// same read into fresh memory or recycled, and a recycled buffer is
// bounded (maxRecycled).
func TestBlockCacheBudgetIsExact(t *testing.T) {
	opts := cachedOptions()
	p := flushedPartition(t, opts, 2000)
	run := partitionRuns(p)[0]
	if n := liveLen(t, p.Snapshot()); n != 2000 {
		t.Fatalf("scanned %d records", n)
	}
	// Every frame is kept, in each shard's log: its records' bytes, in a
	// log grown by doubling to at least that and less than twice it.
	var want int64
	records := map[*cacheShard]int64{}
	for i := range run.blocks {
		blk, err := run.loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(blk.data)) + 4*int64(2*blk.entries()+1)
		k := blockKey{run: run.id, block: i}
		records[opts.BlockCache.shard(k)] += frameRecHeader + int64(run.blocks[i].length)
	}
	var frames int64
	for i := range opts.BlockCache.shards {
		s := &opts.BlockCache.shards[i]
		if n := int64(len(s.frames.log)); n < records[s] || records[s] > 0 && n >= 2*records[s] {
			t.Fatalf("shard %d keeps %d bytes of frame records in a %d-byte log", i, records[s], n)
		}
		frames += int64(len(s.frames.log))
	}
	want += frames
	st := opts.BlockCache.Stats()
	if st.BlockCacheBytes != want || st.BlockCacheFrameBytes != frames || st.BlockCacheEntries != len(run.blocks) || st.BlockCacheEvictions != 0 {
		t.Fatalf("cache holds %d bytes (%d in frames) in %d entries (%d evictions), want %d bytes (%d in frames) in %d",
			st.BlockCacheBytes, st.BlockCacheFrameBytes, st.BlockCacheEntries, st.BlockCacheEvictions, want, frames, len(run.blocks))
	}

	// A full cache: its decoded blocks, and every shard's log at its share.
	full, fullRun := overBudgetPartition(t, 512<<10)
	cache := full.opts.BlockCache
	growFrames(t, full, fullRun, cache, fillPointReads(t, full, fullRun, cache))
	frames = int64(blockCacheShards) * (cache.shardBudget / ghostShare)
	want = frames
	for i := range fullRun.blocks {
		k := blockKey{run: fullRun.id, block: i}
		s := cache.shard(k)
		s.mu.Lock()
		_, resident := s.entries[k]
		s.mu.Unlock()
		if resident {
			blk, err := fullRun.loadBlock(i, block{})
			if err != nil {
				t.Fatal(err)
			}
			want += blk.size()
		}
	}
	if st := cache.Stats(); st.BlockCacheBytes != want || st.BlockCacheFrameBytes != frames || st.BlockCacheBytes > 512<<10 {
		t.Fatalf("a full cache holds %d bytes (%d in frames), want %d (%d in frames)", st.BlockCacheBytes, st.BlockCacheFrameBytes, want, frames)
	}

	// One shard's worth: 64 KiB takes three blocks of the 16 KiB target
	// (each a little over it, plus its table) and evicts for the fourth.
	c := NewBlockCache(64 << 10 * blockCacheShards)
	blk, err := run.loadBlock(0, block{})
	if err != nil || blk.size() < runBlockTarget || blk.size() > 64<<10/3 {
		t.Fatalf("block 0 costs %d bytes, %v", blk.size(), err)
	}
	for i := 0; i < 4; i++ {
		c.insert(1, i*blockCacheShards, blk, false) // same shard
		if st := c.Stats(); st.BlockCacheEntries != min(i+1, 3) {
			t.Fatalf("after %d inserts: %+v", i+1, st)
		}
	}

	// A stored payload is appended into a fresh slice, which has its size
	// class's room: the block is charged its length alone.
	rnd := rand.New(rand.NewSource(1))
	var items []index.Item
	for i := range 30 {
		items = append(items, index.Item{Key: adm.Int(int64(i)), Val: adm.String(randomBytes(rnd, 480))})
	}
	stored := loadTestBlock(t, items)
	if cap(stored.data) == len(stored.data) {
		t.Fatalf("a stored %d-byte payload has no spare room (capacity %d)", len(stored.data), cap(stored.data))
	}
	// A recycled buffer keeps the room of the block it came from.
	roomy := block{data: make([]byte, 0, maxRecycled), offs: make([]uint32, 0, 4*blk.entries())}
	recycled, err := run.loadBlock(0, roomy)
	if err != nil || &recycled.data[0] != &roomy.data[:1][0] || &recycled.offs[0] != &roomy.offs[:1][0] {
		t.Fatalf("block 0 was not read into the buffers it was lent: %v", err)
	}
	for _, arm := range []struct {
		name string
		blk  block
	}{{"stored", stored}, {"recycled", recycled}} {
		c := NewBlockCache(1 << 20)
		c.insert(1, 0, arm.blk, false)
		want := int64(len(arm.blk.data)) + 4*int64(len(arm.blk.offs))
		if st := c.Stats(); st.BlockCacheBytes != want {
			t.Fatalf("a %s block of %d bytes (room for %d) is charged %d", arm.name, want, cap(arm.blk.data)+4*cap(arm.blk.offs), st.BlockCacheBytes)
		}
	}
	// Block 0 read into fresh memory is an lz payload just over
	// runBlockTarget: it gets a recycled buffer's room, and costs what it
	// costs read into recycled memory.
	if len(blk.data) <= runBlockTarget || cap(blk.data) != recycledRoom || blk.size() != recycled.size() {
		t.Fatalf("a fresh %d-byte payload has room for %d and costs %d; read into recycled memory it costs %d",
			len(blk.data), cap(blk.data), blk.size(), recycled.size())
	}
	// Buffers larger than maxRecycled are not handed back for recycling.
	e := &blockEntry{blk: block{data: make([]byte, 1, maxRecycled+1), offs: make([]uint32, 1, 8)}, gone: true}
	e.recycle()
	if e.blk.data != nil || cap(e.blk.offs) != 8 {
		t.Fatalf("recycled a %d-byte payload buffer and a %d-entry offset table", cap(e.blk.data), cap(e.blk.offs))
	}
}

// randomBytes is a string of n random bytes, which lz cannot shorten.
func randomBytes(rnd *rand.Rand, n int) string {
	b := make([]byte, n)
	rnd.Read(b)
	return string(b)
}

// TestReadPathAllocations pins what the read path allocates: one copy of
// the record for a point lookup that hits a resident block (the key
// compare decodes in place, and the read copies its record out of the
// block it pins before it releases the pin), and for a scan that must
// load every block no more than the block's bytes, its offset table and
// its cache entry — never anything per record.
func TestReadPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	opts := cachedOptions()
	opts.MemBudget = 1 << 30
	p := flushedPartition(t, opts, 4000)
	run := partitionRuns(p)[0]
	blocks := len(run.blocks)
	if blocks < 50 {
		t.Fatalf("only %d blocks", blocks)
	}
	s := p.Snapshot()
	drain := func() {
		cur := s.Cursor()
		n := 0
		for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
			n++
		}
		if n != 4000 || cur.Err() != nil {
			t.Fatalf("scanned %d records, err %v", n, cur.Err())
		}
	}
	drain()
	key := adm.Int(1234)
	if n := testing.AllocsPerRun(200, func() {
		if rec, ok, _ := s.Get(key); !ok || rec.Field("id").IntVal() != 1234 {
			t.Fatal("lookup failed")
		}
	}); n != 1 {
		t.Errorf("warm Snapshot.Get: %v allocations, want 1 (its record's copy)", n)
	}
	warm := testing.AllocsPerRun(5, drain)
	// A cold run deletes and re-inserts every block's cache entry, and now
	// and then a shard's map rehashes the deleted slots into a new table —
	// the map's bookkeeping, a few allocations in some runs, not a cost
	// per block. The cheapest of five runs is the per-block cost.
	cold := math.Inf(1)
	for range 5 {
		cold = min(cold, testing.AllocsPerRun(1, func() {
			opts.BlockCache.dropRun(run.id)
			drain()
		}))
	}
	if perBlock := (cold - warm) / float64(blocks); perBlock > 3 {
		t.Errorf("cold scan: %.0f allocations over %d blocks (warm %.0f): %.2f per block, want <= 3", cold, blocks, warm, perBlock)
	}
	if warm > 20 {
		t.Errorf("warm scan of 4000 records: %.0f allocations", warm)
	}

	// Without a cache there is no entry to allocate.
	bare := flushedPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8}, 4000)
	s = bare.Snapshot()
	if n := testing.AllocsPerRun(5, drain); n > warm+2*float64(blocks) {
		t.Errorf("uncached scan: %.0f allocations over %d blocks, want <= 2 per block", n, blocks)
	}
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIndexBackfillRetainsNoBlockMemory is the retention rule for the
// longest-lived holder there is. A secondary index back-filled from run
// files keeps the primary key and the extracted field — scalars that own
// their memory, or a detached copy of an object field — and nothing of
// the blocks they were read from: with the cache purged, the index costs
// no more heap than the same index back-filled from a memtable, give or
// take the 16-byte copies of its string keys (the memtable arm shares
// those with the records). An index that kept one view or one aliased
// string per record would hold every block: ≈ 300 bytes a record here.
func TestIndexBackfillRetainsNoBlockMemory(t *testing.T) {
	const n = 20_000
	const margin = 64 * n // bytes; a leak is ≥ 300*n
	for _, field := range []string{"cat", "user"} {
		cost := func(flushed bool) int64 {
			opts := Options{MemBudget: 1 << 30, MaxComponents: 8, BlockCache: NewBlockCache(DefaultBlockCacheBytes)}
			var p *Partition
			if flushed {
				p = flushedPartition(t, opts, n)
			} else {
				p = memPartition(t, opts)
				for i := 0; i < n; i++ {
					if err := p.Upsert(adm.Int(int64(i)), viewRec(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := heapAfterGC()
			ix := NewBTreeIndex("ix", FieldKeyExtractor(field))
			if err := p.AttachIndex(ix); err != nil {
				t.Fatal(err)
			}
			for _, r := range partitionRuns(p) {
				opts.BlockCache.dropRun(r.id)
			}
			after := heapAfterGC()
			if got := len(postingsIn(ix, index.Unbounded(), index.Unbounded())); got != n {
				t.Fatalf("index on %s holds %d entries", field, got)
			}
			runtime.KeepAlive(p)
			return int64(after) - int64(before)
		}
		fromRuns, fromMemtable := cost(true), cost(false)
		t.Logf("index on %s: %d bytes back-filled from run files, %d from a memtable", field, fromRuns, fromMemtable)
		if fromRuns > fromMemtable+margin {
			t.Errorf("index on %s: %d bytes live after a back-fill from run files, %d from a memtable (margin %d): block memory is retained",
				field, fromRuns, fromMemtable, margin)
		}
	}
}

// TestWriteDetachesViews: a record read out of one partition and written
// into another (INSERT ... SELECT) is stored as a copy of its bytes —
// the block it was read from is collectable while the memtable that
// received it is still alive and still answers.
func TestWriteDetachesViews(t *testing.T) {
	src := flushedPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8}, 100) // no cache: the view alone holds its block
	run := partitionRuns(src)[0]
	dst := memPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8})

	collected := make(chan struct{})
	func() {
		blk, err := run.loadBlock(0, block{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&blk.data[0], func(*byte) { close(collected) })
		for i := 0; i < blk.entries(); i++ {
			key, _, _ := adm.DecodeBinary(blk.key(i))
			if err := dst.Upsert(key, adm.View(blk.val(i))); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			rec, ok, _ := dst.Get(adm.Int(7))
			if !ok || !adm.Equal(rec, viewRec(7)) {
				t.Fatalf("stored copy reads %v, %v", rec, ok)
			}
			return
		default:
		}
	}
	t.Fatal("the source block is still reachable from the memtable it was copied into")
}

// TestWriteDetachesStringKeyedViews is TestWriteDetachesViews with
// string keys, read as storage hands them up (adm.ViewAlias): the key and
// every string of the record alias the block, and the memtable that
// received them keeps copies — the block is collectable while it still
// answers, by key and with the record's strings.
func TestWriteDetachesStringKeyedViews(t *testing.T) {
	opts := Options{MemBudget: 1 << 30, MaxComponents: 8} // no cache: the views alone hold the block
	src := memPartition(t, opts)
	keys, recs := make([]adm.Value, 100), make([]adm.Value, 100)
	for i := range keys {
		keys[i], recs[i] = adm.String(fmt.Sprintf("key-%03d", i)), viewRec(i)
	}
	if err := src.UpsertBatch(keys, recs); err != nil {
		t.Fatal(err)
	}
	src.Flush()
	settle(t, src)
	run := partitionRuns(src)[0]
	dst := memPartition(t, opts)

	collected := make(chan struct{})
	func() {
		blk, err := run.loadBlock(0, block{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&blk.data[0], func(*byte) { close(collected) })
		for i := 0; i < blk.entries(); i++ {
			if err := dst.Upsert(adm.ViewAlias(blk.key(i)), adm.ViewAlias(blk.val(i))); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			rec, ok, _ := dst.Get(adm.String("key-007"))
			if !ok || !adm.Equal(rec, viewRec(7)) || rec.Field("cat").StringVal() != "c0007" {
				t.Fatalf("stored copy reads %v, %v", rec, ok)
			}
			return
		default:
		}
	}
	t.Fatal("the source block is still reachable from the memtable it was copied into")
}

// TestIndexKeepsNoBatchBuffer: a memtable's string keys alias the buffer
// their batch arrived in, but a secondary index keeps its primary keys
// for good, so it is handed copies — once the memtable is flushed, the
// batch's buffer is collectable while the index still answers.
func TestIndexKeepsNoBatchBuffer(t *testing.T) {
	p := memPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8})
	ix := NewBTreeIndex("cat", FieldKeyExtractor("cat"))
	if err := p.AttachIndex(ix); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		keys, recs := make([]adm.Value, 32), make([]adm.Value, 32)
		for i := range keys {
			keys[i], recs[i] = adm.String(fmt.Sprintf("key-%03d", i)), padRec(i, 20)
		}
		enc, views := routedFrame(keys, recs, 0)
		runtime.SetFinalizer(&enc[0], func(*byte) { close(collected) })
		if err := p.UpsertFrame(keys, views, enc); err != nil {
			t.Fatal(err)
		}
	}()
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if pks := postingsOf(ix, adm.String("c0007")); len(pks) != 1 || !adm.Equal(pks[0], adm.String("key-007")) {
				t.Fatalf("the index maps c0007 to %v, want [key-007]", pks)
			}
			return
		default:
		}
	}
	t.Fatal("the batch's buffer is still reachable from the index")
}
