package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// runBytes is what the cache would be charged for every block of run.
func runBytes(t *testing.T, run *runFile) int64 {
	t.Helper()
	var size int64
	for i := range run.blocks {
		blk, err := run.loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		size += blk.size()
	}
	return size
}

// drainScan pulls c to the end and returns each row's key and record
// encodings, copied before the next pull — what a consumer of a scan
// must do with what it keeps.
func drainScan(t *testing.T, c *ParallelScanCursor) []string {
	t.Helper()
	defer c.Close()
	var rows []string
	for {
		k, r, ok, err := c.Next()
		if err != nil {
			t.Error(err)
			return rows
		}
		if !ok {
			return rows
		}
		rows = append(rows, string(adm.AppendBinary(adm.AppendBinary(nil, k), r)))
	}
}

// countScan pulls c to the end, reading every row's id, and returns how
// many rows it saw and the sum of their ids: it keeps nothing.
func countScan(c *ParallelScanCursor) (n, sum int64, err error) {
	defer c.Close()
	for {
		_, r, ok, err := c.Next()
		if err != nil || !ok {
			return n, sum, err
		}
		n++
		sum += r.Field("id").IntVal()
	}
}

// TestFullCacheScanRecyclesRingBlocks: two scans run together over
// data three times and more the size of a small cache. Once the cache
// is full, each block they load decodes into the memory of a ring block
// the cache let go of, so a scan allocates in proportion to the ring's
// share of the cache, not to the data, and the rows are that scan's
// rows, byte for byte. A run with no cache keeps no block resident and
// recycles each at its release, so its scans keep within the same
// bound.
func TestFullCacheScanRecyclesRingBlocks(t *testing.T) {
	const budget, n = 2 << 20, 24000
	p := overBudgetRun(t, budget, n)
	run := partitionRuns(p)[0]
	if size := runBytes(t, run); size < 3*budget {
		t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
	}
	cache := p.opts.BlockCache
	snaps := []*Snapshot{p.Snapshot()}
	bare := []*Snapshot{flushedPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8}, n).Snapshot()}
	want := drainScan(t, NewParallelScanCursor(bare, nil, PartitionOrder))
	if len(want) != n {
		t.Fatalf("a scan of a run with no cache saw %d rows", len(want))
	}
	together := func(scan func(i int)) {
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan(i)
			}()
		}
		wg.Wait()
	}
	var got [2][]string
	together(func(i int) { got[i] = drainScan(t, NewParallelScanCursor(snaps, nil, PartitionOrder)) })
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Fatalf("scan %d saw %d rows unlike the %d of a run with no cache", i, len(got[i]), len(want))
		}
	}
	if cs := cache.Stats(); cs.BlockCacheRecycled == 0 || cs.BlockCacheEvictions == 0 {
		t.Fatalf("two scans over a full cache recycled %d blocks (%d evictions)", cs.BlockCacheRecycled, cs.BlockCacheEvictions)
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	measure := func(snaps []*Snapshot) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		together(func(int) {
			if rows, sum, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != n || sum != n*(n-1)/2 || err != nil {
				t.Errorf("a scan saw %d rows, ids summing to %d: %v", rows, sum, err)
			}
		})
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 2
	}
	cached, uncached := measure(snaps), measure(bare)
	for range 2 {
		cached, uncached = min(cached, measure(snaps)), min(uncached, measure(bare))
	}
	t.Logf("a scan allocated %d bytes over a full cache, %d over no cache", cached, uncached)
	if cached > budget/ringShare || uncached > budget/ringShare {
		t.Logf("stats %+v", cache.Stats())
		t.Fatalf("a scan allocated %d bytes over a full cache, %d over no cache: want at most the ring's share (%d)", cached, uncached, budget/ringShare)
	}
}

// TestEveryReaderPinsItsBlock: every reader pins the block it reads,
// and lets go of the pin once it keeps nothing of the block — a point
// hit on a shard with room copies its record out and releases the pin
// at once; a serial scan's cursor holds the block its row lies in until
// it is closed; a waiter on another reader's load pins the entry it
// shares — so once the cache lets go of the block, its entry goes back
// to the pool, overwritten (recycledByte), and what each reader kept, a
// copy, still reads as stored.
func TestEveryReaderPinsItsBlock(t *testing.T) {
	arms := []struct {
		name string
		// read reads block b and returns the copy of a record of it the
		// reader keeps, once the reader has let go of the block.
		read func(t *testing.T, p *Partition, run *runFile, b int) []byte
	}{
		{"point-hit", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			run.cache.dropRun(run.id) // the shard has room again
			leaseAndRelease(t, run, b)
			v, ok, err := p.Get(adm.ViewAlias(run.blocks[b].firstKey))
			if !ok || err != nil {
				t.Fatalf("get = %v, %v", ok, err)
			}
			return adm.AppendBinary(nil, v)
		}},
		{"serial-scan", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			leaseAndRelease(t, run, b)
			cu := p.Snapshot().Cursor()
			defer cu.Close()
			for _, rec, ok := cu.Next(); ok; _, rec, ok = cu.Next() {
				if bytes.Equal(adm.AppendBinary(nil, rec.Field("id")), run.blocks[b].firstKey) {
					if e := residentEntry(t, run, b); e == nil || e.pins != 1 || !cu.Transient() {
						t.Fatalf("a cursor standing on block %d: resident %v, transient %v", b, e != nil, cu.Transient())
					}
					kept := adm.AppendBinary(nil, rec)
					cu.Close()
					return kept
				}
			}
			t.Fatalf("no row starts block %d: %v", b, cu.Err())
			return nil
		}},
		{"waiter", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			cache := run.cache
			gate := make(chan struct{})
			leased := make(chan *blockEntry)
			go func() {
				_, lease, err := cache.fetch(run.id, b, cursorRead, loadFunc(func(reuse block) (block, error) {
					<-gate
					return run.loadBlock(b, reuse)
				}))
				if err != nil {
					t.Error(err)
				}
				leased <- lease
			}()
			s := cache.shard(blockKey{run: run.id, block: b})
			for registered := false; !registered; {
				runtime.Gosched()
				s.mu.Lock()
				_, registered = s.loading[blockKey{run: run.id, block: b}]
				s.mu.Unlock()
			}
			hits := cache.Stats().BlockCacheHits
			waiter := make(chan []byte)
			go func() {
				blk, lease, err := cache.fetch(run.id, b, pointRead, loadFunc(func(block) (block, error) { return block{}, errNotResident }))
				if err != nil || lease == nil {
					t.Errorf("a waiter's fetch: lease %v, %v", lease, err)
					waiter <- nil
					return
				}
				kept := bytes.Clone(blk.val(0))
				lease.release()
				waiter <- kept
			}()
			for cache.Stats().BlockCacheHits == hits {
				runtime.Gosched()
			}
			close(gate)
			kept := <-waiter
			(<-leased).release()
			return kept
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			p, run, b := fullShardRun(t)
			id := int(adm.ViewAlias(run.blocks[b].firstKey).IntVal())
			kept := arm.read(t, p, run, b)
			e := residentEntry(t, run, b)
			if e == nil || e.pins != 0 {
				t.Fatalf("block %d after its reader let go: %+v", b, e)
			}
			data := e.blk.data
			run.cache.dropRun(run.id)
			if bytes.Count(data, []byte{recycledByte}) != len(data) {
				t.Fatal("a dropped block nobody pins was not overwritten and handed back")
			}
			if !bytes.Equal(kept, adm.AppendBinary(nil, viewRec(id))) {
				t.Fatalf("the copy a reader kept of record %d changed once its block was recycled", id)
			}
		})
	}
	t.Run("no-cache", checkNoCacheReadersPin)
}

// checkNoCacheReadersPin is TestEveryReaderPinsItsBlock over a partition
// opened with no cache (Options{}): its run reads through a cache whose
// splits hold no block, so every read — a scan, a point read with and
// without a lease list, an index probe, a back-fill — pins an entry the
// cache does not keep, and the entry goes back to the pool, overwritten, once
// its reader lets go of it. A row a scan or a probe stands on is
// Transient, the block a reader pinned reads recycledByte once it has
// let go, and what it copied reads as stored.
func checkNoCacheReadersPin(t *testing.T) {
	const n = 4000
	p := flushedPartition(t, Options{MemBudget: 1 << 30}, n)
	run := partitionRuns(p)[0]
	if run.cache == nil {
		t.Fatal("a run opened with no cache has none to read through")
	}
	ix := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
	if err := p.AttachIndex(ix); err != nil {
		t.Fatal(err)
	}
	oracle := memPartition(t, Options{MemBudget: 1 << 30}) // reads no block
	for i := range n {
		if err := oracle.Upsert(adm.Int(int64(i)), viewRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
	if err := oracle.AttachIndex(want); err != nil {
		t.Fatal(err)
	}
	id := int(adm.ViewAlias(run.blocks[len(run.blocks)/2].firstKey).IntVal())
	key := adm.Int(int64(id))
	// held returns the payload of the one entry a reader pins, which the
	// cache let go of as soon as it was loaded.
	held := func(t *testing.T, pins []*blockEntry) []byte {
		t.Helper()
		if len(pins) != 1 || pins[0] == nil || !pins[0].gone {
			t.Fatalf("the reader pins %d entries, want one no cache holds: %v", len(pins), pins)
		}
		return pins[0].blk.data
	}
	arms := []struct {
		name string
		// read reads record id and returns, once it has let go of the
		// block, the payload of the block it held while it read the record
		// (nil when it copied the record out at once) and its copy of the
		// record (nil for a back-fill).
		read func(t *testing.T) (pinned, kept []byte)
	}{
		{"scan", func(t *testing.T) ([]byte, []byte) {
			cu := p.Snapshot().Cursor()
			defer cu.Close()
			for _, rec, ok := cu.Next(); ok; _, rec, ok = cu.Next() {
				if int(rec.Field("id").IntVal()) != id {
					continue
				}
				if !cu.Transient() {
					t.Fatal("a scan row of a run with no cache is not transient")
				}
				var pins []*blockEntry
				for _, in := range cu.m.inputs {
					if in.fc != nil {
						pins = append(pins, in.fc.lease)
					}
				}
				pinned, kept := held(t, pins), adm.AppendBinary(nil, rec)
				cu.Close()
				return pinned, kept
			}
			t.Fatalf("the scan never reached record %d: %v", id, cu.Err())
			return nil, nil
		}},
		{"point", func(t *testing.T) ([]byte, []byte) {
			v, ok, err := p.Snapshot().Get(key)
			if !ok || err != nil {
				t.Fatalf("get %d = %v, %v", id, ok, err)
			}
			return nil, adm.AppendBinary(nil, v)
		}},
		{"point-leased", func(t *testing.T) ([]byte, []byte) {
			var l Leases
			v, ok, err := p.Snapshot().GetLeased(key, &l)
			if !ok || err != nil {
				t.Fatalf("get %d = %v, %v", id, ok, err)
			}
			pinned, kept := held(t, l.left), adm.AppendBinary(nil, v)
			l.Release()
			return pinned, kept
		}},
		{"point-leased-encoded", func(t *testing.T) ([]byte, []byte) {
			var l Leases
			v, ok, err := p.Snapshot().GetEncodedLeased(adm.AppendBinary(nil, key), &l)
			if !ok || err != nil {
				t.Fatalf("get %d = %v, %v", id, ok, err)
			}
			pinned, kept := held(t, l.left), adm.AppendBinary(nil, v)
			l.Release()
			return pinned, kept
		}},
		{"index-probe", func(t *testing.T) ([]byte, []byte) {
			cur := probeCat([]*Snapshot{p.Snapshot()}, []*BTreeIndex{ix}, id%1000)
			defer cur.Close()
			for _, rec, ok := cur.Next(); ok; _, rec, ok = cur.Next() {
				if int(rec.Field("id").IntVal()) != id {
					continue
				}
				if !cur.Transient() {
					t.Fatal("a probe row of a run with no cache is not transient")
				}
				pinned, kept := held(t, cur.capt.leases.left), adm.AppendBinary(nil, rec)
				cur.Close()
				return pinned, kept
			}
			t.Fatalf("the probe never reached record %d: %v", id, cur.Err())
			return nil, nil
		}},
		{"back-fill", func(t *testing.T) ([]byte, []byte) {
			misses := run.cache.Stats().BlockCacheScanMisses
			bf := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
			if err := p.AttachIndex(bf); err != nil {
				t.Fatal(err)
			}
			if got := run.cache.Stats().BlockCacheScanMisses - misses; got < uint64(len(run.blocks)) {
				t.Fatalf("a back-fill loaded %d of the run's %d blocks", got, len(run.blocks))
			}
			if got, want := indexEntries(bf), indexEntries(want); len(got) != n || !slices.Equal(got, want) {
				t.Fatalf("a back-fill built %d entries unlike the %d of one over a memtable", len(got), len(want))
			}
			return nil, nil
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			st0 := run.cache.Stats()
			pinned, kept := arm.read(t)
			if st := run.cache.Stats(); st.BlockCacheMisses == st0.BlockCacheMisses || st.BlockCacheEntries != 0 {
				t.Fatalf("the read made %d loads, and %d blocks stay resident", st.BlockCacheMisses-st0.BlockCacheMisses, st.BlockCacheEntries)
			}
			if bytes.Count(pinned, []byte{recycledByte}) != len(pinned) {
				t.Fatal("the block a reader let go of was not overwritten and handed back")
			}
			if kept != nil && !bytes.Equal(kept, adm.AppendBinary(nil, viewRec(id))) {
				t.Fatalf("the copy a reader kept of record %d is not the record", id)
			}
		})
	}
}

// TestLeaseOutlivesEviction: a leased block the cache evicts, or drops
// with its run, keeps its bytes for as long as the lease is held, however
// many leased loads recycle other blocks meanwhile; its release hands its
// entry back to the pool every load decodes into, overwritten.
func TestLeaseOutlivesEviction(t *testing.T) {
	for _, arm := range []string{"evicted", "dropped"} {
		t.Run(arm, func(t *testing.T) {
			var run *runFile
			b := 0
			if arm == "evicted" {
				// Splits smaller than a block: every block is evicted as soon
				// as it is admitted.
				run = partitionRuns(overBudgetRun(t, blockCacheShards, 4000))[0]
			} else {
				_, run, b = fullShardRun(t)
			}
			blk, lease, err := run.fetch(b, cursorRead)
			if err != nil || lease == nil {
				t.Fatalf("a leased miss on a full shard: lease %v, %v", lease, err)
			}
			keep := bytes.Clone(blk.data)
			if arm == "dropped" {
				run.cache.dropRun(run.id)
			}
			if e := residentEntry(t, run, b); e != nil || !lease.gone {
				t.Fatalf("block %d is still resident after its %s", b, arm)
			}
			churn(t, run)
			if !bytes.Equal(blk.data, keep) {
				t.Fatal("a leased block's bytes changed while the lease was held")
			}
			lease.release()
			// recycle resets an entry's key and shard just before it pools it.
			if lease.shard != nil || lease.key != (blockKey{}) || bytes.Count(blk.data, []byte{recycledByte}) != len(blk.data) {
				t.Fatal("a released block's bytes were not overwritten and its entry handed back")
			}
		})
	}
	// A scan whose filter fails ends its worker with rows still queued:
	// the pins of the blocks the worker stood on travel behind those rows,
	// not with the worker, so the rows read as they were stored after the
	// worker has gone. (Under splits smaller than a block, a block released
	// early would be overwritten at once.)
	t.Run("failed-scan", func(t *testing.T) {
		const n, failAt = 900, 899 // fewer rows than the scan's channel holds
		p := overBudgetRun(t, blockCacheShards, n)
		snaps := []*Snapshot{p.Snapshot()}
		want := drainScan(t, NewParallelScanCursor(snaps, nil, PartitionOrder))
		failed := errors.New("filter failed")
		filter := func(_, rec adm.Value) (bool, error) {
			if rec.Field("id").IntVal() == failAt {
				return false, failed
			}
			return true, nil
		}
		c := NewParallelScanCursor(snaps, filter, PartitionOrder)
		defer c.Close()
		c.wg.Wait() // the worker has sent every row and the error, and exited
		for i := 0; ; i++ {
			k, r, ok, err := c.Next()
			if !ok {
				if !errors.Is(err, failed) || i != failAt {
					t.Fatalf("the scan ended after %d rows with %v", i, err)
				}
				return
			}
			if got := string(adm.AppendBinary(adm.AppendBinary(nil, k), r)); got != want[i] {
				t.Fatalf("row %d of a failed leased scan changed after its worker exited", i)
			}
		}
	})
}

// TestFullCacheMissesReuseEntries: every load decodes into an entry
// from the pool the cache's evictions fill, so in steady state leased
// scans over a full cache allocate no more for missing more blocks:
// scans of runs of n and 2n records, the second missing about twice the
// blocks, allocate about as often as each other. An entry allocated per
// miss cost one allocation a missed block.
func TestFullCacheMissesReuseEntries(t *testing.T) {
	const budget, n, rounds = 2 << 20, 24000, 3
	var allocs, misses [2]float64
	for i, n := range []int{n, 2 * n} {
		p := overBudgetRun(t, budget, n)
		if size := runBytes(t, partitionRuns(p)[0]); size < 3*budget {
			t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
		}
		cache := p.opts.BlockCache
		snaps := []*Snapshot{p.Snapshot()}
		scan := func() {
			t.Helper()
			if rows, sum, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != int64(n) || sum != int64(n)*int64(n-1)/2 || err != nil {
				t.Fatalf("a leased scan saw %d rows, ids summing to %d: %v", rows, sum, err)
			}
		}
		scan() // fills the cache
		scan()
		before := cache.Stats().BlockCacheMisses
		allocs[i] = math.Inf(1)
		for range rounds {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			scan()
			runtime.ReadMemStats(&ms1)
			allocs[i] = min(allocs[i], float64(ms1.Mallocs-ms0.Mallocs))
		}
		misses[i] = float64(cache.Stats().BlockCacheMisses-before) / rounds
		t.Logf("%d records: %.0f misses and %.0f allocations a scan", n, misses[i], allocs[i])
	}
	if misses[1] < misses[0]*3/2 {
		t.Fatalf("scans of twice the records missed %.0f blocks against %.0f", misses[1], misses[0])
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	if grown := allocs[1] - allocs[0]; grown > (misses[1]-misses[0])/10 {
		t.Fatalf("%.0f more misses a scan cost %.0f more allocations: want about none", misses[1]-misses[0], grown)
	}
}

// overBudgetRun is a partition whose one run holds n viewRecs, in
// blocks of a little over runBlockTarget bytes, behind a cache of budget
// bytes.
func overBudgetRun(t *testing.T, budget int64, n int) *Partition {
	t.Helper()
	opts := cachedOptions()
	opts.MemBudget = 1 << 30
	opts.BlockCache = NewBlockCache(budget)
	return flushedPartition(t, opts, n)
}

// fullShardRun returns a partition whose cache's splits hold two and a
// half blocks, and a block b of its one run whose shard is full: two
// blocks of that shard were leased and released, so leasing b decodes
// into recycled memory and enters the ring unescaped.
func fullShardRun(t *testing.T) (*Partition, *runFile, int) {
	t.Helper()
	probe := overBudgetRun(t, blockCacheShards, 4000)
	blk, err := partitionRuns(probe)[0].loadBlock(0, block{})
	if err != nil {
		t.Fatal(err)
	}
	p := overBudgetRun(t, blk.size()*5/2*blockCacheShards, 4000)
	run := partitionRuns(p)[0]
	for _, i := range []int{0, blockCacheShards} {
		leaseAndRelease(t, run, i)
	}
	return p, run, 2 * blockCacheShards
}

// leaseAndRelease reads block b as a leased scan does and releases it at
// once.
func leaseAndRelease(t *testing.T, run *runFile, b int) {
	t.Helper()
	if _, lease, err := run.fetch(b, cursorRead); err != nil {
		t.Fatal(err)
	} else if lease != nil {
		lease.release()
	}
}

// churn leases and releases the blocks of run that share a shard with
// its block 2·blockCacheShards, past it, enough of them to cycle that
// shard's ring several times.
func churn(t *testing.T, run *runFile) {
	t.Helper()
	for i := 3 * blockCacheShards; i < 20*blockCacheShards && i < len(run.blocks); i += blockCacheShards {
		leaseAndRelease(t, run, i)
	}
}

// residentEntry returns block b's entry if the cache holds it.
func residentEntry(t *testing.T, run *runFile, b int) *blockEntry {
	t.Helper()
	k := blockKey{run: run.id, block: b}
	s := run.cache.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[k]
}

// TestSelectiveLeasedScanBoundsPins: a leased scan whose filter passes
// one row in the whole run still hands back the blocks it has left as it
// goes: its worker sends a batch, rows or none, every few blocks. So the
// blocks the cache evicts behind the scan are recycled while it runs,
// and a scan that starts with an empty pool allocates in proportion to
// the ring's share of the cache, not to the data. A batch that carried
// its pins until scanBatchSize rows had passed would keep every block of
// the run alive until the scan ended, and each miss past the ring's
// first would decode into fresh memory.
func TestSelectiveLeasedScanBoundsPins(t *testing.T) {
	const budget, n, match = 2 << 20, 24000, 17000
	p := overBudgetRun(t, budget, n)
	if size := runBytes(t, partitionRuns(p)[0]); size < 3*budget {
		t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
	}
	cache := p.opts.BlockCache
	snaps := []*Snapshot{p.Snapshot()}
	rare := func(_, rec adm.Value) (bool, error) { return rec.Field("id").IntVal() == match, nil }
	scan := func() uint64 {
		// Only what the cache lets go of during the scan can be decoded
		// into.
		for entries.Get().(*blockEntry).blk.data != nil {
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, sum, err := countScan(NewParallelScanCursor(snaps, rare, PartitionOrder))
		runtime.ReadMemStats(&after)
		if rows != 1 || sum != match || err != nil {
			t.Fatalf("a scan for id %d saw %d rows, ids summing to %d: %v", match, rows, sum, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	scan() // fills the cache
	recycled := cache.Stats().BlockCacheRecycled
	alloc := scan()
	if got := cache.Stats().BlockCacheRecycled; got == recycled {
		t.Fatalf("a selective leased scan over a full cache recycled nothing (%d before and after)", got)
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	for range 2 {
		alloc = min(alloc, scan())
	}
	if alloc > budget/ringShare {
		t.Fatalf("a selective leased scan allocated %d bytes: want at most the ring's share (%d)", alloc, budget/ringShare)
	}
}

// TestFullCachePointReadLeavesBlockRecyclable: on a full shard a point
// read pins the block it reads, copies its one record out and releases
// the pin, so the block stays unescaped — a second touch, admitted from
// its frame, decoding into the memory of a block the cache let go of.
// Evicted, the block's bytes are overwritten (recycledByte) and handed
// to the next full-shard load, and the record the read returned reads as
// it did. A point read that returned a view of its block escaped it, and
// the block's memory went to the garbage collector.
func TestFullCachePointReadLeavesBlockRecyclable(t *testing.T) {
	p, run, b := fullShardRun(t)
	cache := run.cache
	// admit point-reads block b's first key twice — a first touch on a
	// full shard is declined, the second admitted — and returns the
	// second read's record.
	admit := func(b int) adm.Value {
		t.Helper()
		getBlockKey(t, p, run, b)
		k := adm.ViewAlias(run.blocks[b].firstKey)
		v, ok, err := p.Get(k)
		if !ok || err != nil || v.Field("id").IntVal() != k.IntVal() {
			t.Fatalf("get %v = %v, %v, %v", k, v, ok, err)
		}
		if e := residentEntry(t, run, b); e == nil || e.pins != 0 {
			t.Fatalf("block %d after a point read on a full shard: resident %v, pinned", b, e != nil)
		}
		return v
	}
	recycled := cache.Stats().BlockCacheRecycled
	v := admit(b)
	if !raceEnabled && cache.Stats().BlockCacheRecycled == recycled {
		t.Fatal("a second touch admitted from its frame on a full shard decoded into fresh memory")
	}
	keep := adm.AppendBinary(nil, v)
	e := residentEntry(t, run, b)
	e.shard.mu.Lock()
	data := e.blk.data
	e.shard.mu.Unlock()
	// More point blocks of b's shard, each read twice, until b goes: hot's
	// coldest once the ring's block has gone, evicted by an admission or by
	// the frame log's growth. Its bytes are overwritten at once.
	next := b + blockCacheShards
	for residentEntry(t, run, b) != nil {
		if next >= len(run.blocks) {
			t.Fatalf("block %d is still resident", b)
		}
		getBlockKey(t, p, run, next)
		if residentEntry(t, run, b) != nil {
			getBlockKey(t, p, run, next)
		}
		next += blockCacheShards
	}
	if bytes.Count(data, []byte{recycledByte}) != len(data) {
		t.Fatal("an evicted point block's bytes were not overwritten and handed back")
	}
	recycled = cache.Stats().BlockCacheRecycled
	admit(next) // decodes into what the cache let go of
	if !raceEnabled && cache.Stats().BlockCacheRecycled == recycled {
		t.Fatal("the load after a point block's eviction recycled nothing")
	}
	if got := adm.AppendBinary(nil, v); !bytes.Equal(got, keep) || adm.Compare(v, viewRec(int(v.Field("id").IntVal()))) != 0 {
		t.Fatal("the record a point read returned changed after its block was recycled")
	}
}

// indexEntries lists ix's entries in order.
func indexEntries(ix *BTreeIndex) []string {
	var out []string
	ix.tree.AscendFrom(nil, func(e index.Entry[string, struct{}]) bool {
		out = append(out, e.Key)
		return true
	})
	return out
}

// TestIndexBackfillLeasesItsBlocks: a back-fill over a run three times
// the size of a small cache leases the blocks it reads and releases them
// chunk by chunk, so it leaves no escaped block in the cache and, once
// the cache is full, decodes into the memory of the blocks it evicts.
// The index it builds is the one a back-fill over a run with no cache
// builds, entry for entry, after leased scans have recycled every block
// it read.
func TestIndexBackfillLeasesItsBlocks(t *testing.T) {
	const budget, n = 2 << 20, 24000
	p := overBudgetRun(t, budget, n)
	if size := runBytes(t, partitionRuns(p)[0]); size < 3*budget {
		t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
	}
	cache := p.opts.BlockCache
	ix := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
	if err := p.AttachIndex(ix); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.BlockCacheEntries == 0 || st.BlockCacheEvictions == 0 || !raceEnabled && st.BlockCacheRecycled == 0 {
		t.Fatalf("a back-fill over a full cache: %+v", st)
	}
	for i := range cache.shards {
		s := &cache.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if e.pins != 0 {
				t.Errorf("block %d after the back-fill: %d pins", k.block, e.pins)
			}
		}
		s.mu.Unlock()
	}
	snaps := []*Snapshot{p.Snapshot()}
	for range 2 {
		if rows, _, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != int64(n) || err != nil {
			t.Fatalf("a leased scan saw %d rows: %v", rows, err)
		}
	}
	bare := flushedPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8}, n)
	want := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
	if err := bare.AttachIndex(want); err != nil {
		t.Fatal(err)
	}
	if got, want := indexEntries(ix), indexEntries(want); len(got) != n || !slices.Equal(got, want) {
		t.Fatalf("a leased back-fill built %d entries unlike an unleased one's %d", len(got), len(want))
	}
}

// TestFullCachePointReadAllocationsIndependentOfN: point reads between
// leased scans, over runs three and six times the size of a small cache,
// allocate about one copy of their record each — about 300 bytes here —
// whatever the data size: a second touch, admitted from its frame,
// decodes into the memory of a block the scans evicted, and a hit
// copies its record out of a pinned block. Admitting a point block into fresh memory cost 17 KB a block.
func TestFullCachePointReadAllocationsIndependentOfN(t *testing.T) {
	const budget, reads = 2 << 20, 200
	for _, n := range []int{24000, 48000} {
		p := overBudgetRun(t, budget, n)
		if size := runBytes(t, partitionRuns(p)[0]); size < 3*budget {
			t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
		}
		snaps := []*Snapshot{p.Snapshot()}
		scan := func() {
			t.Helper()
			if rows, _, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != int64(n) || err != nil {
				t.Fatalf("a leased scan saw %d rows: %v", rows, err)
			}
		}
		scan() // fills the cache
		perRead := math.Inf(1)
		for round := range 3 {
			scan()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range reads / 2 {
				// Each key twice: on a full shard its first read is declined
				// and its second admitted.
				k := int64((round*reads + i) * 7919 % n)
				for range 2 {
					if v, ok, err := p.Get(adm.Int(k)); !ok || err != nil || v.Field("id").IntVal() != k {
						t.Fatalf("get %d = %v, %v, %v", k, v, ok, err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			perRead = min(perRead, float64(after.TotalAlloc-before.TotalAlloc)/reads)
		}
		st := p.opts.BlockCache.Stats()
		t.Logf("%d records: %.0f B a point read (%d point admissions, %d recycled loads)", n, perRead, pointAdmissions(st), st.BlockCacheRecycled)
		if perRead > 1024 && !raceEnabled { // sync.Pool drops a quarter of its Puts at random under -race
			t.Errorf("%d records: a point read between leased scans allocated %.0f B: want about one record copy", n, perRead)
		}
	}
}

// blockOf is the block of run whose key range holds key, an encoding.
func blockOf(run *runFile, key []byte) int {
	return sort.Search(len(run.blocks), func(i int) bool {
		return adm.CompareEncoded(run.blocks[i].firstKey, key) > 0
	}) - 1
}

// residentPins sums the pins held on the blocks the cache holds.
func residentPins(cache *BlockCache) int {
	pins := 0
	for i := range cache.shards {
		s := &cache.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			pins += int(e.pins)
		}
		s.mu.Unlock()
	}
	return pins
}

// indexedOverBudgetRun is overBudgetRun with a B-tree index on cat,
// back-filled, and a snapshot: a probe's rows are one record in every
// thousand, each in a block of its own.
func indexedOverBudgetRun(t *testing.T, budget int64, n int) (*Partition, []*Snapshot, []*BTreeIndex) {
	t.Helper()
	p := overBudgetRun(t, budget, n)
	if size := runBytes(t, partitionRuns(p)[0]); size < 3*budget {
		t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
	}
	ix := NewBTreeIndex("byCat", FieldKeyExtractor("cat"))
	if err := p.AttachIndex(ix); err != nil {
		t.Fatal(err)
	}
	return p, []*Snapshot{p.Snapshot()}, []*BTreeIndex{ix}
}

// probeCat is a leased index scan for the records whose cat is c%04d.
func probeCat(snaps []*Snapshot, idxs []*BTreeIndex, c int) *IndexScanCursor {
	cat := index.Include(adm.String(fmt.Sprintf("c%04d", c)))
	return NewIndexScanCursor(snaps, idxs, cat, cat)
}

// TestFullCacheIndexScanHoldsOneBlock: a leased index scan over a run
// three times the size of a full cache reads each row where it lies — a
// pinned cached entry, or the private entry a declined miss decoded
// into — and holds that one entry until the next Next or Close. A row stays
// the record it is while leased scans and point reads evict every other
// block, its own included; once its block is evicted and the hold let
// go, the row's bytes read recycledByte. Over runs of n and 2n records,
// a row costs less than a record's size in allocations: nothing is
// copied, and the block a second touch admitted from its frame decodes
// into was recycled. Copying each row out cost a record a row.
func TestFullCacheIndexScanHoldsOneBlock(t *testing.T) {
	const budget, n = 2 << 20, 24000
	t.Run("one block", func(t *testing.T) { checkIndexScanHolds(t, budget, n) })
	t.Run("allocations", func(t *testing.T) {
		if raceEnabled {
			t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
		}
		checkIndexScanAllocations(t, budget, n)
	})
}

// checkIndexScanHolds is TestFullCacheIndexScanHoldsOneBlock's hold
// check, over a run of n records behind a cache of budget bytes.
func checkIndexScanHolds(t *testing.T, budget int64, n int) {
	p, snaps, idxs := indexedOverBudgetRun(t, budget, n)
	run := partitionRuns(p)[0]
	cache := run.cache
	scan := func() {
		t.Helper()
		if rows, _, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != int64(n) || err != nil {
			t.Fatalf("a leased scan saw %d rows: %v", rows, err)
		}
	}
	// evict makes block b leave the cache under the probe that pins it,
	// and the cache full again: b's entry is taken out as fit takes a
	// pinned block once every block of its shard is pinned (no traffic
	// of this test pins them all), then a leased scan takes the ring, and
	// two point reads of every other block admit each into hot, evicting
	// the copy of b the scan loaded. b's frame goes too, so the next
	// read of b is a first touch, which a full shard declines.
	evict := func(b int) {
		t.Helper()
		k := blockKey{run: run.id, block: b}
		s := cache.shard(k)
		s.mu.Lock()
		if e := s.entries[k]; e != nil {
			s.remove(e)
		}
		s.mu.Unlock()
		scan()
		for i := range run.blocks {
			if i != b {
				getBlockKey(t, p, run, i)
				getBlockKey(t, p, run, i)
			}
		}
		if residentEntry(t, run, b) != nil {
			t.Fatalf("block %d is still resident", b)
		}
		s.mu.Lock()
		s.used += s.frames.forgetKey(k)
		s.mu.Unlock()
	}
	scan() // fills the cache
	for c := range 20 {
		cur := probeCat(snaps, idxs, c)
		rows := 0
		for _, rec, ok := cur.Next(); ok; _, rec, ok = cur.Next() {
			private := 0
			for _, e := range cur.capt.leases.left {
				if e.shard == nil {
					private++
				}
			}
			if held := residentPins(cache) + private; held > 1 || len(cur.capt.leases.left) > 1 {
				t.Fatalf("cat %d row %d: the scan holds %d blocks (%d entries)", c, rows, held, len(cur.capt.leases.left))
			}
			if id := int(rec.Field("id").IntVal()); !bytes.Equal(adm.AppendBinary(nil, rec), adm.AppendBinary(nil, viewRec(id))) {
				t.Fatalf("cat %d: row %d is not record %d", c, rows, id)
			}
			rows++
		}
		if rows != n/1000 || cur.Err() != nil {
			t.Fatalf("cat %d: %d rows, want %d: %v", c, rows, n/1000, cur.Err())
		}
		if cur.Transient() || residentPins(cache) != 0 {
			t.Fatalf("cat %d: a drained scan holds a block", c)
		}
	}
	// A probe's first row, its block evicted under it: by kind of entry
	// held, a cached one or a private one.
	checked := map[string]bool{}
	for c := 20; c < 1000 && len(checked) < 2; c++ {
		cur := probeCat(snaps, idxs, c)
		_, rec, ok := cur.Next()
		if !ok {
			t.Fatalf("cat %d: no row", c)
		}
		kind, data := "a view", []byte(nil)
		if l := cur.capt.leases.left; len(l) == 1 {
			kind, data = "a private block", l[0].blk.data
			if l[0].shard != nil {
				kind = "a pinned block"
			}
		}
		id := int(rec.Field("id").IntVal())
		evict(blockOf(run, adm.AppendBinary(nil, adm.Int(int64(id)))))
		if !bytes.Equal(adm.AppendBinary(nil, rec), adm.AppendBinary(nil, viewRec(id))) {
			t.Fatalf("cat %d: a row read as %s changed once its block was evicted", c, kind)
		}
		if !cur.Transient() {
			t.Fatalf("cat %d: a row read from a full cache as %s is not transient", c, kind)
		}
		cur.Close()
		if bytes.Count(data, []byte{recycledByte}) != len(data) {
			t.Fatalf("cat %d: the bytes of %s, released, were not overwritten", c, kind)
		}
		checked[kind] = true
	}
	if len(checked) < 2 {
		t.Fatalf("the scans held blocks of the kinds %v, not both", checked)
	}
}

// checkIndexScanAllocations is TestFullCacheIndexScanHoldsOneBlock's
// allocation check, over runs of n and 2n records.
func checkIndexScanAllocations(t *testing.T, budget int64, n int) {
	recSize := len(adm.AppendBinary(nil, viewRec(n)))
	const cats = 40
	for _, n := range []int{n, 2 * n} {
		_, snaps, idxs := indexedOverBudgetRun(t, budget, n)
		scan := func() {
			t.Helper()
			if rows, _, err := countScan(NewParallelScanCursor(snaps, nil, PartitionOrder)); rows != int64(n) || err != nil {
				t.Fatalf("a leased scan saw %d rows: %v", rows, err)
			}
		}
		scan() // fills the cache
		perRow := math.Inf(1)
		transient := 0
		for round := range 3 {
			scan()
			var before, after runtime.MemStats
			rows := 0
			runtime.ReadMemStats(&before)
			for c := range cats {
				cur := probeCat(snaps, idxs, (round*cats+c)*7%1000)
				for _, rec, ok := cur.Next(); ok; _, rec, ok = cur.Next() {
					if rec.Field("cat").IsMissing() {
						t.Fatal("a row without its cat")
					}
					if cur.Transient() {
						transient++
					}
					rows++
				}
			}
			runtime.ReadMemStats(&after)
			if rows != cats*n/1000 {
				t.Fatalf("%d probes saw %d rows, want %d", cats, rows, cats*n/1000)
			}
			perRow = min(perRow, float64(after.TotalAlloc-before.TotalAlloc)/float64(rows))
		}
		t.Logf("%d records: %.0f B a row (%d-byte records; %d rows transient)", n, perRow, recSize, transient)
		if transient == 0 || perRow >= float64(recSize) {
			t.Errorf("%d records: a leased index scan over a full cache allocated %.0f B a row (%d transient): want less than a record's %d", n, perRow, transient, recSize)
		}
	}
}
