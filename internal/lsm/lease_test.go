package lsm

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
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
// encodings, copied before the next pull — what a consumer of a leased
// scan must do with what it keeps.
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

// TestFullCacheScanRecyclesRingBlocks: two leased scans run together
// over data three times and more the size of a small cache. Once the
// cache is full, each block they load decodes into the memory of a ring
// block the cache let go of, so a scan allocates in proportion to the
// ring's share of the cache, not to the data — an unleased scan
// allocates every block it misses — and the rows are an unleased scan's
// rows, byte for byte.
func TestFullCacheScanRecyclesRingBlocks(t *testing.T) {
	const budget, n = 2 << 20, 24000
	p := overBudgetRun(t, budget, n)
	run := partitionRuns(p)[0]
	if size := runBytes(t, run); size < 3*budget {
		t.Fatalf("the run holds %d bytes, not three times the cache's %d", size, budget)
	}
	cache := p.opts.BlockCache
	snaps := []*Snapshot{p.Snapshot()}
	want := drainScan(t, NewParallelScanCursor(snaps, nil, PartitionOrder))
	if len(want) != n {
		t.Fatalf("an unleased scan saw %d rows", len(want))
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
	together(func(i int) { got[i] = drainScan(t, NewLeasedScanCursor(snaps, nil, PartitionOrder)) })
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Fatalf("leased scan %d saw %d rows unlike an unleased scan's %d", i, len(got[i]), len(want))
		}
	}
	if cs := cache.Stats(); cs.BlockCacheRecycled == 0 || cs.BlockCacheEvictions == 0 {
		t.Fatalf("two leased scans over a full cache recycled %d blocks (%d evictions)", cs.BlockCacheRecycled, cs.BlockCacheEvictions)
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	measure := func(open func([]*Snapshot, func(key, rec adm.Value) (bool, error), ScanOrder) *ParallelScanCursor) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		together(func(int) {
			if rows, sum, err := countScan(open(snaps, nil, PartitionOrder)); rows != n || sum != n*(n-1)/2 || err != nil {
				t.Errorf("a scan saw %d rows, ids summing to %d: %v", rows, sum, err)
			}
		})
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 2
	}
	leased, unleased := measure(NewLeasedScanCursor), measure(NewParallelScanCursor)
	for range 2 {
		leased = min(leased, measure(NewLeasedScanCursor))
	}
	if leased > budget/ringShare || unleased < budget {
		t.Logf("stats %+v", cache.Stats())
		t.Fatalf("a scan allocated %d bytes leased, %d unleased: want at most the ring's share (%d) leased", leased, unleased, budget/ringShare)
	}
}

// TestEscapedBlockIsNeverRecycled: a ring block a leased scan loaded
// into recycled memory escapes once a reader that does not lease has
// it — a point hit, a serial scan's cursor, a waiter on the leased load
// — and its eviction leaves its bytes to the garbage collector: what
// that reader was handed still equals the copy taken at read time after
// leased scans have recycled every other block.
func TestEscapedBlockIsNeverRecycled(t *testing.T) {
	arms := []struct {
		name string
		// read makes block b resident, or joins its load, as a reader that
		// does not lease, and returns the bytes it was handed.
		read func(t *testing.T, p *Partition, run *runFile, b int) []byte
	}{
		{"point-hit", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			leaseAndRelease(t, run, b)
			v, ok, err := p.Get(adm.ViewAlias(run.blocks[b].firstKey))
			if !ok || err != nil {
				t.Fatalf("get = %v, %v", ok, err)
			}
			return adm.AppendBinary(nil, v)
		}},
		{"serial-scan", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			leaseAndRelease(t, run, b)
			c := run.cursor()
			c.block = b
			if _, _, ok, err := c.advance(); !ok {
				t.Fatal(err)
			}
			return c.val
		}},
		{"stable-waiter", func(t *testing.T, p *Partition, run *runFile, b int) []byte {
			cache := run.cache
			gate := make(chan struct{})
			leased := make(chan *blockEntry)
			go func() {
				_, lease, _, err := cache.fetch(run.id, b, leasedScan, func(reuse block) (block, error) {
					<-gate
					return run.loadBlock(b, reuse)
				})
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
			waiter := make(chan block)
			go func() {
				blk, _, _, err := cache.fetch(run.id, b, scanRead, func(block) (block, error) { return block{}, errNotResident })
				if err != nil {
					t.Error(err)
				}
				waiter <- blk
			}()
			for cache.Stats().BlockCacheHits == hits {
				runtime.Gosched()
			}
			close(gate)
			blk := <-waiter
			if lease := <-leased; lease != nil {
				lease.release()
			}
			return blk.val(0)
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			p, run, b := fullShardRun(t)
			got := arm.read(t, p, run, b)
			keep := bytes.Clone(got)
			e := residentEntry(t, run, b)
			if e == nil || !e.escaped {
				t.Fatalf("block %d after a reader that does not lease: %+v", b, e)
			}
			recycled := run.cache.Stats().BlockCacheRecycled
			churn(t, run) // evicts block b
			run.cache.dropRun(run.id)
			churn(t, run) // decodes into every buffer the cache let go of
			if !bytes.Equal(got, keep) {
				t.Fatalf("the bytes a reader was handed changed after their block's eviction")
			}
			if !raceEnabled && run.cache.Stats().BlockCacheRecycled == recycled {
				t.Fatal("the leased scans after the eviction recycled nothing")
			}
		})
	}
}

// TestLeaseOutlivesEviction: a leased block the cache evicts, or drops
// with its run, keeps its bytes for as long as the lease is held, however
// many leased loads recycle other blocks meanwhile; its release hands its
// buffers back to the pool full-shard leased misses decode into,
// overwritten.
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
			blk, lease, err := run.scanBlock(b, true)
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
			if lease.box != nil || bytes.Count(blk.data, []byte{recycledByte}) != len(blk.data) {
				t.Fatal("a released block's bytes were not overwritten and handed back")
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
		c := NewLeasedScanCursor(snaps, filter, PartitionOrder)
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
	if _, lease, err := run.scanBlock(b, true); err != nil {
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
		for blockBufs.Get().(*block).data != nil {
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, sum, err := countScan(NewLeasedScanCursor(snaps, rare, PartitionOrder))
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
