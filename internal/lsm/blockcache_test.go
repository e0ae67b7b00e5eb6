package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// TestBlockCacheOps unit-tests the shard accounting: acquire/insert
// pinning, release, LRU eviction under budget pressure, and dropRun
// semantics for pinned (dead) entries.
func TestBlockCacheOps(t *testing.T) {
	blk := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	perEntry := blk.size()

	c := NewBlockCache(perEntry * blockCacheShards * 2) // 2 entries per shard
	if _, ok := c.acquire(1, 0); ok {
		t.Fatal("acquire on empty cache hit")
	}
	e := c.insert(1, 0, blk)
	st := c.Stats()
	if st.BlockCacheEntries != 1 || st.BlockCachePinned != 1 || st.BlockCacheMisses != 1 {
		t.Fatalf("after insert: %+v", st)
	}
	// A second acquire shares the entry and stacks a pin.
	e2, ok := c.acquire(1, 0)
	if !ok || e2 != e {
		t.Fatal("acquire did not return the resident entry")
	}
	c.release(e2)
	c.release(e)
	st = c.Stats()
	if st.BlockCachePinned != 0 || st.BlockCacheEntries != 1 || st.BlockCacheHits != 1 {
		t.Fatalf("after releases: %+v", st)
	}

	// dropRun on an unpinned entry frees it immediately.
	c.dropRun(1)
	if st = c.Stats(); st.BlockCacheEntries != 0 || st.BlockCacheBytes != 0 {
		t.Fatalf("after dropRun: %+v", st)
	}

	// dropRun while pinned: the entry leaves the cache but its block stays
	// readable, and release must not corrupt accounting.
	e = c.insert(2, 0, blk)
	c.dropRun(2)
	if st = c.Stats(); st.BlockCacheEntries != 0 || st.BlockCachePinned != 0 {
		t.Fatalf("after dropRun of pinned: %+v", st)
	}
	if k, _, err := adm.DecodeBinary(e.blk.key(0)); e.blk.entries() != 1 || err != nil || adm.Compare(k, adm.Int(1)) != 0 {
		t.Fatal("dead entry's block was reclaimed while pinned")
	}
	c.release(e)
	if st = c.Stats(); st.BlockCachePinned != 0 || st.BlockCacheBytes != 0 {
		t.Fatalf("after releasing dead entry: %+v", st)
	}

	// Budget pressure evicts cold unpinned entries; pinned entries are
	// skipped even at the cold end.
	pinned := c.insert(3, 0, blk)
	for i := 1; i < 64; i++ {
		c.release(c.insert(3, i, blk))
	}
	repin, ok := c.acquire(3, 0)
	if !ok {
		t.Fatal("pinned entry was evicted")
	}
	st = c.Stats()
	if st.BlockCacheEvictions == 0 {
		t.Fatalf("no evictions under %dx budget pressure: %+v", 64, st)
	}
	c.release(repin)
	c.release(pinned)
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

// TestBlockCacheEvictionPinning proves the retire protocol end to end on
// a real run file: a cursor parked mid-block keeps (a) its cache entry's
// items alive through dropRun and (b) the retired file open until the
// cursor finishes — only then does the file close.
func TestBlockCacheEvictionPinning(t *testing.T) {
	fs := NewMemFS()
	cache := NewBlockCache(1) // clamped to minimum: every insert evicts
	items := make([]index.Item, 600)
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: adm.String("payload-payload-payload-payload-payload-payload-payload-payload")}
	}
	rf, err := writeRun(fs, "runs", "pin.run", runEnv{cache: cache}, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.blocks) < 2 {
		t.Fatalf("need multiple blocks, got %d", len(rf.blocks))
	}

	cur := rf.cursor()
	it, ok := cur.next() // parks the cursor on block 0's pinned entry
	if !ok || adm.Compare(it.Key, items[0].Key) != 0 {
		t.Fatalf("cursor first item = %v,%v", it, ok)
	}

	// Retire the run while the cursor is mid-block: the owner reference
	// drops and the cache entries are dropped, but the file must stay
	// open for the cursor.
	rf.retire()
	if rf.closed.Load() {
		t.Fatal("retired run closed while a cursor is mid-run")
	}

	// The cursor must still drain every item correctly from the retired,
	// cache-dropped run.
	n := 1
	for {
		it, ok := cur.next()
		if !ok {
			break
		}
		if adm.Compare(it.Key, items[n].Key) != 0 {
			t.Fatalf("item %d mismatch after retire", n)
		}
		n++
	}
	if n != len(items) {
		t.Fatalf("drained %d items, want %d", n, len(items))
	}
	// Exhaustion auto-closes the cursor, releasing the last reference.
	if !rf.closed.Load() {
		t.Fatal("retired run still open after its last cursor finished")
	}
	if st := cache.Stats(); st.BlockCachePinned != 0 {
		t.Fatalf("leaked pins: %+v", st)
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
// stores: a tiny-budget cached partition (evictions constantly), an
// uncached partition, and a shadow map. All three must agree at every
// checkpoint, and the cached partition must agree again after a clean
// reopen.
func TestBlockCacheDifferential(t *testing.T) {
	const keySpace = 512
	opts := func(cache *BlockCache) Options {
		return Options{MemBudget: 4 << 10, MaxComponents: 6, WALSegBytes: 16 << 10, BlockCache: cache}
	}
	cache := NewBlockCache(8 << 10) // a few blocks; constant eviction
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

	r := rand.New(rand.NewSource(1234))
	version := int64(0)
	checkKey := func(k adm.Value, tag string) {
		t.Helper()
		want, inShadow := shadow[k.IntVal()]
		gotOn, okOn := pOn.Get(k)
		gotOff, okOff := pOff.Get(k)
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
		}
		if round%5 == 0 {
			checkScan(fmt.Sprintf("round %d", round))
		}
	}
	checkScan("final")
	st := pOn.Stats()
	if st.BlockReads == 0 || cache.Stats().BlockCacheHits == 0 {
		t.Fatalf("workload never exercised the cache: part=%+v cache=%+v", st, cache.Stats())
	}

	// A clean close and reopen (fresh cache) must converge to the same
	// state.
	if err := pOn.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenPartition(fsOn.Crash(), "part", opts(NewBlockCache(8<<10)))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	defer pOff.Close()
	pOn = reopened
	for k, want := range shadow {
		got, ok := pOn.Get(adm.Int(k))
		if !ok || got.Field("v").IntVal() != want {
			t.Fatalf("reopen: key %d = %v,%v want %d", k, got, ok, want)
		}
	}
}

// TestBlockCacheConcurrentReaders hammers one cached partition under the
// race detector: a writer keeps upserting and flushing (so compaction
// retires runs and drops their cache entries) while readers point-look-up
// a sealed key range and walk snapshot cursors, sharing the cache.
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
				got, ok := p.Get(adm.Int(k))
				if k < sealed {
					if !ok || got.Field("v").IntVal() != k {
						t.Errorf("sealed key %d = %v,%v", k, got, ok)
						return
					}
				}
				if it%50 == 0 { // partial scans exercise cursor pins + early close
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
	// Readers drive the duration; stop the writer when they finish.
	readers.Wait()
	close(done)
	writers.Wait()

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	// WaitForFlush covers flushes only: the flusher may still be inside
	// a compaction whose input cursors hold pins. Wait for it to finish
	// before calling a pin leaked.
	deadline := time.Now().Add(10 * time.Second)
	for cache.Stats().BlockCachePinned != 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if st := cache.Stats(); st.BlockCachePinned != 0 {
		t.Fatalf("leaked pins after workload: %+v", st)
	}
}
