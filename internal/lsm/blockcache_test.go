package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// TestBlockCacheOps unit-tests the shard accounting: get/insert, LRU
// eviction under budget pressure, dropRun, and a block no shard can hold.
func TestBlockCacheOps(t *testing.T) {
	blk := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	perEntry := blk.size()

	c := NewBlockCache(perEntry * blockCacheShards * 2) // 2 entries per shard
	if _, ok := c.get(1, 0); ok {
		t.Fatal("get on empty cache hit")
	}
	c.insert(1, 0, blk)
	st := c.Stats()
	if st.BlockCacheEntries != 1 || st.BlockCacheBytes != perEntry || st.BlockCacheMisses != 1 {
		t.Fatalf("after insert: %+v", st)
	}
	// A second reader gets the resident block; a racing insert of the same
	// block does too, and adds nothing.
	other := loadTestBlock(t, []index.Item{{Key: adm.Int(1), Val: adm.String("x")}})
	got, ok := c.get(1, 0)
	if !ok || &got.data[0] != &blk.data[0] {
		t.Fatal("get did not return the resident block")
	}
	if got = c.insert(1, 0, other); &got.data[0] != &blk.data[0] {
		t.Fatal("a racing insert replaced the resident block")
	}
	if st = c.Stats(); st.BlockCacheEntries != 1 || st.BlockCacheBytes != perEntry || st.BlockCacheHits != 1 {
		t.Fatalf("after the second reader: %+v", st)
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
	c.insert(3, 0, blk)
	for i := 1; i < 64; i++ {
		if _, ok := c.get(3, 0); !ok {
			t.Fatalf("the hottest block was evicted at insert %d", i)
		}
		c.insert(3, i, blk)
	}
	st = c.Stats()
	if st.BlockCacheEvictions == 0 || st.BlockCacheBytes > perEntry*blockCacheShards*2 {
		t.Fatalf("under %dx budget pressure: %+v", 64, st)
	}

	// A block larger than a shard's split is handed back to its reader and
	// is not resident afterwards; what the shard held goes with it and the
	// list stays usable.
	items := make([]index.Item, 8)
	for i := range items {
		items[i] = index.Item{Key: adm.Int(int64(i)), Val: adm.String("payload-payload-payload-payload")}
	}
	big := loadTestBlock(t, items)
	if big.size() <= 2*perEntry {
		t.Fatalf("the large block is %d bytes, a shard's split %d", big.size(), 2*perEntry)
	}
	if got = c.insert(4, 0, big); got.entries() != len(items) {
		t.Fatalf("insert returned a block of %d entries, want %d", got.entries(), len(items))
	}
	if _, ok := c.get(4, 0); ok {
		t.Fatal("a block larger than its shard's split stayed resident")
	}
	s := c.shard(blockKey{run: 4, block: 0})
	if s.used != 0 || len(s.entries) != 0 || s.head != nil || s.tail != nil {
		t.Fatalf("the shard after the large block: used %d, %d entries, head %v, tail %v", s.used, len(s.entries), s.head, s.tail)
	}
	c.insert(4, 8, blk) // the same shard: (4*31+8) % 8 == (4*31+0) % 8
	if _, ok := c.get(4, 8); !ok || s.head == nil || s.head != s.tail || s.used != perEntry {
		t.Fatalf("the shard does not take a block after the large one: used %d", s.used)
	}
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
	// 8 KiB a shard: a flush's block fits, a compaction's 16 KiB block
	// never does, so eviction is constant. (A smaller cache holds nothing:
	// a block larger than its shard's split does not stay.)
	cache := NewBlockCache(64 << 10)
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
		gotOn, okOn, _ := pOn.Get(k)
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
	if cs := cache.Stats(); st.BlockReads == 0 || cs.BlockCacheHits == 0 || cs.BlockCacheEvictions == 0 {
		t.Fatalf("workload never exercised the cache: part=%+v cache=%+v", st, cache.Stats())
	}

	// A clean close and reopen (fresh cache) must converge to the same
	// state.
	if err := pOn.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenPartition(fsOn.Crash(), "part", opts(NewBlockCache(64<<10)))
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
	// Readers drive the duration; stop the writer when they finish.
	readers.Wait()
	close(done)
	writers.Wait()

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}
