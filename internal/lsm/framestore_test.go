package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// TestFrameStoreReturnsWhatItKept drives one store through random keeps
// of frames of random sizes — many times its share, so its log wraps
// again and again, and now and then one larger than the share, which
// leaves its key alone — and random forgets, against a model of the
// frames kept: every resident key looks up the very bytes kept for it
// (none for a key kept alone), the newest key is always resident, the
// log never outgrows its share and holds its records, and the changes
// the store reports add up to its log's length. A run forgotten whole
// leaves no key resident, and an emptied store gives its log back.
func TestFrameStoreReturnsWhatItKept(t *testing.T) {
	const limit = 8 << 10
	var f frameStore
	rnd := rand.New(rand.NewSource(7))
	kept := map[blockKey][]byte{}
	var buf []byte
	var charge int64
	for op := 0; op < 20000; op++ {
		k := blockKey{run: uint64(1 + rnd.Intn(4)), block: rnd.Intn(64)}
		switch r := rnd.Intn(100); {
		case r < 2:
			charge += f.forget(k.run)
			for key := range kept {
				if key.run == k.run {
					delete(kept, key)
				}
			}
		case r < 5:
			charge += f.forgetKey(k)
			delete(kept, k)
		default:
			_, resident := f.at[k]
			frame := make([]byte, rnd.Intn(limit/4))
			if r < 7 {
				frame = make([]byte, limit)
			}
			rnd.Read(frame)
			charge += f.keep(k, frame, limit)
			if !resident {
				kept[k] = frame
				if len(frame) > limit-frameRecHeader {
					kept[k] = nil
				}
			}
			if _, ok := f.at[k]; !ok {
				t.Fatalf("op %d: a %d-byte frame just kept is not resident", op, len(frame))
			}
		}
		if len(f.log) > limit || charge != int64(len(f.log)) || f.empty() {
			t.Fatalf("op %d: a %d-byte log, charged %d, empty %v; the share is %d", op, len(f.log), charge, f.empty(), limit)
		}
		for key := range f.at {
			var ok bool
			if buf, ok = f.lookup(key, buf); !ok || !bytes.Equal(buf, kept[key]) {
				t.Fatalf("op %d: %v looks up %d bytes, kept %d", op, key, len(buf), len(kept[key]))
			}
		}
		for key := range kept {
			if _, ok := f.at[key]; !ok {
				delete(kept, key) // overwritten
			}
		}
	}
	for run := uint64(1); run <= 4; run++ {
		charge += f.forget(run)
	}
	if len(f.at) != 0 || !f.empty() || charge != 0 || f.log != nil {
		t.Fatalf("every run forgotten: %d keys, empty %v, charged %d, log %d bytes", len(f.at), f.empty(), charge, len(f.log))
	}
	if f.keep(blockKey{run: 1}, nil, frameRecHeader-1) != 0 || len(f.at) != 0 {
		t.Fatal("a store whose share is smaller than a record's header kept a key")
	}
}

// frameTestPartition stores n viewRecs in one run behind a cache whose
// splits hold every frame of the run, with room to spare, beside fewer
// decoded blocks than the run has: the budget is four times the run's
// frames, so each shard's frame store has twice the share of them it
// keeps. The frames' size is read off the same records written once
// without a cache (their bytes do not depend on run ids).
func frameTestPartition(t *testing.T, n int) (*Partition, *runFile) {
	t.Helper()
	opts := DefaultOptions()
	opts.MemBudget = 1 << 30
	var frames, decoded int64
	dry := partitionRuns(flushedPartition(t, opts, n))[0]
	for i, m := range dry.blocks {
		blk, err := dry.loadBlock(i, block{})
		if err != nil {
			t.Fatal(err)
		}
		frames += frameRecHeader + int64(m.length)
		decoded += blk.size()
	}
	if decoded < 4*frames {
		t.Fatalf("%d decoded bytes in %d bytes of frames: the decoded blocks would fit beside them", decoded, frames)
	}
	opts.BlockCache = NewBlockCache(4 * frames)
	p := flushedPartition(t, opts, n)
	return p, partitionRuns(p)[0]
}

// TestBlockCacheFrameHitKeepsOnlyItsRecord: once every frame of a run is
// resident and the decoded blocks are not, a point read that misses the
// decoded blocks reads no block: it decodes its block's frame into the
// entry of a block the cache let go of and keeps only a copy of its
// record — the bound a declined miss on a full cache keeps
// (TestFullCachePointMissKeepsOnlyItsRecord).
func TestBlockCacheFrameHitKeepsOnlyItsRecord(t *testing.T) {
	p, run := frameTestPartition(t, 16000)
	cache := p.opts.BlockCache
	for range 2 { // the first pass keeps every frame
		for b := range run.blocks {
			getBlockKey(t, p, run, b)
		}
	}
	st0, reads := cache.Stats(), p.renv.ctr.blockReads.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := range run.blocks {
		getBlockKey(t, p, run, b)
	}
	runtime.ReadMemStats(&after)
	st := cache.Stats()
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(run.blocks))
	frameHits := st.BlockCacheFrameHits - st0.BlockCacheFrameHits
	t.Logf("%d blocks: %d frame hits, %d recycled loads, %d frame bytes of %d: %.0f B a read",
		len(run.blocks), frameHits, st.BlockCacheRecycled-st0.BlockCacheRecycled, st.BlockCacheFrameBytes, st.BlockCacheBytes, got)
	if r := p.renv.ctr.blockReads.Load() - reads; r != 0 || frameHits < uint64(len(run.blocks))/2 {
		t.Fatalf("a pass over a run whose frames are resident read %d blocks and hit %d frames of %d blocks", r, frameHits, len(run.blocks))
	}
	if got > 2048 && !raceEnabled { // sync.Pool drops a quarter of its Puts at random under -race
		t.Fatalf("a point read served from a frame allocated %.0f B: it kept its block", got)
	}
}

// TestBlockCacheKeptFrameIsChecked: a frame the cache kept is checked as
// a frame read from the file is. One byte flipped in a resident frame —
// a byte whose change still decodes to a well-formed block, a record of
// it different — makes the next read of that block fail with a read
// fault naming the run and the block, never return the changed record;
// the bad frame is then forgotten, and the read after reads the file.
func TestBlockCacheKeptFrameIsChecked(t *testing.T) {
	opts := cachedOptions()
	p := flushedPartition(t, opts, 2000)
	run := partitionRuns(p)[0]
	const b = 1
	getBlockKey(t, p, run, b) // loads block b and keeps its frame
	k := blockKey{run: run.id, block: b}
	s := opts.BlockCache.shard(k)
	s.mu.Lock()
	s.remove(s.entries[k]) // evicted: the next read decodes the frame
	off, ok := s.frames.at[k]
	s.mu.Unlock()
	if !ok {
		t.Fatal("a loaded block's frame is not resident")
	}
	kept := s.frames.log[off+frameRecHeader : off+frameRecHeader+run.blocks[b].length]
	want, err := run.decodeFrame(b, kept, block{})
	if err != nil {
		t.Fatal(err)
	}
	// The first byte of the body whose flip, unchecked, still decodes to
	// the same keys and changes a record.
	pos, changed := -1, -1
	for i := frame.HeaderSize + 1; i < len(kept) && pos < 0; i++ {
		flipped := bytes.Clone(kept)
		flipped[i] ^= 0x01
		data, err := decodeBlockBody(flipped[frame.HeaderSize:], nil)
		if err != nil {
			continue
		}
		got, err := parseBlock(data, nil)
		if err != nil || got.entries() != want.entries() {
			continue
		}
		sameKeys, diff := true, -1
		for e := 0; e < got.entries(); e++ {
			sameKeys = sameKeys && bytes.Equal(got.key(e), want.key(e))
			if diff < 0 && !bytes.Equal(got.val(e), want.val(e)) {
				diff = e
			}
		}
		if sameKeys && diff >= 0 {
			pos, changed = i, diff
		}
	}
	if pos < 0 {
		t.Fatal("no byte of the frame changes a record and no key")
	}
	key := adm.ViewAlias(bytes.Clone(want.key(changed)))
	s.mu.Lock()
	kept[pos] ^= 0x01
	s.mu.Unlock()

	reads, hits := p.renv.ctr.blockReads.Load(), opts.BlockCache.Stats().BlockCacheFrameHits
	v, found, err := p.Get(key)
	if err == nil || found {
		t.Fatalf("a read of a flipped frame returned %v, %v, %v", v, found, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "run "+run.name) || !strings.Contains(msg, fmt.Sprintf("block %d", b)) {
		t.Fatalf("the read fault does not name run %s and block %d: %v", run.name, b, err)
	}
	if p.renv.ctr.blockReads.Load() != reads || opts.BlockCache.Stats().BlockCacheFrameHits != hits+1 {
		t.Fatal("the failed read was not a frame hit")
	}
	if v, found, err := p.Get(key); err != nil || !found || adm.Compare(v, viewRec(int(key.IntVal()))) != 0 || p.renv.ctr.blockReads.Load() != reads+1 {
		t.Fatalf("the read after the fault: %v, %v, %v, %d block reads", v, found, err, p.renv.ctr.blockReads.Load()-reads)
	}
}

// TestBlockCacheFrameLogWrapsUnderReaders: point readers share a cache
// whose frame stores hold a fraction of a run's frames, so every store's
// log wraps and overwrites its oldest frames while other readers copy
// frames out of it and decode them. Every read returns the record
// stored. Run under the race detector, this checks that a frame is only
// read under its shard's lock.
func TestBlockCacheFrameLogWrapsUnderReaders(t *testing.T) {
	const readers, reads = 4, 400
	p, run := overBudgetPartition(t, 512<<10)
	cache := p.opts.BlockCache
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for range reads {
				b := rnd.Intn(len(run.blocks))
				k := adm.ViewAlias(run.blocks[b].firstKey).IntVal() + int64(rnd.Intn(8))
				if v, ok, err := p.Get(adm.Int(k)); !ok || err != nil || adm.Compare(v, viewRec(int(k))) != 0 {
					t.Errorf("get %d = %v, %v, %v", k, v, ok, err)
					return
				}
			}
		}(int64(g) + 17)
	}
	wg.Wait()
	st := cache.Stats()
	var minFrame int
	for _, m := range run.blocks {
		if minFrame == 0 || m.length < minFrame {
			minFrame = m.length
		}
	}
	kept := (st.BlockCacheMisses - st.BlockCacheFrameHits) * uint64(frameRecHeader+minFrame)
	if st.BlockCacheFrameHits == 0 || kept < 2*uint64(cache.shardBudget/ghostShare*blockCacheShards) {
		t.Fatalf("%d frame hits; the loads kept at least %d bytes of frames, not twice the stores' %d", st.BlockCacheFrameHits, kept, cache.shardBudget/ghostShare*blockCacheShards)
	}
}
