package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

// fillDecoded is the compaction the engine ran before it merged bytes,
// kept as the oracle: every surviving key and record of the merge of
// the inputs' component cursors is decoded in full and encoded again.
func fillDecoded(runs []*runFile, dropTombstones bool) func(*runWriter) error {
	return func(w *runWriter) error {
		comps := make([]*component, len(runs))
		for i, r := range runs {
			comps[i] = &component{run: r}
		}
		m := mergeComponentCursors(comps, dropTombstones, new(Leases))
		for {
			rc, ok, err := m.next()
			if !ok {
				return err
			}
			key, _, err := adm.DecodeBinary(rc.key)
			if err != nil {
				return err
			}
			val, _, err := adm.DecodeBinary(rc.val)
			if err != nil {
				return err
			}
			if err := addItem(w, index.Item{Key: key, Val: val}); err != nil {
				return err
			}
		}
	}
}

// tweetRec is a record of the benchmark tweet's shape: ten fields, one
// nested object, one array.
func tweetRec(id int64) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(id),
		"text", adm.String(fmt.Sprintf("tweet %d with the usual amount of padding text in it, more or less", id)),
		"lang", adm.String("en"),
		"country", adm.String("US"),
		"created_at", adm.DateTimeMillis(1_500_000_000_000+id),
		"retweets", adm.Int(id%97),
		"score", adm.Double(float64(id)*0.25),
		"user", adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(id%1000), "name", adm.String("someone"))),
		"tags", adm.Array([]adm.Value{adm.String("a"), adm.String("bb")}),
		"place", adm.Point(float64(id%360), float64(id%180)),
	))
}

// addItem encodes one item into the writer's current block.
func addItem(w *runWriter, it index.Item) error {
	return w.addRaw(adm.AppendBinary(nil, it.Key), adm.AppendBinary(nil, it.Val))
}

// fillItems encodes items (ascending by key) in order, as a flush would.
func fillItems(items []index.Item) func(*runWriter) error {
	return func(w *runWriter) error {
		for _, it := range items {
			if err := addItem(w, it); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeTestRun writes items (ascending by key) as a run file.
func writeTestRun(t testing.TB, fsys FS, name string, items []index.Item, env runEnv) *runFile {
	t.Helper()
	rf, err := writeRun(fsys, "runs", name, env, fillItems(items))
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// tweetRuns writes nRuns run files of perRun tweet-shaped records each
// (newest first); run i holds the keys ≡ i mod nRuns plus every 16th
// key of its older neighbour's, so the merge interleaves and shadows.
func tweetRuns(t testing.TB, fsys FS, nRuns, perRun int, env runEnv) []*runFile {
	t.Helper()
	runs := make([]*runFile, nRuns)
	for i := range runs {
		var items []index.Item
		for k := int64(0); len(items) < perRun; k++ {
			if k%int64(nRuns) == int64(i) || k%16 == int64(i+1) {
				items = append(items, index.Item{Key: adm.Int(k), Val: tweetRec(k + int64(i)<<32)})
			}
		}
		runs[i] = writeTestRun(t, fsys, fmt.Sprintf("in-%d.run", i), items, env)
	}
	return runs
}

// randomRecord builds a nested record for the differential.
func randomRecord(r *rand.Rand, depth int) adm.Value {
	n := 1 + r.Intn(12)
	o := adm.NewObject(n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		switch k := r.Intn(9); {
		case k == 0 && depth > 0:
			o.Set(name, randomRecord(r, depth-1))
		case k == 1 && depth > 0:
			elems := make([]adm.Value, r.Intn(4))
			for j := range elems {
				elems[j] = randomRecord(r, depth-1)
			}
			o.Set(name, adm.Array(elems))
		case k == 2:
			o.Set(name, adm.Double(r.NormFloat64()))
		case k == 3:
			o.Set(name, adm.String(string(make([]byte, r.Intn(300)))))
		case k == 4:
			o.Set(name, adm.Point(r.Float64(), r.Float64()))
		case k == 5:
			o.Set(name, adm.Null())
		case k == 6:
			o.Set(name, adm.Duration(int32(r.Intn(24)), r.Int63n(1e6)))
		default:
			o.Set(name, adm.Int(r.Int63()-r.Int63()))
		}
	}
	return adm.ObjectValue(o)
}

// randomKey draws from one key space per kind, small enough that runs
// overwrite each other. Int k and Double k compare equal, so mixed
// spaces also shadow across kinds.
func randomKey(r *rand.Rand, kinds int) adm.Value {
	k := r.Int63n(400)
	switch r.Intn(kinds) {
	case 1:
		return adm.String(fmt.Sprintf("key-%03d", k))
	case 2:
		return adm.Double(float64(k) / 2)
	default:
		return adm.Int(k)
	}
}

// TestCompactionMatchesDecodedOracle: over seeded random histories —
// overwrites, deletes, int/string/double keys, nested records — the
// byte merge writes exactly the file the decode/re-encode compaction
// wrote, with tombstones kept and dropped, down to the empty run a
// compaction leaves when every entry is dropped.
func TestCompactionMatchesDecodedOracle(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		fsys := NewMemFS()
		nRuns := 2 + r.Intn(4)
		kinds := 1 + r.Intn(3)
		allDropped := seed%6 == 5
		var runs []*runFile
		var all []adm.Value
		for i := 0; i < nRuns; i++ {
			var items []index.Item
			for n := 20 + r.Intn(300); n > 0; n-- {
				it := index.Item{Key: randomKey(r, kinds), Val: randomRecord(r, 2)}
				if r.Intn(5) == 0 {
					it.Val = adm.Missing()
				}
				items = append(items, it)
				all = append(all, it.Key)
			}
			// One entry per key: keys that compare equal (Int 3, Double 3.0)
			// must not share a run.
			slices.SortStableFunc(items, func(a, b index.Item) int { return adm.Compare(a.Key, b.Key) })
			items = slices.CompactFunc(items, func(a, b index.Item) bool { return adm.Compare(a.Key, b.Key) == 0 })
			runs = append(runs, writeTestRun(t, fsys, fmt.Sprintf("in-%d.run", i), items, runEnv{}))
		}
		if allDropped {
			// A newest run that deletes every key any input holds.
			slices.SortFunc(all, adm.Compare)
			all = slices.CompactFunc(all, func(a, b adm.Value) bool { return adm.Compare(a, b) == 0 })
			items := make([]index.Item, len(all))
			for i, k := range all {
				items[i] = index.Item{Key: k, Val: adm.Missing()}
			}
			runs = append(runs, writeTestRun(t, fsys, "in-del.run", items, runEnv{}))
		}
		slices.Reverse(runs) // newest first
		for _, drop := range []bool{false, true} {
			raw, err := writeRun(fsys, "runs", "raw.run", runEnv{}, fillFromRuns(runs, drop))
			if err != nil {
				t.Fatalf("seed %d drop=%v: byte merge: %v", seed, drop, err)
			}
			oracle, err := writeRun(fsys, "runs", "oracle.run", runEnv{}, fillDecoded(runs, drop))
			if err != nil {
				t.Fatalf("seed %d drop=%v: oracle: %v", seed, drop, err)
			}
			if allDropped && drop && (raw.entries != 0 || len(raw.blocks) != 0) {
				t.Fatalf("seed %d: all-dropped merge kept %d entries", seed, raw.entries)
			}
			raw.close()
			oracle.close()
			got, _ := readFileAll(fsys, "runs/raw.run")
			want, _ := readFileAll(fsys, "runs/oracle.run")
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("seed %d drop=%v: byte merge wrote %d bytes, oracle %d, and they differ", seed, drop, len(got), len(want))
			}
		}
		for _, rf := range runs {
			rf.close()
		}
	}
}

// TestCompactionAllocatesPerBlock: merging 4 runs × 5 000 tweet-shaped
// records allocates per block, not per record — under one allocation
// per ten records.
func TestCompactionAllocatesPerBlock(t *testing.T) {
	fsys := NewMemFS()
	runs := tweetRuns(t, fsys, 4, 5000, runEnv{})
	allocs := testing.AllocsPerRun(3, func() {
		rf, err := writeRun(fsys, "runs", "out.run", runEnv{}, fillFromRuns(runs, true))
		if err != nil {
			t.Fatal(err)
		}
		rf.close()
	})
	if limit := float64(4*5000) / 10; allocs >= limit {
		t.Fatalf("compacting 20 000 records took %.0f allocations, want fewer than %.0f", allocs, limit)
	}
}

// forceCompaction makes the partition's whole level qualify and runs
// the flusher's unit of work synchronously.
func forceCompaction(p *Partition) {
	p.flushMu.Lock()
	p.opts.MaxComponents = 1
	p.flushMu.Unlock()
	p.flushAndCompact()
}

// threeRunPartition opens a durable partition and flushes three runs of
// 400 records each, with compaction held off.
func threeRunPartition(t *testing.T, fsys FS, opts Options) *Partition {
	t.Helper()
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := int64(0); run < 3; run++ {
		for i := int64(0); i < 400; i++ {
			k := run*400 + i
			if err := p.Upsert(adm.Int(k), tweetRec(k)); err != nil {
				t.Fatal(err)
			}
		}
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", p.Runs())
	}
	return p
}

// TestCompactionBypassesBlockCache: a compaction neither looks its
// input blocks up in the shared cache nor inserts them.
func TestCompactionBypassesBlockCache(t *testing.T) {
	cache := NewBlockCache(8 << 20)
	p := threeRunPartition(t, NewMemFS(), Options{MemBudget: 1 << 30, MaxComponents: 8, BlockCache: cache})
	defer p.Close()
	if _, ok, _ := p.Get(adm.Int(5)); !ok {
		t.Fatal("Get(5) missed")
	}
	before := cache.Stats()
	if before.BlockCacheEntries != 1 {
		t.Fatalf("cache holds %d blocks after one lookup, want 1", before.BlockCacheEntries)
	}
	forceCompaction(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Runs() != 1 {
		t.Fatalf("Runs = %d after compaction, want 1", p.Runs())
	}
	after := cache.Stats()
	if after.BlockCacheHits != before.BlockCacheHits || after.BlockCacheMisses != before.BlockCacheMisses || after.BlockCacheEvictions != before.BlockCacheEvictions {
		t.Fatalf("compaction touched the cache: %+v -> %+v", before, after)
	}
	// The inputs' blocks were purged with their runs; nothing took their place.
	if after.BlockCacheEntries != 0 || after.BlockCacheBytes != 0 {
		t.Fatalf("cache holds %d blocks (%d bytes) after compaction, want none", after.BlockCacheEntries, after.BlockCacheBytes)
	}
	if got := liveLen(t, p.Snapshot()); got != 1200 {
		t.Fatalf("Len = %d, want 1200", got)
	}
}

// TestCompactionAbortsOnCorruptInput: a compaction whose input fails a
// block checksum must change nothing — it used to publish the short
// merge and delete the inputs, losing every record behind the bad block
// with no error anywhere.
func TestCompactionAbortsOnCorruptInput(t *testing.T) {
	fsys := NewMemFS()
	opts := Options{MemBudget: 1 << 30, MaxComponents: 8}
	p := threeRunPartition(t, fsys, opts)

	p.flushMu.Lock()
	output := runFileName(p.nextSeq)
	p.flushMu.Unlock()
	p.mu.RLock()
	runs := p.runsLocked()
	p.mu.RUnlock()
	var inputs []string
	for _, c := range runs {
		inputs = append(inputs, c.run.name)
	}
	oldest := runs[len(runs)-1].run
	if err := fsys.Corrupt(joinPath("part", oldest.name), oldest.blocks[1].off+frame.HeaderSize+5); err != nil {
		t.Fatal(err)
	}
	manifestBefore, err := readFileAll(fsys, joinPath("part", manifestName))
	if err != nil {
		t.Fatal(err)
	}

	forceCompaction(p)

	if err := p.Err(); !errors.Is(err, frame.ErrCRC) {
		t.Fatalf("Err after compacting a corrupt run = %v, want a CRC error", err)
	}
	if got, s := p.Runs(), p.Stats(); got != 3 || s.Components != 3 || s.Merges != 0 {
		t.Fatalf("Runs=%d Components=%d Merges=%d after the aborted compaction, want 3/3/0", got, s.Components, s.Merges)
	}
	names, _ := fsys.List("part")
	for _, in := range inputs {
		if !slices.Contains(names, in) {
			t.Fatalf("input run %s was deleted (directory: %v)", in, names)
		}
	}
	if slices.Contains(names, output) {
		t.Fatalf("partial output %s was left behind (directory: %v)", output, names)
	}
	if manifestAfter, _ := readFileAll(fsys, joinPath("part", manifestName)); !bytes.Equal(manifestBefore, manifestAfter) {
		t.Fatal("manifest changed")
	}
	if err := p.Close(); !errors.Is(err, frame.ErrCRC) {
		t.Fatalf("Close = %v, want the CRC error", err)
	}

	// The directory still holds the fault: every scan of the reopened
	// partition reports it instead of serving a short dataset as if it
	// were whole, because each block load checks the checksum again. The
	// fault is the scans'; the partition has not failed, so it closes
	// cleanly.
	p, err = OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if n, err := p.Snapshot().Len(); !errors.Is(err, frame.ErrCRC) {
			t.Fatalf("scan %d of the reopened partition counted %d records with err %v, want a CRC error", i+1, n, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close after reopen = %v, want nil: the partition has not failed", err)
	}
}

// TestCompactionPicksNewestTier: pickCompaction merges the newest size
// tier once it is compactionMinWidth runs wide, and every run past
// MaxComponents; a merge drops tombstones only when its window reaches
// the oldest run.
func TestCompactionPicksNewestTier(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int64 // newest first
		max   int
		want  int
	}{
		{"four similar runs merge", []int64{100, 120, 90, 110}, 8, 4},
		{"three do not", []int64{100, 120, 90}, 8, 0},
		{"a ratio of 4 stays in the tier", []int64{100, 100, 400, 100}, 8, 4},
		{"a ratio above 4 ends the tier", []int64{100, 100, 100, 401, 100}, 8, 0},
		{"the tier stops at an older large run", []int64{100, 100, 100, 100, 5000}, 8, 4},
		{"a small newest run ends the tier", []int64{10, 100, 100, 100, 100}, 8, 0},
		{"past MaxComponents every run merges", []int64{1, 5000, 10, 900, 3}, 4, 5},
		{"at MaxComponents the tiers decide", []int64{1, 5000, 10, 900}, 4, 0},
		{"one run never merges", []int64{100}, 0, 0},
	}
	for _, tc := range cases {
		runs := make([]*component, len(tc.sizes))
		for i, b := range tc.sizes {
			runs[i] = &component{run: &runFile{size: b}}
		}
		if got := pickCompaction(runs, tc.max); got != tc.want {
			t.Errorf("%s: pickCompaction(%v, %d) = %d, want %d", tc.name, tc.sizes, tc.max, got, tc.want)
		}
	}

	// A tier above an older large run merges with its tombstone kept,
	// since the large run may hold the key it deletes; merging the whole
	// level drops it.
	p := memPartition(t, Options{MemBudget: 1 << 30, MaxComponents: 8})
	flush := func(lo, hi int64) {
		t.Helper()
		for k := lo; k < hi; k++ {
			if err := p.Upsert(adm.Int(k), tweetRec(k)); err != nil {
				t.Fatal(err)
			}
		}
		p.Flush()
		settle(t, p)
	}
	flush(0, 2000)
	for r := int64(1); r <= 4; r++ {
		if r == 2 {
			if _, err := p.Delete(adm.Int(5)); err != nil {
				t.Fatal(err)
			}
		}
		flush(10000*r, 10000*r+100)
	}
	entries := func() []int {
		p.mu.RLock()
		defer p.mu.RUnlock()
		var n []int
		for _, c := range p.runsLocked() {
			n = append(n, c.run.entries)
		}
		return n
	}
	if got := entries(); !slices.Equal(got, []int{401, 2000}) || p.Stats().Merges != 1 {
		t.Fatalf("after the newest tier merged: run entries %v, %d merges; want [401 2000] and 1", got, p.Stats().Merges)
	}
	forceCompaction(p)
	if got := entries(); !slices.Equal(got, []int{2399}) {
		t.Fatalf("after the whole level merged: run entries %v, want [2399]", got)
	}
	if _, ok, err := p.Get(adm.Int(5)); ok || err != nil {
		t.Fatalf("deleted key 5: found %v, err %v", ok, err)
	}
}
