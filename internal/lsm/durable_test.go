package lsm

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

// durableOpts keeps memtables tiny so flushes, WAL segment rotation,
// and compaction all happen inside small tests.
func durableOpts() Options {
	return Options{MemBudget: 4 << 10, MaxComponents: 8, WALSegBytes: 8 << 10}
}

// reopen closes p and opens the same directory again.
func reopen(t *testing.T, p *Partition, fsys FS, dir string, opts Options) *Partition {
	t.Helper()
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	np, err := OpenPartition(fsys, dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return np
}

// crashImage stops p and returns its filesystem as a crash at this
// instant leaves it. A MemFS yields its synced prefixes (p then closes
// on the doomed original). A directory's bytes are copied as they stand
// between two flusher steps — every write p acknowledged was fsynced —
// and put back once p has closed. Either way the log still holds the
// memtable's tail.
func crashImage(t testing.TB, p *Partition) FS {
	t.Helper()
	if m, ok := p.fs.(*MemFS); ok {
		img := m.Crash()
		p.Close()
		return img
	}
	p.flushMu.Lock()
	image := dirImage(t, p.fs, p.dir)
	p.flushMu.Unlock()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := p.fs.List(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := p.fs.Remove(joinPath(p.dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range image {
		if err := os.WriteFile(joinPath(p.dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return p.fs
}

// dirImage reads every file of dir: what a reopen may not change.
func dirImage(t testing.TB, fsys FS, dir string) map[string]string {
	t.Helper()
	names, err := fsys.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	image := make(map[string]string, len(names))
	for _, name := range names {
		data, err := readFileAll(fsys, joinPath(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		image[name] = string(data)
	}
	return image
}

// TestReopenEndsQuiescent: recovery replays the WAL tail a crash left
// and then flushes it as the flusher would, before the partition serves
// anything. A partition recovered from a crash image has an empty
// memtable, one more run than it crashed with when there was a tail
// (none when there was not), its log covered by the manifest and
// nothing published in the block cache; a reopen after its clean close
// finds nothing to apply and writes no file.
func TestReopenEndsQuiescent(t *testing.T) {
	filesystems := map[string]func(t *testing.T) (FS, string){
		"MemFS": func(*testing.T) (FS, string) { return NewMemFS(), "part" },
		"OSFS":  func(t *testing.T) (FS, string) { return NewOSFS(), t.TempDir() },
	}
	for name, mk := range filesystems {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk(t)
			opts := cachedOptions() // as a cluster opens it
			p, err := OpenPartition(fsys, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			p = reopen(t, p, fsys, dir, opts)
			if st := p.Stats(); p.Runs() != 0 || st.Flushes != 0 {
				t.Fatalf("an empty partition reopened to %d runs after %d freezes", p.Runs(), st.Flushes)
			}

			model := map[int64]int64{}
			write := func(lo, hi int64) {
				for k := lo; k < hi; k++ {
					if err := p.Upsert(adm.Int(k), rec(k, "v", adm.Int(k+hi), "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))); err != nil {
						t.Fatal(err)
					}
					model[k] = k + hi
				}
				if _, err := p.Delete(adm.Int(lo + 7)); err != nil {
					t.Fatal(err)
				}
				delete(model, lo+7)
				if err := p.PutCheckpoint("feed", uint64(hi)); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				t.Helper()
				n := 0
				err := p.Snapshot().Scan(func(key, rec adm.Value) bool {
					if want, ok := model[key.IntVal()]; !ok || rec.Field("v").IntVal() != want {
						t.Fatalf("%s: key %s = %s, model says %d (present %v)", when, key, rec, want, ok)
					}
					n++
					return true
				})
				if err != nil || n != len(model) {
					t.Fatalf("%s: scanned %d of %d records, err %v", when, n, len(model), err)
				}
				if got := p.Checkpoint("feed"); got != 900 {
					t.Fatalf("%s: checkpoint %d, want 900", when, got)
				}
			}
			// One run from the flusher, then a tail that overwrites part of
			// it and is still in the log when the partition crashes.
			write(0, 600)
			p.Flush()
			settle(t, p)
			write(300, 900)
			runs := p.Runs()
			if runs != 1 || p.Stats().MemEntries == 0 {
				t.Fatalf("crashing with %d runs and %d memtable entries, want 1 and a tail", runs, p.Stats().MemEntries)
			}

			fsys = crashImage(t, p)
			if p, err = OpenPartition(fsys, dir, opts); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.MemEntries != 0 || p.Runs() != runs+1 || st.Components != runs+1 || st.FlushedRuns != 1 {
				t.Fatalf("recovered over a tail: %d memtable entries, %d runs (crashed with %d), %d components, %d runs flushed", st.MemEntries, p.Runs(), runs, st.Components, st.FlushedRuns)
			}
			if flushedLSN(p) != p.Epoch() {
				t.Fatalf("the manifest covers LSN %d of %d", flushedLSN(p), p.Epoch())
			}
			if cs := opts.BlockCache.Stats(); cs.BlockCacheEntries != 0 {
				t.Fatalf("recovery left %d blocks in the cache", cs.BlockCacheEntries)
			}
			check("reopened")

			settle(t, p)
			runs = p.Runs()
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			image := dirImage(t, fsys, dir)
			if p, err = OpenPartition(fsys, dir, opts); err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if st := p.Stats(); st.MemEntries != 0 || st.Flushes != 0 || st.FlushedRuns != 0 || p.Runs() != runs {
				t.Fatalf("second reopen: %d memtable entries, %d freezes, %d runs flushed, %d runs (closed with %d)", st.MemEntries, st.Flushes, st.FlushedRuns, p.Runs(), runs)
			}
			if !maps.Equal(image, dirImage(t, fsys, dir)) {
				t.Fatal("a reopen with nothing to recover changed the directory")
			}
			check("reopened twice")
		})
	}
}

// TestDurableBasicReopen: committed writes survive a crash and reopen,
// memtable-only (no flush ever happened): recovery replays them,
// tombstone included, from the log. A clean close of the recovered
// partition then serves the same state from the run recovery flushed.
func TestDurableBasicReopen(t *testing.T) {
	fsys := NewMemFS()
	opts := Options{MemBudget: 1 << 20, MaxComponents: 8}
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.Int(i*i)))
	}
	p.Delete(adm.Int(7))
	if s := p.Stats(); s.FlushedRuns != 0 {
		t.Fatalf("unexpected flush: %d runs", s.FlushedRuns)
	}
	check := func(p *Partition, after string) {
		t.Helper()
		if got := liveLen(t, p.Snapshot()); got != 99 {
			t.Fatalf("Len after %s = %d, want 99", after, got)
		}
		if _, ok, _ := p.Get(adm.Int(7)); ok {
			t.Fatalf("deleted key resurrected by %s", after)
		}
		for i := int64(0); i < 100; i++ {
			if i == 7 {
				continue
			}
			got, ok, _ := p.Get(adm.Int(i))
			if !ok || got.Field("v").IntVal() != i*i {
				t.Fatalf("Get(%d) after %s = %v,%v", i, after, got, ok)
			}
		}
	}
	fsys = crashImage(t, p).(*MemFS)
	if p, err = OpenPartition(fsys, "part", opts); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.FlushedRuns != 1 {
		t.Fatalf("recovery flushed %d runs, want 1: the replayed tail", st.FlushedRuns)
	}
	check(p, "replay")
	p = reopen(t, p, fsys, "part", opts)
	defer p.Close()
	check(p, "a clean close")
}

// TestDurableFlushAndReopen: a dataset larger than the memtable budget
// flushes to run files; a crash and reopen serves identical data from
// runs + the replayed tail.
func TestDurableFlushAndReopen(t *testing.T) {
	fsys := NewMemFS()
	opts := durableOpts()
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	model := map[int64]int64{}
	for i := int64(0); i < n; i++ {
		k, v := i%600, i
		p.Upsert(adm.Int(k), rec(k, "v", adm.Int(v)))
		model[k] = v
		if i%5 == 4 {
			d := (i * 7) % 600
			p.Delete(adm.Int(d))
			delete(model, d)
		}
	}
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().FlushedRuns; got == 0 {
		t.Fatal("expected at least one flushed run")
	}
	if got := flushedLSN(p); got == 0 {
		t.Fatal("FlushedLSN still zero after flushes")
	}
	// A tail the flushes have not covered: a new key, an overwrite and a
	// delete of flushed keys.
	p.Upsert(adm.Int(600), rec(600, "v", adm.Int(n)))
	model[600] = n
	p.Upsert(adm.Int(1), rec(1, "v", adm.Int(n+1)))
	model[1] = n + 1
	p.Delete(adm.Int(2))
	delete(model, 2)
	if p.Stats().MemEntries == 0 {
		t.Fatal("no tail in the memtable to replay")
	}

	fsys = crashImage(t, p).(*MemFS)
	if p, err = OpenPartition(fsys, "part", opts); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := liveLen(t, p.Snapshot()), len(model); got != want {
		t.Fatalf("Len after reopen = %d, want %d", got, want)
	}
	for k, v := range model {
		got, ok, _ := p.Get(adm.Int(k))
		if !ok || got.Field("v").IntVal() != v {
			t.Fatalf("Get(%d) = %v,%v want v=%d", k, got, ok, v)
		}
	}
	// Scans stream runs + memtable merged in key order.
	var last int64 = -1
	p.Snapshot().Scan(func(k, r adm.Value) bool {
		if k.IntVal() <= last {
			t.Fatalf("scan out of order: %d after %d", k.IntVal(), last)
		}
		last = k.IntVal()
		if want := model[k.IntVal()]; r.Field("v").IntVal() != want {
			t.Fatalf("scan value for %d = %d, want %d", k.IntVal(), r.Field("v").IntVal(), want)
		}
		return true
	})
}

// TestDurableCompaction: enough flushes trigger size-tiered compaction;
// data stays intact and input files are deleted.
func TestDurableCompaction(t *testing.T) {
	fsys := NewMemFS()
	opts := durableOpts()
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	keys := make([]adm.Value, 0, 64)
	recs := make([]adm.Value, 0, 64)
	for round := int64(0); round < 24; round++ {
		keys, recs = keys[:0], recs[:0]
		for i := int64(0); i < 64; i++ {
			k := round*64 + i
			keys = append(keys, adm.Int(k))
			recs = append(recs, rec(k, "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")))
		}
		if err := p.UpsertBatch(keys, recs); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Merges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after %d flushed runs", p.Stats().FlushedRuns)
		}
		time.Sleep(time.Millisecond)
	}
	s := p.Stats()
	if s.Merges == 0 || p.Runs() >= int(s.FlushedRuns) {
		t.Fatalf("Merges=%d Runs=%d FlushedRuns=%d: compaction did not shrink the level", s.Merges, p.Runs(), s.FlushedRuns)
	}
	if got := liveLen(t, p.Snapshot()); got != 24*64 {
		t.Fatalf("Len after compaction = %d, want %d", got, 24*64)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableSnapshotSurvivesCompaction: a snapshot taken before a
// compaction keeps reading retired run files (deleted from the
// directory, still open).
func TestDurableSnapshotSurvivesCompaction(t *testing.T) {
	fsys := NewMemFS()
	opts := durableOpts()
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := int64(0); i < 1500; i++ {
		p.Upsert(adm.Int(i), rec(i, "pad", adm.String("yyyyyyyyyyyyyyyyyyyyyyyy")))
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	// Force more flushes and (likely) compactions after the snapshot.
	for i := int64(1500); i < 3000; i++ {
		p.Upsert(adm.Int(i), rec(i, "pad", adm.String("yyyyyyyyyyyyyyyyyyyyyyyy")))
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	if got := liveLen(t, snap); got != 1500 {
		t.Fatalf("snapshot Len = %d, want 1500 (snapshot must be stable)", got)
	}
	if got := liveLen(t, p.Snapshot()); got != 3000 {
		t.Fatalf("partition Len = %d, want 3000", got)
	}
}

// TestWALSegmentTruncation: flushing advances the durable watermark and
// deletes fully-covered WAL segments.
func TestWALSegmentTruncation(t *testing.T) {
	fsys := NewMemFS()
	opts := durableOpts() // 8 KiB segments: plenty of rotation below
	p, err := OpenPartition(fsys, "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := int64(0); i < 4000; i++ {
		p.Upsert(adm.Int(i), rec(i, "pad", adm.String("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")))
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.List("part")
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, name := range names {
		if _, ok := parseWALSegmentName(name); ok {
			segs++
		}
	}
	// Everything is flushed; only the active tail segment (and possibly
	// its immediate predecessor, if no append landed after the flush)
	// should remain.
	if segs > 2 {
		t.Fatalf("%d WAL segments remain after full flush, want <= 2 (%v)", segs, names)
	}
}

// TestWALCommitCoalescing: writers that arrive while a commit's fsync
// is outstanding are all released by the one fsync that follows it —
// far fewer durability points than commit calls.
func TestWALCommitCoalescing(t *testing.T) {
	fsys := newGatedFS()
	p, err := OpenPartition(fsys, "part", Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Upsert(adm.Int(-1), rec(-1)); err != nil { // creates the segment
		t.Fatal(err)
	}
	w := p.WAL()
	base := w.Commits()

	const writers = 32
	fsys.hold()
	var wg sync.WaitGroup
	write := func(g int64) {
		defer wg.Done()
		if err := p.Upsert(adm.Int(g), rec(g)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(writers)
	go write(0)
	<-fsys.entered // writer 0 leads and is parked in its fsync
	for g := int64(1); g < writers; g++ {
		go write(g)
	}
	for w.LSN() < writers+1 { // every writer has appended
		time.Sleep(100 * time.Microsecond)
	}
	fsys.release()
	wg.Wait()

	if got, want := committedLSN(w), w.LSN(); got != want {
		t.Fatalf("Committed = %d, want %d (every writer returned)", got, want)
	}
	if commits := w.Commits() - base; commits != 2 {
		t.Fatalf("%d group commits for %d concurrent writers, want 2: the parked leader's and one for all who followed", commits, writers)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableErrSticky: a WAL that cannot sync fails the write that
// needed it — whichever of the storage entry points made it, on the
// partition and through the dataset — and the partition stays failed.
func TestDurableErrSticky(t *testing.T) {
	type mutator struct {
		name string
		run  func(*Dataset) error
	}
	var all []mutator
	for _, m := range partitionMutators {
		all = append(all, mutator{m.name, func(ds *Dataset) error { return m.run(ds.Partition(0)) }})
	}
	all = append(all,
		mutator{"Dataset.Upsert", func(ds *Dataset) error { return ds.Upsert(rec(100)) }},
		mutator{"Dataset.Insert", func(ds *Dataset) error { return ds.Insert(rec(101)) }},
		mutator{"Dataset.Delete", func(ds *Dataset) error { _, err := ds.Delete(adm.Int(1)); return err }},
		mutator{"Dataset.UpsertBatch", func(ds *Dataset) error { return ds.UpsertBatch([]adm.Value{rec(102)}) }},
	)
	for _, m := range all {
		t.Run(m.name, func(t *testing.T) {
			fsys := NewMemFS()
			ds, err := OpenDataset(fsys, "db", "d", nil, "id", 1, Options{MemBudget: 1 << 20, MaxComponents: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			p := ds.Partition(0)
			if err := ds.Upsert(rec(1)); err != nil {
				t.Fatal(err)
			}
			if err := p.Err(); err != nil {
				t.Fatalf("healthy partition reports %v", err)
			}
			fsys.FailSyncs(true)
			if err := m.run(ds); !errors.Is(err, ErrInjected) {
				t.Fatalf("write with failing fsync = %v, want the commit's error", err)
			}
			if err := p.Err(); err == nil {
				t.Fatal("failure must be sticky")
			}
			fsys.FailSyncs(false)
			if err := p.Err(); err == nil {
				t.Fatal("sticky failure must not clear")
			}
		})
	}
}

// TestOpenDatasetReopen: the dataset-level durable API round-trips
// through close/reopen across multiple partitions.
func TestOpenDatasetReopen(t *testing.T) {
	fsys := NewMemFS()
	ds, err := OpenDataset(fsys, "db/tweets", "tweets", nil, "id", 4, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		if err := ds.Upsert(rec(i, "text", adm.String(fmt.Sprintf("tweet %d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenDataset(fsys, "db/tweets", "tweets", nil, "id", 4, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := liveLen(t, ds); got != n {
		t.Fatalf("Len after reopen = %d, want %d", got, n)
	}
	for i := int64(0); i < n; i += 37 {
		got, ok := ds.Get(adm.Int(i))
		if !ok || got.Field("text").StringVal() != fmt.Sprintf("tweet %d", i) {
			t.Fatalf("Get(%d) = %v,%v", i, got, ok)
		}
	}
}

// TestRoutingSurvivesRestart: a key routes to the partition that stored
// it in every process, not only in the one that wrote it. This test
// binary re-executes itself to write a durable four-partition dataset;
// this process then reopens it and upserts every key again, and must
// still hold one version of each — a per-process hash would send most
// keys to a partition that never stored them, so Get would miss them and
// the upserts would leave second versions for the scan to count.
func TestRoutingSurvivesRestart(t *testing.T) {
	const keys = 400
	open := func(dir string) *Dataset {
		ds, err := OpenDataset(NewOSFS(), dir, "tweets", nil, "id", 4, durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	if args := flag.Args(); len(args) == 2 && args[0] == "routing-writer" {
		ds := open(args[1])
		for i := int64(0); i < keys; i++ {
			if err := ds.Upsert(rec(i, "v", adm.Int(1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-execute the test binary: %v", err)
	}
	dir := t.TempDir()
	if out, err := exec.Command(exe, "-test.run=^TestRoutingSurvivesRestart$", "-test.count=1", "routing-writer", dir).CombinedOutput(); err != nil {
		t.Fatalf("writer process: %v\n%s", err, out)
	}
	ds := open(dir)
	defer ds.Close()
	for i := int64(0); i < keys; i++ {
		if err := ds.Upsert(rec(i, "v", adm.Int(2))); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveLen(t, ds); n != keys {
		t.Fatalf("the scan counts %d records after upserting %d keys again, want %d", n, keys, keys)
	}
	for i := int64(0); i < keys; i++ {
		if got, ok := ds.Get(adm.Int(i)); !ok || got.Field("v").IntVal() != 2 {
			t.Fatalf("Get(%d) = %v, %v; want the second version", i, got, ok)
		}
	}
}
