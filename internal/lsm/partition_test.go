package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

func rec(id int64, fields ...any) adm.Value {
	pairs := append([]any{"id", adm.Int(id)}, fields...)
	return adm.ObjectValue(adm.ObjectFromPairs(pairs...))
}

// liveLen counts c's live records and fails the test on a read fault.
func liveLen(t testing.TB, c interface{ Len() (int, error) }) int {
	t.Helper()
	n, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// committedLSN is the highest LSN w has made durable.
func committedLSN(w *WAL) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.committed
}

// flushedLSN is p's durable-run watermark: every WAL entry at or below it
// is in a persisted run file.
func flushedLSN(p *Partition) uint64 {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	return p.flushedLSN
}

func smallOpts() Options {
	return Options{MemBudget: 16 << 10, MaxComponents: 4}
}

// memPartition opens a partition on a private MemFS and closes it with
// the test: every partition owns a flusher goroutine.
func memPartition(t testing.TB, opts Options) *Partition {
	t.Helper()
	p, err := OpenPartition(NewMemFS(), "part", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// cachedOptions is DefaultOptions plus what cluster.New adds to every
// partition it opens: a block cache of the default budget.
func cachedOptions() Options {
	opts := DefaultOptions()
	opts.BlockCache = NewBlockCache(DefaultBlockCacheBytes)
	return opts
}

// memDataset is memPartition for a whole dataset.
func memDataset(t testing.TB, name string, dt *adm.Datatype, primaryKey string, parts int, opts Options) *Dataset {
	t.Helper()
	ds, err := OpenDataset(NewMemFS(), name, name, dt, primaryKey, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// settle waits until the flusher has nothing left to do: every frozen
// memtable is a run file and no compaction is due.
func settle(t testing.TB, p *Partition) {
	t.Helper()
	for start := time.Now(); ; {
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
		p.flushMu.Lock()
		p.mu.RLock()
		w := pickCompaction(p.runsLocked(), p.opts.MaxComponents)
		p.mu.RUnlock()
		p.flushMu.Unlock()
		if w == 0 {
			return
		}
		if time.Since(start) > time.Minute {
			t.Fatalf("a compaction of %d runs stayed due for a minute", w)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPartitionUpsertGet(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	p.Upsert(adm.Int(1), rec(1, "v", adm.String("a")))
	got, ok, _ := p.Get(adm.Int(1))
	if !ok || got.Field("v").StringVal() != "a" {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	p.Upsert(adm.Int(1), rec(1, "v", adm.String("b")))
	got, _, _ = p.Get(adm.Int(1))
	if got.Field("v").StringVal() != "b" {
		t.Error("upsert should replace")
	}
	if _, ok, _ := p.Get(adm.Int(2)); ok {
		t.Error("absent key should miss")
	}
}

func TestPartitionInsertDuplicate(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	if err := p.Insert(adm.Int(1), rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(adm.Int(1), rec(1)); err == nil {
		t.Error("duplicate insert must fail")
	}
}

func TestPartitionDelete(t *testing.T) {
	p := memPartition(t, smallOpts())
	p.Upsert(adm.Int(1), rec(1))
	if existed, err := p.Delete(adm.Int(1)); !existed || err != nil {
		t.Errorf("delete of live record = %v, %v; want true, nil", existed, err)
	}
	if _, ok, _ := p.Get(adm.Int(1)); ok {
		t.Error("deleted key still visible")
	}
	if existed, err := p.Delete(adm.Int(2)); existed || err != nil {
		t.Errorf("delete of absent key = %v, %v; want false, nil", existed, err)
	}
	// Deletes must also shadow flushed components.
	for i := int64(0); i < 500; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	p.Snapshot() // force freeze
	p.Delete(adm.Int(100))
	if _, ok, _ := p.Get(adm.Int(100)); ok {
		t.Error("tombstone must shadow frozen component")
	}
	snap := p.Snapshot()
	if _, ok, _ := snap.Get(adm.Int(100)); ok {
		t.Error("snapshot must respect tombstone")
	}
}

func TestPartitionFlushAndMerge(t *testing.T) {
	p := memPartition(t, smallOpts())
	const n = 2000
	for i := int64(0); i < n; i++ {
		p.Upsert(adm.Int(i), rec(i, "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")))
	}
	settle(t, p)
	st := p.Stats()
	if st.Flushes == 0 || st.FlushedRuns != st.Flushes {
		t.Errorf("Flushes = %d, FlushedRuns = %d: expected freezes under small mem budget, each flushed to a run", st.Flushes, st.FlushedRuns)
	}
	if st.Merges == 0 {
		t.Error("expected merges under small component cap")
	}
	if st.Components > smallOpts().MaxComponents || st.Components != p.Runs() {
		t.Errorf("components = %d (%d runs), cap %d", st.Components, p.Runs(), smallOpts().MaxComponents)
	}
	// All records still visible.
	for i := int64(0); i < n; i += 97 {
		if _, ok, _ := p.Get(adm.Int(i)); !ok {
			t.Fatalf("key %d lost after flush/merge", i)
		}
	}
	if got := liveLen(t, p.Snapshot()); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
}

func TestSnapshotIsStable(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.Int(0)))
	}
	snap := p.Snapshot()
	// Mutate after the snapshot.
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.Int(1)))
	}
	p.Upsert(adm.Int(1000), rec(1000, "v", adm.Int(1)))
	count := 0
	snap.Scan(func(k, r adm.Value) bool {
		if r.Field("v").IntVal() != 0 {
			t.Fatalf("snapshot saw later write for key %s", k)
		}
		count++
		return true
	})
	if count != 100 {
		t.Errorf("snapshot scanned %d records, want 100", count)
	}
	if _, ok, _ := snap.Get(adm.Int(1000)); ok {
		t.Error("snapshot saw record inserted after it was taken")
	}
	// A fresh snapshot sees the new state.
	if v, ok, _ := p.Snapshot().Get(adm.Int(5)); !ok || v.Field("v").IntVal() != 1 {
		t.Error("new snapshot missed update")
	}
}

func TestSnapshotScanOrderedDeduped(t *testing.T) {
	p := memPartition(t, smallOpts())
	// Write keys in shuffled order with several overwrites, forcing
	// multiple components.
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 5; round++ {
		for _, k := range r.Perm(400) {
			p.Upsert(adm.Int(int64(k)), rec(int64(k), "round", adm.Int(int64(round)),
				"pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxx")))
		}
		p.Snapshot() // freeze between rounds
	}
	snap := p.Snapshot()
	if len(snap.components) < 2 {
		t.Skipf("expected multiple components, got %d", len(snap.components))
	}
	prev := int64(-1)
	count := 0
	snap.Scan(func(k, rv adm.Value) bool {
		if k.IntVal() <= prev {
			t.Fatalf("scan out of order: %d after %d", k.IntVal(), prev)
		}
		if rv.Field("round").IntVal() != 4 {
			t.Fatalf("scan returned stale version for key %d: round %d",
				k.IntVal(), rv.Field("round").IntVal())
		}
		prev = k.IntVal()
		count++
		return true
	})
	if count != 400 {
		t.Errorf("scan visited %d, want 400", count)
	}
}

func TestSnapshotGetAcrossComponents(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	p.Upsert(adm.Int(1), rec(1, "v", adm.Int(1)))
	p.Snapshot()
	p.Upsert(adm.Int(1), rec(1, "v", adm.Int(2)))
	p.Upsert(adm.Int(2), rec(2, "v", adm.Int(9)))
	snap := p.Snapshot()
	if v, ok, _ := snap.Get(adm.Int(1)); !ok || v.Field("v").IntVal() != 2 {
		t.Errorf("newest version must win: %v %v", v, ok)
	}
	if v, ok, _ := snap.Get(adm.Int(2)); !ok || v.Field("v").IntVal() != 9 {
		t.Errorf("Get(2) = %v,%v", v, ok)
	}
}

func TestPartitionUpdateActivatesMemtable(t *testing.T) {
	// The Fig 27 mechanism: a quiescent partition has everything frozen;
	// a single update puts a live memtable back in the read path.
	p := memPartition(t, DefaultOptions())
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	p.Snapshot()
	if st := p.Stats(); st.MemEntries != 0 {
		t.Fatalf("memtable should be empty after snapshot freeze, has %d", st.MemEntries)
	}
	p.Upsert(adm.Int(5), rec(5, "v", adm.Int(1)))
	if st := p.Stats(); st.MemEntries != 1 {
		t.Fatalf("update should activate memtable, entries = %d", st.MemEntries)
	}
	// Repeated snapshot+update cycles grow then merge components.
	for i := 0; i < 20; i++ {
		p.Upsert(adm.Int(int64(i)), rec(int64(i), "v", adm.Int(2)))
		p.Snapshot()
	}
	settle(t, p)
	st := p.Stats()
	if st.Merges == 0 {
		t.Error("update+snapshot churn should have triggered merges")
	}
}

// gatedFS is a MemFS whose Sync calls park while the gate is held — the
// slow disk that makes commit coalescing deterministic.
type gatedFS struct {
	*MemFS
	mu      sync.Mutex
	gate    chan struct{} // nil: open
	syncs   atomic.Int64  // Sync calls that went through
	entered chan struct{} // one token per Sync that found the gate held
}

func newGatedFS() *gatedFS {
	return &gatedFS{MemFS: NewMemFS(), entered: make(chan struct{}, 64)} // room for every parked Sync a test provokes
}

func (g *gatedFS) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedFS) release() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gatedFS) Create(name string) (File, error) {
	f, err := g.MemFS.Create(name)
	return &gatedFile{File: f, g: g}, err
}

func (g *gatedFS) Open(name string) (File, error) {
	f, err := g.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	File
	g *gatedFS
}

func (f *gatedFile) Sync() error {
	f.g.mu.Lock()
	gate := f.g.gate
	f.g.mu.Unlock()
	if gate != nil {
		f.g.entered <- struct{}{}
		<-gate
	}
	f.g.syncs.Add(1)
	return f.File.Sync()
}

// TestWALGroupCommit: Commit is the wait for the log's fsync — nothing
// is committed before it, everything appended is after it — and
// committers that arrive while a leader is in its fsync follow: one of
// them leads the next round and its fsync covers them all.
func TestWALGroupCommit(t *testing.T) {
	fsys := newGatedFS()
	w, err := OpenWAL(fsys, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, func(uint64, []entry) error { return nil }); err != nil {
		t.Fatal(err)
	}
	entry := adm.AppendBinary(adm.AppendBinary(nil, adm.Int(1)), rec(1))
	two := append(append([]byte(nil), entry...), entry...)

	// The first commit creates the segment (header fsync) before its own.
	w.appendEncoded(two, 2)
	if w.LSN() != 2 || committedLSN(w) != 0 {
		t.Fatalf("after append: LSN = %d, Committed = %d; want 2, 0", w.LSN(), committedLSN(w))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if committedLSN(w) != 2 || w.Commits() != 1 {
		t.Fatalf("Committed=%d Commits=%d, want 2, 1", committedLSN(w), w.Commits())
	}

	// A leader parked in its fsync has committed nothing yet; two more
	// committers follow it.
	base := fsys.syncs.Load()
	fsys.hold()
	done := make(chan error, 3) // one result per committer
	w.appendEncoded(entry, 1)
	go func() { done <- w.Commit() }()
	<-fsys.entered
	for i := 0; i < 2; i++ {
		w.appendEncoded(entry, 1)
		go func() { done <- w.Commit() }()
	}
	select {
	case err := <-done:
		t.Fatalf("Commit returned (%v) while the fsync was still outstanding", err)
	case <-time.After(5 * time.Millisecond):
	}
	if got := committedLSN(w); got != 2 {
		t.Fatalf("Committed = %d during the fsync, want 2", got)
	}
	fsys.release()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if committedLSN(w) != 5 || w.Commits() != 3 {
		t.Fatalf("Committed=%d Commits=%d, want 5, 3", committedLSN(w), w.Commits())
	}
	if got := fsys.syncs.Load() - base; got != 2 {
		t.Fatalf("%d fsyncs for a leader and its two followers, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionConcurrentReadersAndWriters: point reads and snapshot
// scans beside writers of both kinds — upserts, and routed frames whose
// slabs come from the partition (Dataset.Slab) — read every record whole,
// and a record a reader keeps stays whole while more frames are written:
// a slab recycled under a reader would read as recycledByte.
func TestPartitionConcurrentReadersAndWriters(t *testing.T) {
	ds := memDataset(t, "ds", nil, "id", 1, Options{MemBudget: 64 << 10, MaxComponents: 4})
	p := ds.Partition(0)
	for i := int64(0); i < 1000; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// Writers: continuous upserts, and frames of eight in pooled slabs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stopped() {
				k := r.Int63n(1000)
				p.Upsert(adm.Int(k), rec(k, "w", adm.Int(seed)))
			}
		}(int64(w))
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var pairs []byte
			for !stopped() {
				pairs = pairs[:0]
				for range 8 {
					k := r.Int63n(1000)
					pairs = adm.AppendBinary(pairs, adm.Int(k))
					pairs = adm.AppendBinary(pairs, rec(k, "f", adm.Int(seed)))
				}
				if err := ds.UpsertFrame(0, append(ds.Slab(0, len(pairs)), pairs...)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 10))
	}
	// Readers: point gets and snapshot scans, each record checked, and the
	// last point read checked again once the next is taken. They read
	// while reading is set, so the memtables written while it is not are
	// flushed unread and their slabs recycled under the views they keep.
	var reading atomic.Bool
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 100))
			var kept adm.Value
			keptKey := int64(-1)
			checkKept := func() {
				if keptKey >= 0 && kept.Field("id").IntVal() != keptKey {
					t.Errorf("the record Get(%d) returned now reads %v", keptKey, kept)
				}
			}
			for !stopped() {
				if !reading.Load() {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				if r.Intn(10) == 0 {
					n := 0
					p.Snapshot().Scan(func(k, v adm.Value) bool {
						if v.Field("id").IntVal() != k.IntVal() {
							t.Errorf("scan: key %d reads %v", k.IntVal(), v)
						}
						n++
						return n < 50
					})
					continue
				}
				k := r.Int63n(1000)
				v, ok, err := p.Get(adm.Int(k))
				if err != nil || !ok || v.Field("id").IntVal() != k {
					t.Errorf("Get(%d) = %v, %v, %v", k, v, ok, err)
				}
				checkKept()
				kept, keptKey = v, k
			}
			checkKept()
		}(int64(rdr))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Read and pause by turns until slabs were recycled, then stop. A
	// pause lasts until two trees frozen after it began are flushed: the
	// second was the memtable from birth to flush with no reader, however
	// far the flusher lags the writers (as it does under the race
	// detector), and a fixed pause could end while it was still frozen,
	// to be escaped by the next reading turn.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().RecycledSlabs < 50 && time.Now().Before(deadline) {
		reading.Store(true)
		time.Sleep(5 * time.Millisecond)
		reading.Store(false)
		for frozen := p.Stats().Flushes; p.Stats().FlushedRuns < frozen+2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent workload deadlocked")
	}
	if got := liveLen(t, p.Snapshot()); got != 1000 {
		t.Errorf("Len = %d, want 1000", got)
	}
	if st := p.Stats(); st.RecycledSlabs == 0 {
		t.Errorf("%d flushes and no slab recycled: the frame writers show nothing", st.FlushedRuns)
	}
}

func TestMergePreservesModel(t *testing.T) {
	// Randomized model check: upserts/deletes with frequent freezes must
	// always agree with a plain map.
	p := memPartition(t, Options{MemBudget: 1 << 10, MaxComponents: 3})
	model := map[int64]int64{}
	r := rand.New(rand.NewSource(77))
	for op := 0; op < 5000; op++ {
		k := r.Int63n(300)
		switch r.Intn(4) {
		case 0:
			p.Delete(adm.Int(k))
			delete(model, k)
		default:
			v := r.Int63()
			p.Upsert(adm.Int(k), rec(k, "v", adm.Int(v)))
			model[k] = v
		}
		if op%500 == 0 {
			p.Snapshot()
		}
	}
	snap := p.Snapshot()
	count := 0
	snap.Scan(func(k, rv adm.Value) bool {
		mv, ok := model[k.IntVal()]
		if !ok {
			t.Fatalf("scan surfaced deleted key %d", k.IntVal())
		}
		if rv.Field("v").IntVal() != mv {
			t.Fatalf("stale value for key %d", k.IntVal())
		}
		count++
		return true
	})
	if count != len(model) {
		t.Fatalf("scan count %d != model %d", count, len(model))
	}
}

func TestStatsCounters(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	p.Upsert(adm.Int(1), rec(1))
	p.Get(adm.Int(1))
	p.Get(adm.Int(2))
	p.Delete(adm.Int(1))
	p.Snapshot()
	st := p.Stats()
	if st.Upserts != 1 || st.Gets != 2 || st.Deletes != 1 || st.Scans != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func BenchmarkPartitionUpsert(b *testing.B) {
	p := memPartition(b, DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := int64(i % 100000)
		p.Upsert(adm.Int(k), rec(k))
	}
}

// BenchmarkSnapshotScan100k scans 100 k records out of run files: bare
// (DefaultOptions: every block is read and decoded again) and with the
// block cache every cluster partition has.
func BenchmarkSnapshotScan100k(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{{"bare", DefaultOptions()}, {"cached", cachedOptions()}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := memPartition(b, cfg.opts)
			for i := int64(0); i < 100000; i++ {
				p.Upsert(adm.Int(i), rec(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				p.Snapshot().Scan(func(adm.Value, adm.Value) bool { n++; return true })
				if n != 100000 {
					b.Fatalf("scan saw %d", n)
				}
			}
		})
	}
}

func ExamplePartition() {
	p, _ := OpenPartition(NewMemFS(), "part", DefaultOptions())
	defer p.Close()
	p.Upsert(adm.Int(1), rec(1, "text", adm.String("let there be light")))
	v, _, _ := p.Get(adm.Int(1))
	fmt.Println(v.Field("text").StringVal())
	// Output: let there be light
}

// TestSnapshotCursorMatchesScan cross-checks the pull cursor against
// the callback scan over a partition with overwrites, deletes, and
// multiple components (frozen trees and run files).
func TestSnapshotCursorMatchesScan(t *testing.T) {
	p := memPartition(t, smallOpts())
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		k := int64(r.Intn(800))
		switch r.Intn(10) {
		case 0:
			p.Delete(adm.Int(k))
		default:
			p.Upsert(adm.Int(k), rec(k, "round", adm.Int(int64(i))))
		}
	}
	snap := p.Snapshot()
	type kv struct{ k, round int64 }
	var want []kv
	snap.Scan(func(k, v adm.Value) bool {
		want = append(want, kv{k.IntVal(), v.Field("round").IntVal()})
		return true
	})
	cu := snap.Cursor()
	var got []kv
	for {
		k, v, ok := cu.Next()
		if !ok {
			break
		}
		got = append(got, kv{k.IntVal(), v.Field("round").IntVal()})
	}
	if len(got) != len(want) {
		t.Fatalf("cursor %d records, scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: cursor %v, scan %v", i, got[i], want[i])
		}
	}
}

// TestSnapshotCursorEarlyStop verifies a cursor abandoned after k pulls
// leaves the partition fully usable (nothing is locked or consumed).
func TestSnapshotCursorEarlyStop(t *testing.T) {
	p := memPartition(t, smallOpts())
	for i := int64(0); i < 500; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	cu := p.Snapshot().Cursor()
	for i := 0; i < 10; i++ {
		k, _, ok := cu.Next()
		if !ok || k.IntVal() != int64(i) {
			t.Fatalf("pull %d = %v,%v", i, k, ok)
		}
	}
	// Writes proceed and a fresh snapshot sees everything.
	p.Upsert(adm.Int(999), rec(999))
	if n := liveLen(t, p.Snapshot()); n != 501 {
		t.Fatalf("Len after abandoned cursor = %d", n)
	}
}

// TestFrozenTreeComponentImmutable checks that writes after a freeze
// land in a fresh memtable and do not disturb an open cursor over the
// frozen tree.
func TestFrozenTreeComponentImmutable(t *testing.T) {
	p := memPartition(t, smallOpts())
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.String("old")))
	}
	snap := p.Snapshot() // freezes the memtable (detaches the tree)
	cu := snap.Cursor()
	for i := int64(0); i < 100; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.String("new")))
	}
	n := 0
	for {
		_, v, ok := cu.Next()
		if !ok {
			break
		}
		if v.Field("v").StringVal() != "old" {
			t.Fatal("snapshot cursor observed post-snapshot write")
		}
		n++
	}
	if n != 100 {
		t.Fatalf("cursor saw %d records", n)
	}
	if v, _, _ := p.Get(adm.Int(3)); v.Field("v").StringVal() != "new" {
		t.Fatal("live read should see the new version")
	}
}
