package lsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

func rec(id int64, fields ...any) adm.Value {
	pairs := append([]any{"id", adm.Int(id)}, fields...)
	return adm.ObjectValue(adm.ObjectFromPairs(pairs...))
}

func smallOpts() Options {
	return Options{MemBudget: 16 << 10, MaxComponents: 4}
}

func TestPartitionUpsertGet(t *testing.T) {
	p := NewPartition(DefaultOptions())
	p.Upsert(adm.Int(1), rec(1, "v", adm.String("a")))
	got, ok := p.Get(adm.Int(1))
	if !ok || got.Field("v").StringVal() != "a" {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	p.Upsert(adm.Int(1), rec(1, "v", adm.String("b")))
	got, _ = p.Get(adm.Int(1))
	if got.Field("v").StringVal() != "b" {
		t.Error("upsert should replace")
	}
	if _, ok := p.Get(adm.Int(2)); ok {
		t.Error("absent key should miss")
	}
}

func TestPartitionInsertDuplicate(t *testing.T) {
	p := NewPartition(DefaultOptions())
	if err := p.Insert(adm.Int(1), rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(adm.Int(1), rec(1)); err == nil {
		t.Error("duplicate insert must fail")
	}
}

func TestPartitionDelete(t *testing.T) {
	p := NewPartition(smallOpts())
	p.Upsert(adm.Int(1), rec(1))
	if existed, err := p.Delete(adm.Int(1)); !existed || err != nil {
		t.Errorf("delete of live record = %v, %v; want true, nil", existed, err)
	}
	if _, ok := p.Get(adm.Int(1)); ok {
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
	if _, ok := p.Get(adm.Int(100)); ok {
		t.Error("tombstone must shadow frozen component")
	}
	snap := p.Snapshot()
	if _, ok := snap.Get(adm.Int(100)); ok {
		t.Error("snapshot must respect tombstone")
	}
}

func TestPartitionFlushAndMerge(t *testing.T) {
	p := NewPartition(smallOpts())
	const n = 2000
	for i := int64(0); i < n; i++ {
		p.Upsert(adm.Int(i), rec(i, "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")))
	}
	st := p.Stats()
	if st.Flushes == 0 {
		t.Error("expected flushes under small mem budget")
	}
	if st.Merges == 0 {
		t.Error("expected merges under small component cap")
	}
	if st.Components > smallOpts().MaxComponents+1 {
		t.Errorf("components = %d, exceeds cap", st.Components)
	}
	// All records still visible.
	for i := int64(0); i < n; i += 97 {
		if _, ok := p.Get(adm.Int(i)); !ok {
			t.Fatalf("key %d lost after flush/merge", i)
		}
	}
	if got := p.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
}

func TestSnapshotIsStable(t *testing.T) {
	p := NewPartition(DefaultOptions())
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
	if _, ok := snap.Get(adm.Int(1000)); ok {
		t.Error("snapshot saw record inserted after it was taken")
	}
	// A fresh snapshot sees the new state.
	if v, ok := p.Snapshot().Get(adm.Int(5)); !ok || v.Field("v").IntVal() != 1 {
		t.Error("new snapshot missed update")
	}
}

func TestSnapshotScanOrderedDeduped(t *testing.T) {
	p := NewPartition(smallOpts())
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
	if snap.Components() < 2 {
		t.Skipf("expected multiple components, got %d", snap.Components())
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
	p := NewPartition(DefaultOptions())
	p.Upsert(adm.Int(1), rec(1, "v", adm.Int(1)))
	p.Snapshot()
	p.Upsert(adm.Int(1), rec(1, "v", adm.Int(2)))
	p.Upsert(adm.Int(2), rec(2, "v", adm.Int(9)))
	snap := p.Snapshot()
	if v, ok := snap.Get(adm.Int(1)); !ok || v.Field("v").IntVal() != 2 {
		t.Errorf("newest version must win: %v %v", v, ok)
	}
	if v, ok := snap.Get(adm.Int(2)); !ok || v.Field("v").IntVal() != 9 {
		t.Errorf("Get(2) = %v,%v", v, ok)
	}
}

func TestPartitionUpdateActivatesMemtable(t *testing.T) {
	// The Fig 27 mechanism: a quiescent partition has everything frozen;
	// a single update puts a live memtable back in the read path.
	p := NewPartition(DefaultOptions())
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
	st := p.Stats()
	if st.Merges == 0 {
		t.Error("update+snapshot churn should have triggered merges")
	}
}

func TestWALGroupCommit(t *testing.T) {
	w := NewWAL(5 * time.Millisecond)
	w.appendEncoded(nil, 2)
	if w.LSN() != 2 {
		t.Fatalf("LSN = %d", w.LSN())
	}
	if w.Committed() != 0 {
		t.Fatal("nothing committed yet")
	}
	start := time.Now()
	w.Commit()
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("group commit returned too fast: %v", elapsed)
	}
	if w.Committed() != 2 || w.Commits() != 1 {
		t.Errorf("Committed=%d Commits=%d", w.Committed(), w.Commits())
	}
	// Zero-latency WAL must not sleep.
	w0 := NewWAL(0)
	w0.appendEncoded(nil, 1)
	start = time.Now()
	w0.Commit()
	if time.Since(start) > 2*time.Millisecond {
		t.Error("zero group commit should be immediate")
	}
}

func TestPartitionConcurrentReadersAndWriters(t *testing.T) {
	p := NewPartition(Options{MemBudget: 64 << 10, MaxComponents: 4})
	for i := int64(0); i < 1000; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: continuous upserts.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Int63n(1000)
				p.Upsert(adm.Int(k), rec(k, "w", adm.Int(seed)))
			}
		}(int64(w))
	}
	// Readers: point gets and snapshot scans.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 200; i++ {
				if r.Intn(10) == 0 {
					n := 0
					p.Snapshot().Scan(func(adm.Value, adm.Value) bool {
						n++
						return n < 50
					})
				} else {
					p.Get(adm.Int(r.Int63n(1000)))
				}
			}
		}(int64(rdr))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Give readers time to finish, then stop the writers.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent workload deadlocked")
	}
	if got := p.Len(); got != 1000 {
		t.Errorf("Len = %d, want 1000", got)
	}
}

func TestMergePreservesModel(t *testing.T) {
	// Randomized model check: upserts/deletes with frequent freezes must
	// always agree with a plain map.
	p := NewPartition(Options{MemBudget: 1 << 10, MaxComponents: 3})
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
	p := NewPartition(DefaultOptions())
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
	p := NewPartition(DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := int64(i % 100000)
		p.Upsert(adm.Int(k), rec(k))
	}
}

func BenchmarkSnapshotScan100k(b *testing.B) {
	p := NewPartition(DefaultOptions())
	for i := int64(0); i < 100000; i++ {
		p.Upsert(adm.Int(i), rec(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		p.Snapshot().Scan(func(adm.Value, adm.Value) bool { n++; return true })
		if n != 100000 {
			b.Fatalf("scan saw %d", n)
		}
	}
}

func ExamplePartition() {
	p := NewPartition(DefaultOptions())
	p.Upsert(adm.Int(1), rec(1, "text", adm.String("let there be light")))
	v, _ := p.Get(adm.Int(1))
	fmt.Println(v.Field("text").StringVal())
	// Output: let there be light
}

// TestSnapshotCursorMatchesScan cross-checks the pull cursor against
// the callback scan over a partition with overwrites, deletes, and
// multiple frozen components (both tree-backed and merged slice runs).
func TestSnapshotCursorMatchesScan(t *testing.T) {
	p := NewPartition(smallOpts())
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
	p := NewPartition(smallOpts())
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
	if n := p.Len(); n != 501 {
		t.Fatalf("Len after abandoned cursor = %d", n)
	}
}

// TestFrozenTreeComponentImmutable checks that writes after a freeze
// land in a fresh memtable and do not disturb an open cursor over the
// frozen tree.
func TestFrozenTreeComponentImmutable(t *testing.T) {
	p := NewPartition(smallOpts())
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
	if v, _ := p.Get(adm.Int(3)); v.Field("v").StringVal() != "new" {
		t.Fatal("live read should see the new version")
	}
}
