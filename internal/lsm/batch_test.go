package lsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/spatial"
)

// TestUpsertBatchMatchesModel: batched frames must leave the partition
// in exactly the state the map model predicts — including duplicate keys
// inside one batch (last occurrence wins), tombstones inside a batch,
// and replacements of earlier batches — and scan it in key order.
func TestUpsertBatchMatchesModel(t *testing.T) {
	p := memPartition(t, smallOpts())
	r := rand.New(rand.NewSource(7))
	model := map[int64]int64{}
	for round := 0; round < 40; round++ {
		n := 1 + r.Intn(300)
		keys := make([]adm.Value, n)
		recs := make([]adm.Value, n)
		for i := 0; i < n; i++ {
			k := r.Int63n(500)
			keys[i] = adm.Int(k)
			if r.Intn(10) == 0 {
				recs[i] = adm.Missing()
				delete(model, k)
				continue
			}
			v := r.Int63()
			recs[i] = rec(k, "v", adm.Int(v))
			model[k] = v
		}
		if err := p.UpsertBatch(keys, recs); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range model {
		got, ok, _ := p.Get(adm.Int(k))
		if !ok || got.Field("v").IntVal() != v {
			t.Fatalf("Get(%d) = %v,%v want v=%d", k, got, ok, v)
		}
	}
	// The scan must yield exactly the model's keys, ascending, with the
	// model's values (so deleted keys are gone, not merely unreachable).
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	i := 0
	p.Snapshot().Scan(func(k, v adm.Value) bool {
		if i >= len(want) || k.IntVal() != want[i] || v.Field("v").IntVal() != model[want[i]] {
			t.Fatalf("scan item %d = %s=%s, want key %v", i, k, v, want[min(i, len(want)-1)])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan yielded %d records, model has %d", i, len(want))
	}
}

// TestUpsertBatchWAL: one batch is one WAL commit but len(batch) log
// entries — the group-commit amortization the paper describes.
func TestUpsertBatchWAL(t *testing.T) {
	p := memPartition(t, DefaultOptions())
	keys := []adm.Value{adm.Int(1), adm.Int(2), adm.Int(3)}
	recs := []adm.Value{rec(1), rec(2), rec(3)}
	p.UpsertBatch(keys, recs)
	if got := p.WAL().LSN(); got != 3 {
		t.Fatalf("LSN = %d, want 3 (one entry per record)", got)
	}
	if got := p.WAL().Commits(); got != 1 {
		t.Fatalf("Commits = %d, want 1 (one group commit per frame)", got)
	}
	if got := committedLSN(p.WAL()); got != 3 {
		t.Fatalf("Committed = %d, want 3", got)
	}
	if got := p.Stats().Upserts; got != 3 {
		t.Fatalf("Upserts = %d, want 3", got)
	}
}

// TestUpsertBatchFlushThreshold: crossing the memtable budget inside a
// batch triggers exactly one freeze, checked per batch rather than per
// record.
func TestUpsertBatchFlushThreshold(t *testing.T) {
	p := memPartition(t, Options{MemBudget: 4 << 10, MaxComponents: 64})
	const n = 64
	keys := make([]adm.Value, n)
	recs := make([]adm.Value, n)
	for i := range keys {
		keys[i] = adm.Int(int64(i))
		recs[i] = rec(int64(i), "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}
	p.UpsertBatch(keys, recs)
	s := p.Stats()
	if s.Flushes != 1 {
		t.Fatalf("Flushes = %d, want exactly 1 per over-budget batch", s.Flushes)
	}
	if s.MemEntries != 0 {
		t.Fatalf("MemEntries = %d, want 0 after freeze", s.MemEntries)
	}
	if got := liveLen(t, p.Snapshot()); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// checkIndexesAgainstScan is the brute-force oracle for secondary
// indexes: it extracts the key and the rect of every live record from a
// full scan and requires the two indexes to hold exactly those entries —
// per-key postings and the total for the B-tree, the size and a set of
// window queries for the R-tree.
func checkIndexesAgainstScan(t *testing.T, label string, p *Partition, bt *BTreeIndex, rt *RTreeIndex) {
	t.Helper()
	ints := func(pks []adm.Value) []int64 {
		out := make([]int64, len(pks))
		for i, pk := range pks {
			out[i] = pk.IntVal()
		}
		slices.Sort(out)
		return out
	}
	// mismatch describes how two sorted pk lists differ without printing
	// thousands of keys.
	mismatch := func(got, want []int64) string {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Sprintf("%d pks, scan says %d; they first differ at position %d", len(got), len(want), i)
	}
	type located struct {
		rect spatial.Rect
		pk   int64
	}
	postings := map[string][]int64{}
	keyOf := map[string]adm.Value{}
	var rects []located
	total := 0
	p.Snapshot().Scan(func(pk, rec adm.Value) bool {
		if k, ok := bt.extract(rec); ok {
			postings[k.String()] = append(postings[k.String()], pk.IntVal())
			keyOf[k.String()] = k.Detached() // k may lie in the scan's pinned block
			total++
		}
		if rc, ok := rt.extract(rec); ok {
			rects = append(rects, located{rc, pk.IntVal()})
		}
		return true
	})
	for ks, want := range postings {
		slices.Sort(want)
		if got := ints(postingsOf(bt, keyOf[ks])); !slices.Equal(got, want) {
			t.Fatalf("%s: %s postings of %s = %s", label, bt.Name(), ks, mismatch(got, want))
		}
	}
	if got := len(postingsIn(bt, index.Unbounded(), index.Unbounded())); got != total {
		t.Fatalf("%s: %s holds %d entries, scan says %d", label, bt.Name(), got, total)
	}
	if got := len(rt.Search(spatial.NewRect(-1e9, -1e9, 1e9, 1e9))); got != len(rects) {
		t.Fatalf("%s: %s holds %d entries, scan says %d", label, rt.Name(), got, len(rects))
	}
	for _, q := range []spatial.Rect{
		spatial.NewRect(-1e9, -1e9, 1e9, 1e9),
		spatial.NewRect(0, 0, 4, 4),
		spatial.NewRect(3.5, 2.5, 9.5, 7.5),
		spatial.NewRect(100, 100, 101, 101),
	} {
		var want []int64
		for _, l := range rects {
			if l.rect.Intersects(q) {
				want = append(want, l.pk)
			}
		}
		slices.Sort(want)
		if got := ints(rt.Search(q)); !slices.Equal(got, want) {
			t.Fatalf("%s: %s Search(%v) = %s", label, rt.Name(), q, mismatch(got, want))
		}
	}
}

// TestUpsertBatchSecondaryIndexes: the write path must keep secondary
// indexes equal to what a full scan implies — replaced records' old
// entries removed, deleted records gone, new entries present, across
// both index types — whether the index was attached before the writes
// (maintained batch by batch) or after them (back-filled in more than
// one chunk, from the memtable and frozen components together).
func TestUpsertBatchSecondaryIndexes(t *testing.T) {
	p := memPartition(t, Options{MemBudget: 64 << 10, MaxComponents: 64})
	bt := NewBTreeIndex("byCountry", FieldKeyExtractor("country"))
	rt := NewRTreeIndex("byLoc", FieldRectExtractor("loc"))
	if err := p.AttachIndex(bt); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachIndex(rt); err != nil {
		t.Fatal(err)
	}

	mk := func(id int64, country string, x float64) adm.Value {
		return rec(id, "country", adm.String(country), "loc", adm.Point(x, x))
	}
	p.UpsertBatch(
		[]adm.Value{adm.Int(1), adm.Int(2), adm.Int(3)},
		[]adm.Value{mk(1, "US", 1), mk(2, "US", 2), mk(3, "FR", 3)},
	)
	checkIndexesAgainstScan(t, "first batch", p, bt, rt)
	// Replace 2 (US→DE, moves location), delete 3 and add 4 in one batch.
	p.UpsertBatch(
		[]adm.Value{adm.Int(2), adm.Int(3), adm.Int(4)},
		[]adm.Value{mk(2, "DE", 9), adm.Missing(), mk(4, "FR", 4)},
	)
	checkIndexesAgainstScan(t, "replace+delete batch", p, bt, rt)
	if got := len(postingsOf(bt, adm.String("US"))); got != 1 {
		t.Fatalf("US entries after replace = %d, want 1", got)
	}
	// The R-tree must have dropped point (2,2) and gained (9,9).
	if got := len(rt.Search(spatial.NewRect(1.5, 1.5, 2.5, 2.5))); got != 0 {
		t.Fatalf("stale spatial entry survives replace: %d hits", got)
	}
	if got := len(rt.Search(spatial.NewRect(8.5, 8.5, 9.5, 9.5))); got != 1 {
		t.Fatalf("moved spatial entry missing: %d hits", got)
	}

	// Single-record mutators ride the same path.
	if err := p.Upsert(adm.Int(1), mk(1, "FR", 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(adm.Int(5), mk(5, "DE", 6)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(adm.Int(5), mk(5, "XX", 7)); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if _, err := p.Delete(adm.Int(4)); err != nil {
		t.Fatal(err)
	}
	checkIndexesAgainstScan(t, "single-record writes", p, bt, rt)

	// Grow past two back-fill chunks with replacements spread over the
	// memtable and frozen components, then attach fresh indexes.
	countries := []string{"US", "FR", "DE", "JP", "BR"}
	for base := int64(0); base < 3*backfillChunk; base += 500 {
		keys := make([]adm.Value, 600)
		recs := make([]adm.Value, 600)
		for i := range keys {
			id := 10 + (base+int64(i)*7)%(3*backfillChunk)
			keys[i] = adm.Int(id)
			recs[i] = mk(id, countries[(id+base)%5], float64((id+base)%10))
		}
		p.UpsertBatch(keys, recs)
	}
	p.Snapshot() // freeze, so the next batch is all the memtable holds
	p.UpsertBatch(
		[]adm.Value{adm.Int(10), adm.Int(11), adm.Int(5000)},
		[]adm.Value{mk(10, "JP", 3), adm.Missing(), mk(5000, "BR", 8)},
	)
	if st := p.Stats(); st.Components == 0 || st.MemEntries == 0 || liveLen(t, p.Snapshot()) <= 2*backfillChunk {
		t.Fatalf("back-fill setup: %d components, %d memtable entries, %d records", st.Components, st.MemEntries, liveLen(t, p.Snapshot()))
	}
	checkIndexesAgainstScan(t, "maintained across flushes", p, bt, rt)
	lateBT := NewBTreeIndex("lateCountry", FieldKeyExtractor("country"))
	lateRT := NewRTreeIndex("lateLoc", FieldRectExtractor("loc"))
	if err := p.AttachIndex(lateBT); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachIndex(lateRT); err != nil {
		t.Fatal(err)
	}
	checkIndexesAgainstScan(t, "back-filled", p, lateBT, lateRT)
}

// TestDatasetUpsertBatch: routing, validation-before-write, and
// multi-partition grouping.
func TestDatasetUpsertBatch(t *testing.T) {
	dt := adm.MustDatatype("T", true, []adm.FieldDef{
		{Name: "id", Kind: adm.KindString},
	})
	ds := memDataset(t, "d", dt, "id", 4, smallOpts())
	recs := make([]adm.Value, 50)
	for i := range recs {
		recs[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.String(fmt.Sprintf("k%02d", i)), "v", adm.Int(int64(i))))
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := liveLen(t, ds); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	for i := 0; i < 50; i += 7 {
		v, ok := ds.Get(adm.String(fmt.Sprintf("k%02d", i)))
		if !ok || v.Field("v").IntVal() != int64(i) {
			t.Fatalf("Get(k%02d) = %v,%v", i, v, ok)
		}
	}
	// A record failing validation rejects the batch before any write.
	bad := append([]adm.Value{}, recs...)
	bad[25] = adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(99)))
	ds2 := memDataset(t, "d2", dt, "id", 4, smallOpts())
	if err := ds2.UpsertBatch(bad); err == nil {
		t.Fatal("batch with invalid record must fail")
	}
	if got := liveLen(t, ds2); got != 0 {
		t.Fatalf("failed batch wrote %d records, want 0", got)
	}
}
