package lsm

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// scanDataset builds an n-record dataset over `parts` partitions with an
// integer pk "id", a low-cardinality string "cat", and an int "score".
func scanDataset(t testing.TB, n, parts int) *Dataset {
	t.Helper()
	ds := memDataset(t, "S", nil, "id", parts, DefaultOptions())
	recs := make([]adm.Value, n)
	for i := range recs {
		recs[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(int64(i)),
			"cat", adm.String(fmt.Sprintf("c%03d", i%50)),
			"score", adm.Int(int64(i%97)),
		))
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFieldBTreeIndexForField(t *testing.T) {
	ds := scanDataset(t, 500, 3)
	if name, idxs := ds.BTreeIndexForField("cat"); name != "" || idxs != nil {
		t.Fatalf("probe before creation = %q,%v", name, idxs)
	}
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	// An index of another kind on another field must not match.
	if err := ds.CreateSpatialIndex("by_score", "score"); err != nil {
		t.Fatal(err)
	}
	name, idxs := ds.BTreeIndexForField("cat")
	if name != "by_cat" || len(idxs) != ds.NumPartitions() {
		t.Fatalf("probe = %q, %d instances", name, len(idxs))
	}
	if name, idxs := ds.BTreeIndexForField("score"); name != "" || idxs != nil {
		t.Fatalf("spatial index leaked into the B-tree field probe: %q %v", name, idxs)
	}
}

// TestIndexForFieldPicksFirstDeclared: with several indexes over one
// field the probe answers with the first one declared, every time — the
// plan string naming it must not change from run to run.
func TestIndexForFieldPicksFirstDeclared(t *testing.T) {
	ds := scanDataset(t, 50, 2)
	for _, name := range []string{"first", "second", "third"} {
		if err := ds.CreateFieldBTreeIndex(name, "cat"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if name, _ := ds.BTreeIndexForField("cat"); name != "first" {
			t.Fatalf("probe %d chose %q, want the first declared", i, name)
		}
	}
}

// TestIndexScanCursorMatchesFullScan checks that an index range scan
// returns exactly the records a filtered full scan returns, across
// equality and range bounds, as a multiset of ids, and that a closed
// cursor yields nothing more.
func TestIndexScanCursorMatchesFullScan(t *testing.T) {
	ds := scanDataset(t, 2_000, 4)
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	_, idxs := ds.BTreeIndexForField("cat")
	snaps := ds.SnapshotAll()

	cases := []struct {
		lo, hi index.Bound
		keep   func(cat string) bool
	}{
		{index.Include(adm.String("c007")), index.Include(adm.String("c007")),
			func(c string) bool { return c == "c007" }},
		{index.Include(adm.String("c010")), index.Exclude(adm.String("c020")),
			func(c string) bool { return c >= "c010" && c < "c020" }},
		{index.Unbounded(), index.Include(adm.String("c003")),
			func(c string) bool { return c <= "c003" }},
		{index.Exclude(adm.String("c045")), index.Unbounded(),
			func(c string) bool { return c > "c045" }},
		{index.Include(adm.String("zzz")), index.Unbounded(),
			func(c string) bool { return false }},
	}
	for ci, tc := range cases {
		var want []int64
		for _, s := range snaps {
			s.Scan(func(_, rec adm.Value) bool {
				if tc.keep(rec.Field("cat").StringVal()) {
					want = append(want, rec.Field("id").IntVal())
				}
				return true
			})
		}
		var got []int64
		cur := NewIndexScanCursor(snaps, idxs, tc.lo, tc.hi)
		for {
			_, rec, ok := cur.Next()
			if !ok {
				break
			}
			got = append(got, rec.Field("id").IntVal())
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("case %d: index scan %d rows, full scan %d rows", ci, len(got), len(want))
		}
		// A cursor closed — drained or not, once or twice — is exhausted.
		mid := NewIndexScanCursor(snaps, idxs, tc.lo, tc.hi)
		mid.Next()
		for _, c := range []*IndexScanCursor{cur, cur, mid, mid} {
			c.Close()
			if _, _, ok := c.Next(); ok {
				t.Errorf("case %d: a closed cursor yields a row", ci)
			}
		}
	}
}

// TestParallelScanOrders checks all three combine modes against the
// sequential scan: PartitionOrder must match it exactly, KeyOrder must
// produce global pk order, Unordered must match as a multiset.
func TestParallelScanOrders(t *testing.T) {
	ds := scanDataset(t, 3_000, 5)
	snaps := ds.SnapshotAll()
	var seq []int64
	sc := NewScanCursor(snaps)
	for {
		_, rec, ok := sc.Next()
		if !ok {
			break
		}
		seq = append(seq, rec.Field("id").IntVal())
	}

	drain := func(order ScanOrder) []int64 {
		t.Helper()
		cur := NewParallelScanCursor(snaps, nil, order)
		defer cur.Close()
		var out []int64
		for {
			_, rec, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, rec.Field("id").IntVal())
		}
	}

	if got := drain(PartitionOrder); !slices.Equal(got, seq) {
		t.Error("PartitionOrder diverges from the sequential scan")
	}
	keyOrdered := drain(KeyOrder)
	if !slices.IsSorted(keyOrdered) {
		t.Error("KeyOrder output is not globally sorted")
	}
	unordered := drain(Unordered)
	slices.Sort(unordered)
	sortedSeq := slices.Clone(seq)
	slices.Sort(sortedSeq)
	if !slices.Equal(keyOrdered, sortedSeq) {
		t.Error("KeyOrder multiset diverges")
	}
	if !slices.Equal(unordered, sortedSeq) {
		t.Error("Unordered multiset diverges")
	}
}

// TestParallelScanFilterAndErrors pushes a filter into the workers and
// checks both the filtering and a mid-scan filter error surfacing.
func TestParallelScanFilterAndErrors(t *testing.T) {
	ds := scanDataset(t, 1_000, 4)
	snaps := ds.SnapshotAll()
	keep := func(_, rec adm.Value) (bool, error) {
		return rec.Field("score").IntVal() < 10, nil
	}
	cur := NewParallelScanCursor(snaps, keep, PartitionOrder)
	n := 0
	for {
		_, rec, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rec.Field("score").IntVal() >= 10 {
			t.Fatal("filter leaked a record")
		}
		n++
	}
	cur.Close()
	want := 0
	for i := 0; i < 1_000; i++ {
		if i%97 < 10 {
			want++
		}
	}
	if n != want {
		t.Fatalf("filtered rows = %d, want %d", n, want)
	}

	boom := errors.New("boom")
	failing := func(_, rec adm.Value) (bool, error) {
		if rec.Field("id").IntVal() == 500 {
			return false, boom
		}
		return true, nil
	}
	cur = NewParallelScanCursor(snaps, failing, PartitionOrder)
	defer cur.Close()
	for {
		_, _, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("scan exhausted without surfacing the worker error")
		}
	}
	if _, _, ok, _ := cur.Next(); ok {
		t.Fatal("cursor yielded rows after an error")
	}
}

// TestParallelScanCloseMidScan abandons scans at various points (the
// Rows.Close teardown path); with -race this doubles as the clean
// teardown check. Closing twice must be safe. Each partition holds more
// records than its channel, the batch in the worker's hand and the
// consumer's batch together, so workers sit blocked on a full channel
// when Close comes.
func TestParallelScanCloseMidScan(t *testing.T) {
	const parts, perPart = 4, (scanChanBatches + 3) * scanBatchSize
	ds := scanDataset(t, parts*perPart, parts)
	snaps := ds.SnapshotAll()
	for i, s := range snaps {
		if n := liveLen(t, s); n <= (scanChanBatches+2)*scanBatchSize {
			t.Fatalf("partition %d holds %d records: too few to block its worker", i, n)
		}
	}
	for _, order := range []ScanOrder{PartitionOrder, KeyOrder, Unordered} {
		for _, stop := range []int{0, 1, 7, 500} {
			cur := NewParallelScanCursor(snaps, nil, order)
			for i := 0; i < stop; i++ {
				if _, _, ok, err := cur.Next(); !ok || err != nil {
					t.Fatalf("order %d: premature end at %d (%v)", order, i, err)
				}
			}
			cur.Close()
			cur.Close()
			if _, _, ok, _ := cur.Next(); ok {
				t.Fatalf("order %d: Next yielded after Close", order)
			}
		}
	}
}

// TestParallelScanPoolsClearedBatches: scans recycle their batches
// through scanBatches, and Close clears every batch it hands back, so a
// pooled batch pins no record (nor the block a view of it aliases).
// Concurrent scans stopped at every stage share the pool and leave only
// cleared batches in it.
func TestParallelScanPoolsClearedBatches(t *testing.T) {
	const parts, perPart = 3, (scanChanBatches + 3) * scanBatchSize
	ds := scanDataset(t, parts*perPart, parts)
	snaps := ds.SnapshotAll()
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, order := range []ScanOrder{PartitionOrder, KeyOrder, Unordered} {
				for _, stop := range []int{0, 1, 500, -1} {
					cur := NewParallelScanCursor(snaps, nil, order)
					for i := 0; stop < 0 || i < stop; i++ {
						if _, _, ok, err := cur.Next(); err != nil {
							t.Error(err)
						} else if !ok {
							break
						}
					}
					cur.Close()
				}
			}
		}()
	}
	wg.Wait()
	var taken []*scanBatch
	for range 4 * scanChanBatches * parts {
		b := scanBatches.Get().(*scanBatch)
		for i, it := range b.items[:cap(b.items)] {
			if !reflect.ValueOf(it).IsZero() {
				t.Fatalf("a pooled batch holds item %d: %v", i, it.key)
			}
		}
		if len(b.items) != 0 || len(b.leases) != 0 || b.transient || slices.ContainsFunc(b.leases[:cap(b.leases)], func(e *blockEntry) bool { return e != nil }) {
			t.Fatalf("a pooled batch holds %d items, leases %v, transient %v", len(b.items), b.leases[:cap(b.leases)], b.transient)
		}
		taken = append(taken, b)
	}
	for _, b := range taken {
		scanBatches.Put(b)
	}
}

// TestParallelScanAllocationsIndependentOfN: a parallel scan over
// flushed records in a warm cache allocates per scan — its channels,
// workers and cursor; its batches come from the pool — never per record,
// in every order, with and without a pushed filter, reading a string
// field of every record: 20 000 records cost what 2 000 do. A batch item
// is the two encodings its entry lies in, which Next makes views of:
// 2.5× or more smaller than the two adm.Values and the error it was
// (176 bytes an item, 22.5 KB a batch).
func TestParallelScanAllocationsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	was := 2*unsafe.Sizeof(adm.Value{}) + unsafe.Sizeof(error(nil))
	if now := unsafe.Sizeof(parItem{}); float64(was) < 2.5*float64(now) {
		t.Errorf("a scan batch item is %d bytes, %d before: want at least 2.5× smaller", now, was)
	}
	filters := map[string]func(key, rec adm.Value) (bool, error){
		"unfiltered": nil,
		"filtered":   func(_, rec adm.Value) (bool, error) { return rec.Field("cat").StringVal() != "", nil },
	}
	allocs := func(n int, order ScanOrder, filter func(key, rec adm.Value) (bool, error)) float64 {
		opts := cachedOptions()
		opts.MemBudget = 1 << 30
		snaps := []*Snapshot{flushedPartition(t, opts, n).Snapshot(), flushedPartition(t, opts, n).Snapshot()}
		drain := func() {
			cur := NewParallelScanCursor(snaps, filter, order)
			defer cur.Close()
			got := 0
			for {
				_, rec, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if rec.Field("cat").StringVal() == "" {
					t.Fatalf("record %v has no cat", rec)
				}
				got++
			}
			if got != 2*n {
				t.Fatalf("scanned %d records, want %d", got, 2*n)
			}
		}
		drain() // warm the cache
		return testing.AllocsPerRun(5, drain)
	}
	for _, order := range []ScanOrder{PartitionOrder, KeyOrder, Unordered} {
		for name, filter := range filters {
			small, large := allocs(2_000, order, filter), allocs(20_000, order, filter)
			if large > small+8 {
				t.Errorf("order %d, %s: %.0f allocations over 4 000 records, %.0f over 40 000", order, name, small, large)
			}
		}
	}
}

// TestIndexScanSeesItsInstant: an index scan captures, when it opens,
// the primary keys of the index entries in its range — substrings of the
// entries themselves — so writes to the index afterwards, which put and
// delete whole entries and never rewrite one, must not reach it. Cursors
// opened before a DeleteBatch and an InsertBatch on their key yield
// exactly the primary keys they captured — one paused mid-drain until
// the writes are done, one drained while they run (the race detector's
// case) — and a cursor opened afterwards sees the writes.
func TestIndexScanSeesItsInstant(t *testing.T) {
	ds := scanDataset(t, 1_000, 3)
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	_, idxs := ds.BTreeIndexForField("cat")
	snaps := ds.SnapshotAll()
	key := index.Include(adm.String("c007"))
	var want []int64
	for _, ix := range idxs {
		for _, pk := range postingsIn(ix, key, key) {
			want = append(want, pk.IntVal())
		}
	}
	drain := func(cur *IndexScanCursor) []int64 {
		var got []int64
		for {
			pk, _, ok := cur.Next()
			if !ok {
				return got
			}
			got = append(got, pk.IntVal())
		}
	}

	paused := NewIndexScanCursor(snaps, idxs, key, key)
	first, _, ok := paused.Next()
	if !ok {
		t.Fatal("empty index scan")
	}
	concurrent := NewIndexScanCursor(snaps, idxs, key, key)
	// Per partition, delete the first c007 entry and index a record of
	// another category under c007 — each moves a primary key the
	// snapshots hold, so a cursor that saw either write would say so.
	var added, removed []int64
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for p, ix := range idxs {
			var other adm.Value
			snaps[p].Scan(func(pk, rec adm.Value) bool {
				if rec.Field("cat").StringVal() != "c007" {
					other = pk
					return false
				}
				return true
			})
			pks := postingsIn(ix, key, key)
			item := func(pk adm.Value) []index.Item {
				return []index.Item{{Key: pk, Val: adm.ObjectValue(adm.ObjectFromPairs("id", pk, "cat", adm.String("c007")))}}
			}
			ix.DeleteBatch(item(pks[0]))
			ix.InsertBatch(item(other))
			added, removed = append(added, other.IntVal()), append(removed, pks[0].IntVal())
		}
	}()
	if got := drain(concurrent); !slices.Equal(got, want) {
		t.Errorf("cursor drained during the writes yielded %v, captured %v", got, want)
	}
	<-wrote
	if got := append([]int64{first.IntVal()}, drain(paused)...); !slices.Equal(got, want) {
		t.Errorf("cursor paused across the writes yielded %v, captured %v", got, want)
	}

	after := drain(NewIndexScanCursor(snaps, idxs, key, key))
	for _, pk := range added {
		if !slices.Contains(after, pk) {
			t.Errorf("a cursor opened after the writes misses the inserted entry of %d", pk)
		}
	}
	for _, pk := range removed {
		if slices.Contains(after, pk) {
			t.Errorf("a cursor opened after the writes still yields the deleted entry of %d", pk)
		}
	}
}

// TestCursorsReportTheirReadFault: every lsm reader that a failed block
// read stops says so itself — a pull cursor from its Err, a parallel
// scan from Next, its worker forwarding the fault across the goroutine —
// instead of passing for one that ran out. The fault is the reader's
// alone: once reads answer again, a fresh reader of each kind over the
// same snapshots returns every record and no error. There is no block
// cache, so every block read goes to the device.
func TestCursorsReportTheirReadFault(t *testing.T) {
	fsys := NewMemFS()
	ds, err := OpenDataset(fsys, "d", "D", nil, "id", 2, Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	const n = 600
	load := func(lo, hi int64) { // one flushed run per partition
		t.Helper()
		var recs []adm.Value
		for i := lo; i < hi; i++ {
			recs = append(recs, rec(i, "cat", adm.String(fmt.Sprintf("c%d", i%8))))
		}
		if err := ds.UpsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		for i := range ds.NumPartitions() {
			ds.Partition(i).Flush()
			settle(t, ds.Partition(i))
		}
	}
	load(0, n/2)
	since := ds.Epoch()
	load(n/2, n) // the run Changes(since) reads
	snaps := ds.SnapshotAll()
	_, idxs := ds.BTreeIndexForField("cat")

	// drain pulls a cursor dry: how many records it yielded, and its error.
	drain := func(next func() (adm.Value, adm.Value, bool), errOf func() error) (int, error) {
		got := 0
		for _, _, ok := next(); ok; _, _, ok = next() {
			got++
		}
		return got, errOf()
	}
	type reader struct {
		name string
		want int
		read func() (int, error)
	}
	readers := []reader{
		{"Snapshot.Cursor", n, func() (int, error) {
			total := 0
			for _, s := range snaps {
				cu := s.Cursor()
				got, err := drain(cu.Next, cu.Err)
				if total += got; err != nil {
					return total, err
				}
			}
			return total, nil
		}},
		{"Snapshot.Changes", n / 2, func() (int, error) {
			total := 0
			for i, s := range snaps {
				cc, ok := s.Changes(since[i])
				if !ok {
					t.Fatalf("partition %d: Changes reaches the oldest run", i)
				}
				got, err := drain(cc.Next, cc.Err)
				if total += got; err != nil {
					return total, err
				}
			}
			return total, nil
		}},
		{"NewScanCursor", n, func() (int, error) {
			sc := NewScanCursor(snaps)
			return drain(sc.Next, sc.Err)
		}},
		{"NewIndexScanCursor", n, func() (int, error) {
			c := NewIndexScanCursor(snaps, idxs, index.Unbounded(), index.Unbounded())
			return drain(c.Next, c.Err)
		}},
	}
	for _, o := range []struct {
		name  string
		order ScanOrder
	}{{"PartitionOrder", PartitionOrder}, {"KeyOrder", KeyOrder}, {"Unordered", Unordered}} {
		readers = append(readers, reader{"NewParallelScanCursor/" + o.name, n, func() (int, error) {
			c := NewParallelScanCursor(snaps, nil, o.order)
			defer c.Close()
			for got := 0; ; got++ {
				if _, _, ok, err := c.Next(); !ok {
					return got, err
				}
			}
		}})
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			fsys.FailReads(true)
			got, err := r.read()
			fsys.FailReads(false)
			if got >= r.want || !errors.Is(err, ErrInjected) {
				t.Errorf("with reads failing: %d of %d records, err %v; want fewer and the injected fault", got, r.want, err)
			}
			if got, err := r.read(); got != r.want || err != nil {
				t.Errorf("with reads answering again: %d of %d records, err %v", got, r.want, err)
			}
		})
	}
}
