package lsm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestEpochMovesOnWritesOnly pins the contract state caching rests on:
// every kind of write moves the dataset's epoch, on either filesystem,
// and nothing that leaves the visible data alone does — another
// reader's snapshot (a memtable freeze), a flush, a compaction.
func TestEpochMovesOnWritesOnly(t *testing.T) {
	open := map[string]func(t *testing.T) *Dataset{
		"memory": func(t *testing.T) *Dataset {
			return memDataset(t, "ref", nil, "id", 2, smallOpts())
		},
		"durable": func(t *testing.T) *Dataset {
			ds, err := OpenDataset(NewOSFS(), t.TempDir(), "ref", nil, "id", 2, durableOpts())
			if err != nil {
				t.Fatal(err)
			}
			return ds
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			ds := mk(t)
			defer ds.Close()
			last := ds.Epoch()
			moved := func(what string) {
				t.Helper()
				now := ds.Epoch()
				if slices.Equal(now, last) {
					t.Fatalf("%s left the epoch at %v", what, now)
				}
				last = now
			}
			still := func(what string) {
				t.Helper()
				if now := ds.Epoch(); !slices.Equal(now, last) {
					t.Fatalf("%s moved the epoch %v -> %v", what, last, now)
				}
			}

			if err := ds.Upsert(rec(1, "v", adm.Int(1))); err != nil {
				t.Fatal(err)
			}
			moved("Upsert")
			if err := ds.Insert(rec(2, "v", adm.Int(1))); err != nil {
				t.Fatal(err)
			}
			moved("Insert")
			if err := ds.Insert(rec(2, "v", adm.Int(2))); err == nil {
				t.Fatal("duplicate Insert succeeded")
			}
			still("a rejected Insert")
			var batch []adm.Value
			for i := int64(10); i < 400; i++ {
				batch = append(batch, rec(i, "v", adm.Int(i)))
			}
			if err := ds.UpsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			moved("UpsertBatch")
			ds.Delete(adm.Int(1))
			moved("Delete")
			if err := ds.PutCheckpoint("feed/0", 7); err != nil {
				t.Fatal(err)
			}
			moved("PutCheckpoint")

			ds.SnapshotAll()
			still("Snapshot")
			if _, ok := ds.Get(adm.Int(2)); !ok {
				t.Fatal("Get(2) missed")
			}
			still("Get")
			for i := 0; i < ds.NumPartitions(); i++ {
				// Something for the freeze below to freeze: the snapshots
				// above emptied the memtables.
				ds.Partition(i).Upsert(adm.Int(1000+int64(i)), rec(1000+int64(i)))
			}
			last = ds.Epoch()
			for i := 0; i < ds.NumPartitions(); i++ {
				p := ds.Partition(i)
				p.Flush()
				settle(t, p)
			}
			still("freeze, flush and compaction")
			if got := liveLen(t, ds); got != 393 {
				t.Fatalf("Len = %d, want 393", got)
			}
		})
	}
}

// TestSnapshotErrReportsRunReadFault: a block read that fails mid-scan
// ends the scan early, and the reader reports the fault, so a partial
// scan never passes for a complete one. The fault is the reader's, not
// the run's: once reads answer again, the same snapshot scans whole.
func TestSnapshotErrReportsRunReadFault(t *testing.T) {
	fsys := NewMemFS()
	p, err := OpenPartition(fsys, "part", Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 500
	for i := int64(0); i < n; i++ {
		p.Upsert(adm.Int(i), rec(i, "v", adm.Int(i)))
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	if p.Runs() == 0 {
		t.Fatal("nothing was flushed to a run file")
	}

	snap := p.Snapshot()
	if got, err := snap.Len(); got != n || err != nil {
		t.Fatalf("healthy scan: %d records, err %v", got, err)
	}
	fsys.FailReads(true)
	if got, err := snap.Len(); got >= n || !errors.Is(err, ErrInjected) {
		t.Fatalf("count under a read fault = %d, %v; want fewer records and the injected read fault", got, err)
	}
	cu := snap.Cursor()
	for _, _, ok := cu.Next(); ok; _, _, ok = cu.Next() {
	}
	if err := cu.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Cursor.Err = %v, want the injected read fault", err)
	}
	fsys.FailReads(false)
	if got, err := snap.Len(); got != n || err != nil {
		t.Fatalf("the same snapshot with reads answering again: %d records, err %v; want all %d", got, err, n)
	}
}

// TestPointLookupNeverAnswersStale: a lookup whose newest run cannot be
// read must not fall through to an older run and answer with the
// version the newer one replaced, nor pass for not-found: it returns the
// read fault, and an INSERT's duplicate check fails the write with it
// instead of taking the key for absent. Here the older run's block is
// cached, so only the newer run touches the failing device.
func TestPointLookupNeverAnswersStale(t *testing.T) {
	fsys := NewMemFS()
	p, err := OpenPartition(fsys, "part", Options{MemBudget: 1 << 20, MaxComponents: 8, BlockCache: NewBlockCache(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	key := adm.Int(7)
	store := func(v int64) {
		t.Helper()
		if err := p.Upsert(key, rec(7, "v", adm.Int(v))); err != nil {
			t.Fatal(err)
		}
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	store(1)
	if v, ok, err := p.Get(key); !ok || err != nil || v.Field("v").IntVal() != 1 {
		t.Fatalf("Get = %v, %v, %v; want version 1", v, ok, err)
	}
	store(2)
	if p.Runs() != 2 {
		t.Fatalf("runs = %d, want the two versions in two runs", p.Runs())
	}
	snap := p.Snapshot()
	epoch := p.Epoch()

	fsys.FailReads(true)
	defer fsys.FailReads(false)
	for name, get := range map[string]func(adm.Value) (adm.Value, bool, error){"Partition.Get": p.Get, "Snapshot.Get": snap.Get} {
		if v, ok, err := get(key); ok || !errors.Is(err, ErrInjected) {
			t.Errorf("%s = %v, %v, %v under a read fault on the run holding version 2; want the fault", name, v, ok, err)
		}
	}
	if err := p.Insert(key, rec(7, "v", adm.Int(3))); !errors.Is(err, ErrInjected) {
		t.Fatalf("Insert over an unreadable run = %v, want the read fault", err)
	}
	if p.Epoch() != epoch {
		t.Fatal("the failed Insert was logged")
	}
}

// TestPointLookupPromotesNumericKeys: a point lookup finds a key stored
// as the other numeric kind with the same value (7 = 7.0), as
// adm.Compare equates them, from the memtable and from a run whose bloom
// filter hashed the stored encoding; a non-integral double matches no
// int64. The memtable arm probes a memtable that holds the keys. The run
// spans several blocks, so a probe crosses the block index, whose first
// keys are of both kinds, to a block whose keys may be of the other kind.
func TestPointLookupPromotesNumericKeys(t *testing.T) {
	p, err := OpenPartition(NewMemFS(), "part", Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	type probe struct {
		key   adm.Value
		found bool
	}
	keys := []adm.Value{adm.Int(7), adm.Double(9)}
	probes := []probe{{adm.Int(7), true}, {adm.Double(7), true}, {adm.Int(9), true}, {adm.Double(9), true}, {adm.Double(7.5), false}, {adm.Int(8), false}}
	// Keys 100..139 besides, even ones int64s and odd ones doubles, with
	// records of a quarter block each.
	for i := int64(100); i < 140; i++ {
		if i%2 == 0 {
			keys = append(keys, adm.Int(i))
		} else {
			keys = append(keys, adm.Double(float64(i)))
		}
		probes = append(probes, probe{adm.Int(i), true}, probe{adm.Double(float64(i)), true}, probe{adm.Double(float64(i) + 0.5), false})
	}
	pad := adm.String(strings.Repeat("p", runBlockTarget/4))
	for _, k := range keys {
		if err := p.Upsert(k, rec(1, "k", k, "pad", pad)); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"memtable", "run"} {
		if where == "run" {
			p.Flush()
			if err := p.WaitForFlush(); err != nil || p.Runs() != 1 {
				t.Fatalf("flush: %v, %d runs", err, p.Runs())
			}
			if n := len(partitionRuns(p)[0].blocks); n < 8 {
				t.Fatalf("the run holds %d blocks, want several", n)
			}
		} else if n := p.Stats().MemEntries; n != len(keys) {
			t.Fatalf("memtable holds %d entries, want the %d keys", n, len(keys))
		}
		for _, pr := range probes {
			if _, ok, err := p.Get(pr.key); ok != pr.found || err != nil {
				t.Errorf("%s: Get(%v) = %v, %v; want found=%v", where, pr.key, ok, err, pr.found)
			}
		}
	}
}

// TestReplacedKeyKeepsItsEncoding pins which encoding of a numeric key
// storage keeps when a write under the other numeric kind replaces it
// (7.0 after 7: one key under adm.Compare). In the memtable the entry
// keeps the key it had and takes the new record, and the run its flush
// writes holds that same key; within one batch the last occurrence wins
// whole, its key included. A scan hands the kept encoding up, so the
// key's kind tells which write put the key there.
func TestReplacedKeyKeepsItsEncoding(t *testing.T) {
	p := memPartition(t, Options{MemBudget: 1 << 20, MaxComponents: 8})
	scan := func() []adm.Value {
		t.Helper()
		var got []adm.Value
		if err := p.Snapshot().Scan(func(key, r adm.Value) bool {
			got = append(got, key, r.Field("v"))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(where string, want ...adm.Value) {
		t.Helper()
		got := scan()
		if len(got) != len(want) {
			t.Fatalf("%s: scan = %v, want %v", where, got, want)
		}
		for i := range got {
			if got[i].Kind() != want[i].Kind() || adm.Compare(got[i], want[i]) != 0 {
				t.Fatalf("%s: scan = %v, want %v (kinds matter)", where, got, want)
			}
		}
	}
	if err := p.Upsert(adm.Int(7), rec(7, "v", adm.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := p.Upsert(adm.Double(7), rec(7, "v", adm.Int(2))); err != nil {
		t.Fatal(err)
	}
	if err := p.UpsertBatch([]adm.Value{adm.Int(9), adm.Double(9)}, []adm.Value{rec(9, "v", adm.Int(3)), rec(9, "v", adm.Int(4))}); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().MemEntries; n != 2 {
		t.Fatalf("memtable holds %d entries, want 2", n)
	}
	check("memtable", adm.Int(7), adm.Int(2), adm.Double(9), adm.Int(4))
	p.Flush()
	if err := p.WaitForFlush(); err != nil || p.Runs() != 1 {
		t.Fatalf("flush: %v, %d runs", err, p.Runs())
	}
	check("run", adm.Int(7), adm.Int(2), adm.Double(9), adm.Int(4))
}

// TestCreateIndexFailsOverUnreadableRun: the back-fill reads existing
// records through the same merge as a scan, so a run it cannot read
// ends it early. CREATE INDEX must then fail with the read error and
// leave no partition holding the partial index — including a partition
// whose own back-fill (memtable only) succeeded.
func TestCreateIndexFailsOverUnreadableRun(t *testing.T) {
	fsys := NewMemFS()
	ds, err := OpenDataset(fsys, "D", "D", nil, "id", 2, Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const n = 2_000
	recs := make([]adm.Value, n)
	for i := range recs {
		recs[i] = rec(int64(i), "cat", adm.String(fmt.Sprintf("c%02d", i%40)))
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	// Partition 1 reads from a run, partition 0 from its memtable alone.
	last := ds.Partition(1)
	last.Flush()
	if err := last.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
	if ds.Partition(0).Runs() != 0 || last.Runs() == 0 {
		t.Fatalf("runs = %d, %d; want partition 1 alone flushed", ds.Partition(0).Runs(), last.Runs())
	}

	fsys.FailReads(true)
	err = ds.CreateFieldBTreeIndex("by_cat", "cat")
	fsys.FailReads(false)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("CreateFieldBTreeIndex over an unreadable run = %v, want the injected read fault", err)
	}
	if name, _ := ds.BTreeIndexForField("cat"); name != "" {
		t.Fatalf("the failed index %q is declared", name)
	}
	for i := range ds.NumPartitions() {
		if got := len(ds.Partition(i).secondary); got != 0 {
			t.Fatalf("partition %d keeps %d secondary indexes after the failed CREATE INDEX", i, got)
		}
	}
}
