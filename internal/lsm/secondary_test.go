package lsm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestIndexedUpsertCostIndependentOfKeyShare: a B-tree index holds one
// entry per record, and a write deletes and puts one entry per record it
// replaces, so re-upserting a record costs the same whether 1 000 or
// 20 000 records share its secondary key. (An index that kept one
// primary-key array per secondary key copied the whole array on every
// write: 16 bytes per record under the key, twice.)
func TestIndexedUpsertCostIndependentOfKeyShare(t *testing.T) {
	cost := func(n int) (allocs, bytes float64) {
		opts := Options{MemBudget: 1 << 30, MaxComponents: 8}
		p, err := OpenPartition(NewOSFS(), t.TempDir(), opts) // MemFS would allocate the log's own chunks
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.AttachIndex(NewBTreeIndex("cat", FieldKeyExtractor("cat"))); err != nil {
			t.Fatal(err)
		}
		keys, recs := make([]adm.Value, n), make([]adm.Value, n)
		for i := range keys {
			keys[i], recs[i] = adm.Int(int64(i)), rec(int64(i), "cat", adm.String("shared"))
		}
		if err := p.UpsertBatch(keys, recs); err != nil {
			t.Fatal(err)
		}
		if got := len(postingsOf(p.secondary[0].(*BTreeIndex), adm.String("shared"))); got != n {
			t.Fatalf("the index holds %d records under the key, want %d", got, n)
		}
		key, one := adm.Int(7), rec(7, "cat", adm.String("shared"))
		upsert := func() {
			if err := p.Upsert(key, one); err != nil {
				t.Fatal(err)
			}
		}
		// The write path's scratch comes from sync.Pools, which a
		// collection empties and which keep a list per P.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		upsert()
		upsert()
		const rounds = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			upsert()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	smallAllocs, smallBytes := cost(1_000)
	largeAllocs, largeBytes := cost(20_000)
	t.Logf("an upsert under a key of 1 000 records: %.1f allocations, %.0f B; of 20 000: %.1f, %.0f B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	// sync.Pool drops a quarter of its Puts at random under -race, so the
	// write path's pooled scratch is then sometimes allocated afresh.
	allocSlack, byteSlack := 0.0, 64.0
	if raceEnabled {
		allocSlack, byteSlack = 2, 1024
	}
	if largeAllocs > smallAllocs+allocSlack || largeBytes > smallBytes+byteSlack {
		t.Errorf("an upsert under a key of 20 000 records costs %.1f allocations and %.0f B, under one of 1 000 %.1f and %.0f B",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}

// TestRunOpenKeepsKeysAsBytes: opening a run keeps its fences and its
// block index's first keys as the bytes of the index it read, so a
// string-keyed run of 1 000 blocks opens with the allocations of one of
// 10. (Decoding each first key cost a string per block.)
func TestRunOpenKeepsKeysAsBytes(t *testing.T) {
	fsys := NewMemFS()
	// A record of runBlockTarget bytes fills a block alone.
	val := adm.AppendBinary(nil, adm.String(strings.Repeat("x", runBlockTarget)))
	open := func(blocks int) float64 {
		name := fmt.Sprintf("run-%d.run", blocks)
		rf, err := writeRun(fsys, "runs", name, runEnv{}, func(w *runWriter) error {
			for i := range blocks {
				if err := w.addRaw(adm.AppendBinary(nil, adm.String(fmt.Sprintf("key-%06d", i))), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rf.blocks) != blocks {
			t.Fatalf("the run holds %d blocks, want %d", len(rf.blocks), blocks)
		}
		rf.close()
		return testing.AllocsPerRun(5, func() {
			rf, err := openRun(fsys, "runs", name, runEnv{})
			if err != nil {
				t.Fatal(err)
			}
			rf.close()
		})
	}
	few, many := open(10), open(1_000)
	t.Logf("opening a run allocates %.0f times at 10 blocks, %.0f at 1 000", few, many)
	if many != few {
		t.Errorf("opening a run of 1 000 blocks allocates %.0f times, one of 10 %.0f", many, few)
	}
}
