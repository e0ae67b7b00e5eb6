package query

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// TestKeepingOperatorsDetachRecycledRows: over a flushed two-partition
// dataset many times the size of a cache whose splits are smaller than a
// block, a top-k or a grouped aggregate reads its rows through a leased
// parallel scan, and every block it reads is recycled — overwritten, then
// decoded into — soon after the scan has moved past it. What the two
// keeping operators keep must be copies: the heap's winners and their
// order keys (int and string), the aggregate's representatives (a field
// no key names), its string group keys and its string MIN and MAX, under
// filters that pass most rows and filters that pass a handful. Each
// statement must return what it returns over a serial scan, which leases
// nothing.
func TestKeepingOperatorsDetachRecycledRows(t *testing.T) {
	cat, cache := recycleCatalog(t)
	for _, q := range []string{
		`SELECT VALUE t FROM T t ORDER BY t.score DESC, t.id LIMIT 10`,
		`SELECT t.id AS id, t.score AS score FROM T t ORDER BY t.name, t.id LIMIT 10`,
		`SELECT VALUE t FROM T t WHERE t.score > 500 ORDER BY t.name DESC LIMIT 7`,
		`SELECT g AS g, t.label AS label, min(t.name) AS lo, max(t.name) AS hi, count(*) AS n FROM T t GROUP BY t.grp AS g ORDER BY g`,
		`SELECT min(t.name) AS lo, max(t.name) AS hi FROM T t`,
		// A pushed WHERE that passes a few rows in thousands: the scan's
		// batches carry pins and hardly any rows.
		`SELECT VALUE t FROM T t WHERE t.score = 3 ORDER BY t.name LIMIT 2`,
		`SELECT count(*) AS n, max(t.name) AS hi FROM T t WHERE t.score = 3`,
	} {
		recycled := cache.Stats().BlockCacheRecycled
		matchSerial(t, cat, q)
		if cache.Stats().BlockCacheRecycled == recycled {
			t.Fatalf("%s: the scan recycled no block", q)
		}
	}
}

// TestStreamingScanLeasesNothing: over the same dataset and cache, a
// parallel scan whose rows stream out of the statement — no heap, no
// aggregate — leases nothing, so the rows its caller keeps stay as they
// were stored however many blocks later scans read.
func TestStreamingScanLeasesNothing(t *testing.T) {
	cat, cache := recycleCatalog(t)
	for _, q := range []string{
		`SELECT VALUE t FROM T t`,
		`SELECT VALUE t FROM T t WHERE t.score > 500`,
	} {
		recycled := cache.Stats().BlockCacheRecycled
		matchSerial(t, cat, q)
		if got := cache.Stats().BlockCacheRecycled; got != recycled {
			t.Fatalf("%s: a streaming scan recycled %d blocks", q, got-recycled)
		}
	}
}

// recycleCatalog is a catalog whose dataset T, flushed over two
// partitions, is many times the size of its cache, whose splits are
// smaller than a block.
func recycleCatalog(t *testing.T) (*testCatalog, *lsm.BlockCache) {
	t.Helper()
	const n = 4000
	cache := lsm.NewBlockCache(64 << 10)
	cat := newTestCatalog()
	ds := memDataset(t, "T", "id", 2, lsm.Options{MemBudget: 1 << 30, MaxComponents: 8, BlockCache: cache})
	recs := make([]adm.Value, n)
	for i := range recs {
		grp := fmt.Sprintf("g%02d", i*7%23)
		recs[i] = obj(
			"id", adm.Int(int64(i)),
			"score", adm.Int(int64(i*37%1009)),
			"name", adm.String(fmt.Sprintf("n%05d", i*4409%n)),
			"grp", adm.String(grp),
			"label", adm.String("label of "+grp),
			"pad", adm.String(strings.Repeat("x", 200)),
		)
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	flushAll(t, ds)
	cat.datasets["T"] = ds
	if st := ds.Partition(0).Stats(); st.Components != 1 || st.MemEntries != 0 {
		t.Fatalf("partition 0 is not one run: %+v", st)
	}
	return cat, cache
}

// matchSerial runs q over a parallel scan, keeping every row it returns,
// and checks the rows against q's over a serial scan, which leases
// nothing.
func matchSerial(t *testing.T, cat *testCatalog, q string) {
	t.Helper()
	sel := mustSel(t, q)
	rc, err := ExecuteSelectCursor(NewContext(cat), nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	if plan := rc.Plan(); !strings.HasPrefix(plan, "pscan(T,") {
		t.Fatalf("%s: plan %s reads no parallel scan", q, plan)
	}
	got, err := drainRows(rc)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	serial := NewContext(cat)
	serial.DisableParallelScan = true
	rc, err = ExecuteSelectCursor(serial, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainRows(rc)
	if err != nil {
		t.Fatalf("%s serially: %v", q, err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%s: %d rows, %d serially", q, len(got), len(want))
	}
	for i := range want {
		if !adm.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d is %s, serially %s", q, i, got[i], want[i])
		}
	}
}

// drainRows pulls rc to the end.
func drainRows(rc *RowCursor) ([]adm.Value, error) {
	var rows []adm.Value
	for {
		v, ok, err := rc.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, v)
	}
}
