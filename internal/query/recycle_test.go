package query

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// TestKeepingOperatorsDetachRecycledRows: over a flushed two-partition
// dataset many times the size of a cache whose splits are smaller than a
// block, a top-k or a grouped aggregate reads its rows through a
// parallel scan, and every block it reads is recycled — overwritten, then
// decoded into — soon after the scan has moved past it. What the two
// keeping operators keep must be copies: the heap's winners and their
// order keys (int and string), the aggregate's representatives (a field
// no key names), its string group keys and its string MIN and MAX, under
// filters that pass most rows and filters that pass a handful. Each
// statement must return what it returns over a serial scan.
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

// TestStreamingScanRecyclesItsBlocks: over the same dataset and cache, a
// parallel scan whose rows stream out of the statement — no heap, no
// aggregate — pins its blocks like any other reader, so the blocks it
// has moved past are recycled while it runs; its rows are transient,
// and the copies its caller keeps of them (drainRows) stay as they were
// stored however many blocks the scan recycles after them.
func TestStreamingScanRecyclesItsBlocks(t *testing.T) {
	cat, cache := recycleCatalog(t)
	for _, q := range []string{
		`SELECT VALUE t FROM T t`,
		`SELECT VALUE t FROM T t WHERE t.score > 500`,
		`SELECT t.id AS id, t.name AS name FROM T t WHERE t.score > 500`,
	} {
		recycled := cache.Stats().BlockCacheRecycled
		matchSerial(t, cat, q)
		if cache.Stats().BlockCacheRecycled == recycled {
			t.Fatalf("%s: a streaming scan recycled no block", q)
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
// and checks the rows against q's over a serial scan.
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

// drainRows pulls rc to the end, keeping a copy of each transient row,
// as RowCursor's caller must.
func drainRows(rc *RowCursor) ([]adm.Value, error) {
	var rows []adm.Value
	for {
		v, ok, err := rc.Next()
		if err != nil || !ok {
			return rows, err
		}
		if rc.Transient() {
			v = v.Detached()
		}
		rows = append(rows, v)
	}
}

// TestFullCacheProbesRecycleEvictedBlocks: index probes over a cache the
// data fills four times over — BenchmarkQueryIndexPushdown's fullcache
// arm — read most of their rows by point reads on shards that still
// have room for another block. Every reader pins the block it reads, so
// every block those reads' loads evict goes back to the entry pool once
// released, and later loads decode into it: the cache recycles, and a
// statement allocates well under one block whatever ran before it. A
// point read that left such a block unpinned would let it go to the
// garbage collector, and each load that replaced one would allocate a
// fresh block.
func TestFullCacheProbesRecycleEvictedBlocks(t *testing.T) {
	const n, statements = 100_000, 10
	cache := lsm.NewBlockCache(int64(9 * n))
	cat := benchCatalogOn(t, n, cache)
	flushAll(t, cat.datasets["R"])
	sel := mustSel(t, `SELECT VALUE r.id FROM R r WHERE r.cat = "c007"`)
	settle(t, cat, sel)
	want := (n - 7 + 127) / 128
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range statements {
			if got := drainBench(t, NewContext(cat), sel); got != want {
				t.Fatalf("rows = %d, want %d", got, want)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / statements
	}
	st0 := cache.Stats()
	perStatement := run()
	st := cache.Stats()
	t.Logf("%d B a statement; %d evictions, %d loads into recycled memory", perStatement,
		st.BlockCacheEvictions-st0.BlockCacheEvictions, st.BlockCacheRecycled-st0.BlockCacheRecycled)
	if st.BlockCacheEvictions == st0.BlockCacheEvictions || st.BlockCacheRecycled == st0.BlockCacheRecycled {
		t.Fatal("the probes evicted or recycled no block")
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts at random under -race
	}
	for range 2 {
		perStatement = min(perStatement, run())
	}
	const block = 16 << 10 // runBlockTarget
	if perStatement > block/2 {
		t.Fatalf("a probe allocated %d B a statement: want well under one %d-byte block", perStatement, block)
	}
}

// TestPreparedStateKeepsCopiesOfRecycledRows: Q1's hash state (the naive
// plan's) built over flushed SafetyRatings-like reference data behind a
// cache whose splits are smaller than a block — every block the build's
// scans read is recycled once they move past it — enriches every input
// as the same state built behind a default cache does: after a rebuild,
// and after a Refresh that patches the table from the writes since
// (lsm.Snapshot.Changes), which reads changed rows and their prior
// versions from runs as well. The table keeps copies of what it read.
func TestPreparedStateKeepsCopiesOfRecycledRows(t *testing.T) {
	const n = 3000
	type arm struct {
		cat *testCatalog
		ds  *lsm.Dataset
		pe  *PreparedEnrich
	}
	var arms [2]arm
	tiny := lsm.NewBlockCache(8 << 10)
	for i, cache := range []*lsm.BlockCache{tiny, nil} {
		cat := newTestCatalog()
		ds := memDataset(t, "SafetyRatings", "country_code", 4, lsm.Options{MemBudget: 1 << 30, MaxComponents: 64, BlockCache: cache})
		recs := make([]adm.Value, n)
		for j := range recs {
			recs[j] = rating(j, 0)
		}
		if err := ds.UpsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		flushAll(t, ds)
		cat.datasets["SafetyRatings"] = ds
		pe, err := benchPlanWith(t, cat, PlanOptions{DisableIndexes: true}).Prepare(cat)
		if err != nil {
			t.Fatal(err)
		}
		arms[i] = arm{cat, ds, pe}
	}
	var inputs []adm.Value
	for j := 0; j < n; j += 7 {
		inputs = append(inputs, obj("id", adm.Int(int64(j)), "country", adm.String(fmt.Sprintf("C%06d", j))))
	}
	same := func(when string) {
		t.Helper()
		for _, in := range inputs {
			got, want := mustEval(t, arms[0].pe, in), mustEval(t, arms[1].pe, in)
			if !bytes.Equal(adm.AppendBinary(nil, got), adm.AppendBinary(nil, want)) {
				t.Fatalf("%s: behind a tiny cache %v, behind a default one %v", when, got, want)
			}
		}
	}
	if tiny.Stats().BlockCacheRecycled == 0 {
		t.Fatal("the build recycled no block")
	}
	same("after a rebuild")
	for i := range arms {
		a := &arms[i]
		var recs []adm.Value
		for j := 0; j < n; j += 11 {
			recs = append(recs, rating(j, 1))
		}
		if err := a.ds.UpsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		flushAll(t, a.ds)
		next, err := a.pe.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if next.Patched() == 0 {
			t.Fatalf("arm %d: the refresh built %d structures and patched none", i, next.Built())
		}
		a.pe = next
	}
	same("after a patch")
}

// rating is SafetyRatings' record j at version v, padded so that a
// block holds a few dozen.
func rating(j, v int) adm.Value {
	return obj("country_code", adm.String(fmt.Sprintf("C%06d", j)),
		"safety_rating", adm.String(fmt.Sprintf("%d-%d", j%5, v)),
		"pad", adm.String(strings.Repeat("p", 300)))
}
