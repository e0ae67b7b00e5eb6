package query

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// benchStreamCatalog builds the benchmark fixture: dataset R over 4
// partitions with a huge memtable budget (one component per partition,
// so component count never varies with size), primary key id, indexed
// cat with 128 distinct values (so one value selects <=1% of rows),
// and score in [0,97).
func benchStreamCatalog(b testing.TB, n int) *testCatalog {
	b.Helper()
	return benchCatalogOn(b, n, nil)
}

// benchCatalogOn is benchStreamCatalog behind cache (nil: one of the
// default budget).
func benchCatalogOn(b testing.TB, n int, cache *lsm.BlockCache) *testCatalog {
	b.Helper()
	cat := newTestCatalog()
	ds := memDataset(b, "R", "id", 4, lsm.Options{MemBudget: 1 << 30, MaxComponents: 64, BlockCache: cache})
	recs := make([]adm.Value, n)
	for i := range recs {
		recs[i] = obj(
			"id", adm.Int(int64(i)),
			"cat", adm.String(fmt.Sprintf("c%03d", i%128)),
			"score", adm.Int(int64(i%97)),
		)
	}
	if err := ds.UpsertBatch(recs); err != nil {
		b.Fatal(err)
	}
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		b.Fatal(err)
	}
	cat.datasets["R"] = ds
	return cat
}

func benchSel(b testing.TB, q string) *sqlpp.SelectExpr {
	b.Helper()
	e, err := sqlpp.ParseExpr(q)
	if err != nil {
		b.Fatal(err)
	}
	sel, ok := e.(*sqlpp.SelectExpr)
	if !ok {
		b.Fatalf("%q is not a query", q)
	}
	return sel
}

// benchFlushedCatalog is benchStreamCatalog with every partition flushed
// to a run file before the clock starts, so each iteration — the first
// included — reads records as views of cached blocks. (Without it the
// first snapshot freezes the memtable and the rest of the run races the
// background flush.)
func benchFlushedCatalog(b testing.TB, n int) *testCatalog {
	cat := benchStreamCatalog(b, n)
	flushAll(b, cat.datasets["R"])
	return cat
}

// benchFullCacheCatalog is benchFlushedCatalog behind a cache of 9 bytes
// a record, which the flushed records — ≈ 39 decoded bytes each — fill
// over four times: every block a scan reads misses a full cache.
func benchFullCacheCatalog(b testing.TB, n int) *testCatalog {
	cat := benchCatalogOn(b, n, lsm.NewBlockCache(int64(9*n)))
	flushAll(b, cat.datasets["R"])
	return cat
}

// scanBenchCatalogs are the arms of the top-k, group-by and index
// benchmarks: benchCatalogs', and one whose cache the data fills four
// times over.
var scanBenchCatalogs = []struct {
	suffix string
	open   func(testing.TB, int) *testCatalog
}{
	benchCatalogs[0],
	benchCatalogs[1],
	{"/fullcache", benchFullCacheCatalog},
}

// settle readies a benchmark catalog for the timed loop. A first drain
// of sel takes snapshots, and Partition.Snapshot freezes the memtable:
// the flush that starts lands before the clock does instead of inside
// the loop, and a second drain warms the cache with the blocks of the
// runs it wrote. Every timed iteration then reads what the last one
// does.
func settle(b testing.TB, cat *testCatalog, sel *sqlpp.SelectExpr) {
	b.Helper()
	drainBench(b, NewContext(cat), sel)
	ds := cat.datasets["R"]
	for i := 0; i < ds.NumPartitions(); i++ {
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			b.Fatal(err)
		}
	}
	drainBench(b, NewContext(cat), sel)
}

// drainBench pulls a query to exhaustion and returns the row count.
func drainBench(b testing.TB, ctx *Context, sel *sqlpp.SelectExpr) int {
	b.Helper()
	rc, err := ExecuteSelectCursor(ctx, nil, sel)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := rc.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// BenchmarkQueryTopK is the bounded top-k acceptance benchmark:
// ORDER BY + LIMIT k holds a k-entry heap and recycles one binding
// box per scanned record, so allocs/op must be identical at 10k and
// 100k records — memory is O(k), never O(n).
func BenchmarkQueryTopK(b *testing.B) {
	sel := benchSel(b, benchTopKQuery)
	for _, size := range []int{10_000, 100_000} {
		for _, arm := range scanBenchCatalogs {
			b.Run(fmt.Sprintf("size=%d%s", size, arm.suffix), func(b *testing.B) {
				cat := arm.open(b, size)
				settle(b, cat, sel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n := drainBench(b, NewContext(cat), sel); n != 10 {
						b.Fatalf("rows = %d", n)
					}
				}
			})
		}
	}
}

const (
	benchTopKQuery    = `SELECT VALUE r.id FROM R r ORDER BY r.score DESC, r.id LIMIT 10`
	benchGroupByQuery = `SELECT r.cat AS c, count(*) AS n, sum(r.score) AS s FROM R r GROUP BY r.cat`
)

// benchCatalogs are the two arms of the scan benchmarks.
var benchCatalogs = []struct {
	suffix string // of the sub-benchmark's name
	open   func(testing.TB, int) *testCatalog
}{
	{"", benchStreamCatalog},
	{"/flushed", benchFlushedCatalog},
}

// TestFlushedScanAllocationsIndependentOfN is the allocation gate of the
// read path: over flushed records in a warm cache, a top-k and a
// group-by allocate the same at 2 000 and at 20 000 records — storage
// hands every record up as a view and reading an int field of one
// decodes in place, so nothing is allocated per record. (So does
// reading a string field: TestStringFieldScanAllocationsIndependentOfN.)
func TestFlushedScanAllocationsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	for _, q := range []string{
		benchTopKQuery,
		`SELECT r.score AS s, count(*) AS n FROM R r WHERE r.id >= 0 GROUP BY r.score`,
	} {
		sel := benchSel(t, q)
		allocs := func(n int) float64 {
			cat := benchFlushedCatalog(t, n)
			drainBench(t, NewContext(cat), sel) // warm the cache
			return testing.AllocsPerRun(5, func() { drainBench(t, NewContext(cat), sel) })
		}
		small, large := allocs(2_000), allocs(20_000)
		if large > small+32 {
			t.Errorf("%s:\n %.0f allocations over 2 000 records, %.0f over 20 000", q, small, large)
		}
	}
}

// TestStringFieldScanAllocationsIndependentOfN: over flushed records in
// a warm cache, grouping and filtering on a string field allocate the
// same at 2 000 and at 20 000 records. Storage hands every record up as
// a view of bytes that never change (adm.ViewAlias), so the string a
// statement reads of each one aliases its block: nothing is copied per
// record.
func TestStringFieldScanAllocationsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	for _, q := range []string{
		benchGroupByQuery,
		`SELECT VALUE count(*) FROM R r WHERE r.cat >= "c064"`,
		`SELECT VALUE r.id FROM R r WHERE r.cat = "c007" ORDER BY r.score DESC, r.id LIMIT 3`,
	} {
		sel := benchSel(t, q)
		allocs := func(n int) float64 {
			cat := benchFlushedCatalog(t, n)
			drainBench(t, NewContext(cat), sel) // warm the cache
			return testing.AllocsPerRun(5, func() { drainBench(t, NewContext(cat), sel) })
		}
		small, large := allocs(2_000), allocs(20_000)
		if large > small+32 {
			t.Errorf("%s:\n %.0f allocations over 2 000 records, %.0f over 20 000", q, small, large)
		}
	}
}

// TestSelectAllocationsIndependentOfN is the allocation gate of a
// SELECT's FROM leaf: it allocates per statement, never per record it
// reads. An index probe (one binding box rebound per posting, postings
// read in place) allocates the same matching 100 records as 1 000, and
// a filtered LIMIT over a serial scan the same reading 1 000 records as
// 10 000. Records are flushed and the cache warm, so storage hands each
// one up as a view.
func TestSelectAllocationsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	// R holds n records; score is the record's position in the one
	// partition's key order, and the first `hits` carry grp 1.
	catalog := func(n, hits int) *testCatalog {
		cat := newTestCatalog()
		ds := memDataset(t, "R", "id", 1, lsm.DefaultOptions())
		recs := make([]adm.Value, n)
		for i := range recs {
			grp := int64(0)
			if i < hits {
				grp = 1
			}
			recs[i] = obj("id", adm.Int(int64(i)), "grp", adm.Int(grp), "score", adm.Int(int64(i)))
		}
		if err := ds.UpsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := ds.CreateFieldBTreeIndex("by_grp", "grp"); err != nil {
			t.Fatal(err)
		}
		flushAll(t, ds)
		cat.datasets["R"] = ds
		return cat
	}
	allocs := func(cat *testCatalog, q, plan string, params Params, rows int) float64 {
		sel := benchSel(t, q)
		run := func() {
			ctx := NewContext(cat)
			ctx.Params = params
			rc, err := ExecuteSelectCursor(ctx, nil, sel)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(rc.Plan(), plan) {
				t.Fatalf("%s: plan %s, want %s…", q, rc.Plan(), plan)
			}
			n := 0
			for {
				_, ok, err := rc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n != rows {
				t.Fatalf("%s: %d rows, want %d", q, n, rows)
			}
		}
		run() // warm the cache
		return testing.AllocsPerRun(5, run)
	}

	const probe = `SELECT VALUE r.id FROM R r WHERE r.grp = 1`
	small := allocs(catalog(2_000, 100), probe, "iscan", Params{}, 100)
	large := allocs(catalog(2_000, 1_000), probe, "iscan", Params{}, 1_000)
	if large > small+8 {
		t.Errorf("%s:\n %.0f allocations matching 100 records, %.0f matching 1 000", probe, small, large)
	}

	// The last 100 records match, so LIMIT 100 reads every record.
	const limited = `SELECT VALUE r.id FROM R r WHERE r.score >= $1 LIMIT 100`
	from := func(n int) Params { return Params{Names: []string{"1"}, Values: []adm.Value{adm.Int(int64(n - 100))}} }
	small = allocs(catalog(1_000, 0), limited, "scan", from(1_000), 100)
	large = allocs(catalog(10_000, 0), limited, "scan", from(10_000), 100)
	if large > small+32 {
		t.Errorf("%s:\n %.0f allocations reading 1 000 records, %.0f reading 10 000", limited, small, large)
	}
}

// BenchmarkQueryGroupBy measures the streaming hash aggregate: one
// pass, one accumulator set per group, no tuple buffering.
func BenchmarkQueryGroupBy(b *testing.B) {
	sel := benchSel(b, benchGroupByQuery)
	for _, size := range []int{10_000, 100_000} {
		for _, arm := range scanBenchCatalogs {
			b.Run(fmt.Sprintf("size=%d%s", size, arm.suffix), func(b *testing.B) {
				cat := arm.open(b, size)
				settle(b, cat, sel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n := drainBench(b, NewContext(cat), sel); n != 128 {
						b.Fatalf("groups = %d", n)
					}
				}
			})
		}
	}
}

// BenchmarkQueryIndexPushdown contrasts the secondary-index range
// probe against the full-scan fallback on the same <=1%-selectivity
// predicate (one cat value out of 128). The pushdown's advantage
// scales with dataset size; TestIndexScanMatchesFullScan asserts the
// plans, this benchmark shows the payoff. The /fullcache arms read
// through a cache the data fills four times over, where the probe reads
// each row in the block it holds instead of copying the record out.
func BenchmarkQueryIndexPushdown(b *testing.B) {
	const size = 100_000
	sel := benchSel(b, `SELECT VALUE r.id FROM R r WHERE r.cat = "c007"`)
	want := (size - 7 + 127) / 128 // i ≡ 7 (mod 128)
	for _, arm := range scanBenchCatalogs {
		b.Run("indexed"+arm.suffix, func(b *testing.B) {
			cat := arm.open(b, size)
			settle(b, cat, sel)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := drainBench(b, NewContext(cat), sel); n != want {
					b.Fatalf("rows = %d, want %d", n, want)
				}
			}
		})
		b.Run("fullscan"+arm.suffix, func(b *testing.B) {
			cat := arm.open(b, size)
			settle(b, cat, sel)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := NewContext(cat)
				ctx.DisableIndexScan = true
				if n := drainBench(b, ctx, sel); n != want {
					b.Fatalf("rows = %d, want %d", n, want)
				}
			}
		})
	}
}

// BenchmarkQueryParallelScan compares the parallel partition scan
// against the serial scan on a full-drain filtered aggregate: the
// WHERE conjunct is concurrency-safe, so the parallel plan evaluates
// it inside the scan workers while the serial plan filters on the
// consumer side, single-threaded.
func BenchmarkQueryParallelScan(b *testing.B) {
	const size = 100_000
	sel := benchSel(b, `SELECT VALUE count(*) FROM R r WHERE r.score > 90`)
	b.Run("parallel", func(b *testing.B) {
		cat := benchStreamCatalog(b, size)
		settle(b, cat, sel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := drainBench(b, NewContext(cat), sel); n != 1 {
				b.Fatalf("rows = %d", n)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		cat := benchStreamCatalog(b, size)
		settle(b, cat, sel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := NewContext(cat)
			ctx.DisableParallelScan = true
			if n := drainBench(b, ctx, sel); n != 1 {
				b.Fatalf("rows = %d", n)
			}
		}
	})
}
