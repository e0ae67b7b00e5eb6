package query

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// drainCursor pulls a RowCursor to exhaustion.
func drainCursor(t *testing.T, rc *RowCursor) []adm.Value {
	t.Helper()
	var out []adm.Value
	for {
		v, ok, err := rc.Next()
		if err != nil {
			t.Fatalf("cursor error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func cursorStr(t *testing.T, cat Catalog, env *Env, src string) []adm.Value {
	t.Helper()
	e, err := sqlpp.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel, ok := e.(*sqlpp.SelectExpr)
	if !ok {
		t.Fatalf("%q is not a query", src)
	}
	rc, err := ExecuteSelectCursor(NewContext(cat), env, sel)
	if err != nil {
		t.Fatalf("open %q: %v", src, err)
	}
	return drainCursor(t, rc)
}

// TestCursorErrorsSurface verifies evaluation errors arrive through the
// cursor rather than being swallowed mid-stream.
func TestCursorErrorsSurface(t *testing.T) {
	cat := ratingsCatalog(t)
	e, err := sqlpp.ParseExpr(`SELECT VALUE nosuchfn(s) FROM SafetyRatings s`)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ExecuteSelectCursor(NewContext(cat), nil, e.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := rc.Next()
	if ok || err == nil {
		t.Fatalf("Next = %v, %v; want error", ok, err)
	}
	// The cursor stays exhausted afterwards.
	if _, ok, _ := rc.Next(); ok {
		t.Fatal("cursor yielded rows after an error")
	}
}

// TestCursorParams exercises $param binding through the Context.
func TestCursorParams(t *testing.T) {
	cat := ratingsCatalog(t)
	e, err := sqlpp.ParseExpr(`SELECT VALUE s.country_code FROM SafetyRatings s WHERE s.safety_rating = $want`)
	if err != nil {
		t.Fatal(err)
	}
	sel := e.(*sqlpp.SelectExpr)

	ctx := NewContext(cat)
	ctx.Params = Params{Names: []string{"want"}, Values: []adm.Value{adm.String("4")}}
	rc, err := ExecuteSelectCursor(ctx, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainCursor(t, rc)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}

	// Unbound parameter surfaces as an evaluation error naming it.
	rc2, err := ExecuteSelectCursor(NewContext(cat), nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := rc2.Next()
	if ok || err == nil {
		t.Fatal("unbound parameter should error")
	}
	if got := err.Error(); !strings.Contains(got, "$want") {
		t.Errorf("error should name the parameter: %v", got)
	}
}

// TestCursorLimitStopsScan proves LIMIT-k pulls only a prefix: the scan
// touches O(k) records, measured through the partition scan counters
// (a full materializing scan would still be one Scan stat, so we check
// allocations instead — see BenchmarkQueryStream — and here check that
// an abandoned cursor leaves no side effects and a fresh query still
// sees everything).
func TestCursorLimitStopsScan(t *testing.T) {
	cat := newTestCatalog()
	var recs []adm.Value
	for i := 0; i < 5000; i++ {
		recs = append(recs, obj("id", adm.Int(int64(i))))
	}
	ds := cat.addDataset(t, "Big", "id", 2, recs...)

	got := cursorStr(t, cat, nil, `SELECT VALUE b.id FROM Big b LIMIT 7`)
	if len(got) != 7 {
		t.Fatalf("limit rows = %d", len(got))
	}
	if n, err := ds.Len(); err != nil || n != 5000 {
		t.Fatalf("dataset disturbed: %d, %v", n, err)
	}
	all := cursorStr(t, cat, nil, `SELECT VALUE b.id FROM Big b`)
	if len(all) != 5000 {
		t.Fatalf("full scan rows = %d", len(all))
	}
}

// TestExistsStopsAtFirstRow: EXISTS over an uncompiled subquery pulls
// one row and closes the cursor. Over a durable dataset of ~70 blocks
// the three evaluations below read the one block that holds the first
// match (materializing the subquery would read them all), and a cursor
// closed mid-scan holds nothing: once the collector has run, only the
// components' own run files are open.
func TestExistsStopsAtFirstRow(t *testing.T) {
	ds, err := lsm.OpenDataset(lsm.NewMemFS(), "big", "Big", nil, "id", 2,
		lsm.Options{MemBudget: 64 << 20, MaxComponents: 8, BlockCache: lsm.NewBlockCache(8 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	recs := make([]adm.Value, 20_000)
	for i := range recs {
		recs[i] = obj("id", adm.Int(int64(i)), "cat", adm.String(fmt.Sprintf("c%d", i%8)))
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	flushAll(t, ds)
	cat := newTestCatalog()
	cat.datasets["Big"] = ds

	before := ds.Stats().BlockReads
	got := cursorStr(t, cat, nil, `SELECT VALUE x FROM [1, 2, 3] x
		WHERE EXISTS (SELECT b FROM Big b WHERE b.cat = "c5")`)
	if len(got) != 3 {
		t.Fatalf("rows = %v, want all three", got)
	}
	if reads := ds.Stats().BlockReads - before; reads > 2 {
		t.Errorf("EXISTS read %d blocks; the first match sits in the first", reads)
	}
	readersGone := func(whose string) {
		t.Helper()
		st := ds.Stats()
		for deadline := time.Now().Add(5 * time.Second); st.OpenRunFiles != st.Components && time.Now().Before(deadline); st = ds.Stats() {
			runtime.GC() // snapshot references drop on collection
			time.Sleep(time.Millisecond)
		}
		if st.OpenRunFiles != st.Components {
			t.Errorf("%d run files open for %d components after %s", st.OpenRunFiles, st.Components, whose)
		}
	}
	readersGone("the closed cursors")

	// Outermost, the subquery may scan in parallel; closing it after one
	// row must still stop and join the workers.
	if v := evalStr(t, cat, nil, `EXISTS (SELECT b FROM Big b WHERE b.cat = "c5")`); !v.BoolVal() {
		t.Error("EXISTS = false")
	}
	if v := evalStr(t, cat, nil, `EXISTS (SELECT b FROM Big b WHERE b.cat = "nosuch")`); v.BoolVal() {
		t.Error("EXISTS over no match = true")
	}
	readersGone("the parallel scans")
}

// BenchmarkQueryStream is the acceptance benchmark for the streaming
// redesign: SELECT ... LIMIT k over datasets of very different sizes
// must allocate O(k) per query, independent of dataset size. Compare
// the size=10k and size=100k allocs/op columns — they should match.
func BenchmarkQueryStream(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("limit10/size=%d", size), func(b *testing.B) {
			cat := newTestCatalog()
			ds := memDataset(b, "Big", "id", 4, lsm.DefaultOptions())
			recs := make([]adm.Value, size)
			for i := range recs {
				recs[i] = obj("id", adm.Int(int64(i)), "score", adm.Int(int64(i%97)))
			}
			if err := ds.UpsertBatch(recs); err != nil {
				b.Fatal(err)
			}
			cat.datasets["Big"] = ds
			e, err := sqlpp.ParseExpr(`SELECT VALUE t.id FROM Big t WHERE t.score >= 0 LIMIT 10`)
			if err != nil {
				b.Fatal(err)
			}
			sel := e.(*sqlpp.SelectExpr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc, err := ExecuteSelectCursor(NewContext(cat), nil, sel)
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
						break
					}
					n++
				}
				if n != 10 {
					b.Fatalf("rows = %d", n)
				}
			}
		})
	}
}
