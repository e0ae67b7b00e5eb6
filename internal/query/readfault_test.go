package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// faultyCatalog holds one durable dataset D (2 partitions, 600 rows
// flushed to run files, B-tree index by_cat on cat) on a MemFS whose
// reads the test can fail, and no block cache, so every scan goes to the
// "device". Each test below flips FailReads and requires the engine to
// report the fault instead of a short result: the lsm reader a failed
// block read stops reports it, and the query passes it on.
func faultyCatalog(t *testing.T) (*testCatalog, *lsm.MemFS) {
	t.Helper()
	fsys := lsm.NewMemFS()
	ds, err := lsm.OpenDataset(fsys, "d", "D", nil, "id", 2, lsm.Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := ds.Upsert(obj("id", adm.Int(int64(i)), "cat", adm.String(fmt.Sprintf("c%d", i%8)))); err != nil {
			t.Fatal(err)
		}
	}
	flushAll(t, ds)
	cat := newTestCatalog()
	cat.datasets["D"] = ds
	return cat, fsys
}

// TestScanLeavesReportRunReadFault: each of the three dataset leaves
// must turn a run-file read fault into the cursor's error.
func TestScanLeavesReportRunReadFault(t *testing.T) {
	for _, tc := range []struct {
		leaf, q string
		tune    func(*Context)
	}{
		{"scan(D)", `SELECT VALUE d.id FROM D d`, func(c *Context) { c.DisableParallelScan = true }},
		{"iscan(D.by_cat on cat)", `SELECT VALUE d.id FROM D d WHERE d.cat = "c3"`, nil},
		{"pscan(D,partition,2)", `SELECT VALUE d.id FROM D d`, nil},
	} {
		t.Run(tc.leaf, func(t *testing.T) {
			cat, fsys := faultyCatalog(t)
			open := func() *RowCursor {
				ctx := NewContext(cat)
				if tc.tune != nil {
					tc.tune(ctx)
				}
				rc := openCursor(t, ctx, tc.q)
				if got := rc.Plan(); !strings.HasPrefix(got, tc.leaf) {
					t.Fatalf("plan %q does not start with the %s leaf", got, tc.leaf)
				}
				return rc
			}
			healthy := len(drainCursor(t, open()))

			fsys.FailReads(true)
			rc := open()
			n := 0
			for {
				_, ok, err := rc.Next()
				if ok {
					n++
					continue
				}
				if !errors.Is(err, lsm.ErrInjected) {
					t.Fatalf("%d of %d rows, then err = %v; want the read fault", n, healthy, err)
				}
				return
			}
		})
	}
}

// TestSubqueryReportsRunReadFault: the same fault under a SELECT in
// expression position fails the enclosing evaluation.
func TestSubqueryReportsRunReadFault(t *testing.T) {
	cat, fsys := faultyCatalog(t)
	const q = `SELECT VALUE (SELECT VALUE count(*) FROM D d)[0] FROM [1] x`
	if got := execStr(t, cat, nil, q); got.Index(0).IntVal() != 600 {
		t.Fatalf("healthy count = %s", got)
	}
	fsys.FailReads(true)
	v, err := ExecuteSelect(NewContext(cat), nil, mustSel(t, q))
	if !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("subquery over an unreadable run returned %s, %v; want the read fault", v, err)
	}
}

// TestPrepareConstSubqueryReportsRunReadFault: a const-subquery is
// evaluated once and may serve many batches, so a truncated one must
// fail Prepare — and a Refresh that has to re-evaluate it — not be
// cached.
func TestPrepareConstSubqueryReportsRunReadFault(t *testing.T) {
	cat, fsys := faultyCatalog(t)
	fn := cat.addSQLFunction(t, `CREATE FUNCTION tag(t) {
		LET n = (SELECT VALUE count(*) FROM D d)[0]
		SELECT t.*, n
	};`)
	plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Describe(); len(got) != 1 || got[0] != "const" {
		t.Fatalf("plan = %v, want one const subquery", got)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatalf("healthy Prepare: %v", err)
	}
	if got := mustEval(t, pe, obj("id", adm.Int(1))); got.Field("n").IntVal() != 600 {
		t.Fatalf("healthy enrichment = %s", got)
	}

	fsys.FailReads(true)
	if _, err := plan.Prepare(cat); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("Prepare over an unreadable run returned %v, want the read fault", err)
	}
	ds, _ := cat.Dataset("D")
	if err := ds.Upsert(obj("id", adm.Int(1000), "cat", adm.String("c0"))); err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Refresh(); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("Refresh over an unreadable run returned %v, want the read fault", err)
	}
}

// TestIndexNLJProbeReportsRunReadFault: the index-NLJ probe reads each
// candidate the live spatial index names from the dataset, and a read
// that faults fails the record instead of dropping the candidate.
func TestIndexNLJProbeReportsRunReadFault(t *testing.T) {
	fsys := lsm.NewMemFS()
	ds, err := lsm.OpenDataset(fsys, "m", "Monuments", nil, "id", 2, lsm.Options{MemBudget: 1 << 20, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	for i := range 50 {
		if err := ds.Upsert(obj("id", adm.Int(int64(i)), "loc", adm.Point(float64(i), float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.CreateSpatialIndex("mloc", "loc"); err != nil {
		t.Fatal(err)
	}
	flushAll(t, ds)
	cat := newTestCatalog()
	cat.datasets["Monuments"] = ds
	fn := cat.addSQLFunction(t, `CREATE FUNCTION near(t) {
		LET ids = (SELECT VALUE m.id FROM Monuments m
			WHERE spatial_intersect(m.loc, create_circle(create_point(t.x, t.y), 2.0)))
		SELECT t.*, ids };`)
	plan := compilePaperUDF(t, cat, fn.Name, PlanOptions{})
	if d := plan.Describe(); len(d) != 1 || !strings.HasPrefix(d[0], "indexnlj(Monuments.loc)") {
		t.Fatalf("plan = %v, want an index-NLJ probe", d)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	tweet := obj("id", adm.Int(1), "x", adm.Double(10), "y", adm.Double(10))
	if got := mustEval(t, pe, tweet).Field("ids"); len(got.ArrayVal()) != 3 {
		t.Fatalf("healthy probe: ids = %v, want three monuments", got)
	}
	fsys.FailReads(true)
	defer fsys.FailReads(false)
	if v, err := pe.EvalRecord(tweet); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("a probe over an unreadable run returned %v, %v; want the read fault", v, err)
	}
}
