package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// planCatalog builds the streaming-planner fixture: dataset R over 4
// partitions, primary key id, a low-cardinality indexed field cat
// ("c0".."c7", secondary B-tree index by_cat), and score in [0,97).
func planCatalog(t testing.TB, n int) *testCatalog {
	t.Helper()
	return planCatalogOn(t, newTestCatalog(), n)
}

// planCatalogOn adds planCatalog's dataset to cat.
func planCatalogOn(t testing.TB, cat *testCatalog, n int) *testCatalog {
	t.Helper()
	var recs []adm.Value
	for i := 0; i < n; i++ {
		recs = append(recs, obj(
			"id", adm.Int(int64(i)),
			"cat", adm.String(fmt.Sprintf("c%d", i%8)),
			"score", adm.Int(int64(i%97)),
		))
	}
	ds := cat.addDataset(t, "R", "id", 4, recs...)
	if err := ds.CreateFieldBTreeIndex("by_cat", "cat"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustSel(t testing.TB, q string) *sqlpp.SelectExpr {
	t.Helper()
	e, err := sqlpp.ParseExpr(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := e.(*sqlpp.SelectExpr)
	if !ok {
		t.Fatalf("%q is not a query", q)
	}
	return sel
}

func openCursor(t *testing.T, ctx *Context, q string) *RowCursor {
	t.Helper()
	rc, err := ExecuteSelectCursor(ctx, nil, mustSel(t, q))
	if err != nil {
		t.Fatalf("open %q: %v", q, err)
	}
	return rc
}

// sameMultiset compares result sets order-insensitively, keyed by
// rendering.
func sameMultiset(a, b []adm.Value) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, v := range a {
		counts[fmt.Sprint(v)]++
	}
	for _, v := range b {
		counts[fmt.Sprint(v)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestPlannerShapes pins which access path each query shape plans:
// index pushdown, parallel partition scan (with its merge order and
// pushed filter), bounded top-k vs full sort, streaming aggregation,
// and the serial fallback. Asserting on Plan() keeps these decisions
// test-enforced rather than timing-inferred. Every SELECT shape
// streams — there is no eager fallback inside the cursor.
func TestPlannerShapes(t *testing.T) {
	cat := planCatalog(t, 400)
	cases := []struct {
		q    string
		want []string // required Plan() substrings
		not  []string // forbidden Plan() substrings
	}{
		{
			q:    `SELECT VALUE r.id FROM R r WHERE r.cat = "c3"`,
			want: []string{"iscan(R.by_cat on cat)", "filter"},
			not:  []string{"pscan", "scan(R)"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r WHERE r.cat >= "c2" AND r.cat <= "c4" AND r.score > 50`,
			want: []string{"iscan(R.by_cat on cat)", "filter"},
		},
		{
			// No indexed field in WHERE: parallel scan with the filter
			// pushed into the scan workers.
			q:    `SELECT VALUE r.id FROM R r WHERE r.score > 90`,
			want: []string{"pscan(R,partition,4)+filter"},
			not:  []string{"iscan", "→filter"},
		},
		{
			// ORDER BY pk ASC: key-order merge replaces the sort.
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.id LIMIT 5`,
			want: []string{"pscan(R,key,4)", "ordered-by-key", "limit(5)"},
			not:  []string{"topk", "sort"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.score DESC, r.id LIMIT 5`,
			want: []string{"pscan(R,partition,4)", "topk(5)"},
			not:  []string{"sort"},
		},
		{
			q:    `SELECT VALUE r.id FROM R r ORDER BY r.score DESC, r.id`,
			want: []string{"sort"},
			not:  []string{"topk"},
		},
		{
			q:    `SELECT r.cat AS c, count(*) AS n FROM R r GROUP BY r.cat`,
			want: []string{"pscan(R,partition,4)", "aggregate(1keys,1aggs)"},
		},
		{
			// Order-insensitive aggregate, no GROUP BY: unordered fan-in.
			q:    `SELECT VALUE count(*) FROM R r`,
			want: []string{"pscan(R,unordered,4)", "aggregate(0keys,1aggs)"},
		},
		{
			// sum folds floats in arrival order: stays partition-order.
			q:    `SELECT VALUE sum(r.score) FROM R r`,
			want: []string{"pscan(R,partition,4)"},
			not:  []string{"unordered"},
		},
		{
			// LIMIT without a blocking operator: serial scan, stops early.
			q:    `SELECT VALUE r.id FROM R r LIMIT 3`,
			want: []string{"scan(R)", "limit(3)"},
			not:  []string{"pscan", "iscan"},
		},
		{
			q:    `SELECT DISTINCT r.cat FROM R r`,
			want: []string{"pscan(R,partition,4)", "distinct"},
		},
		{
			// DISTINCT limits distinct output rows, so the heap stays
			// unbounded even under LIMIT.
			q:    `SELECT DISTINCT r.cat FROM R r ORDER BY r.cat LIMIT 3`,
			want: []string{"sort", "distinct", "limit(3)"},
			not:  []string{"topk"},
		},
	}
	for _, tc := range cases {
		rc := openCursor(t, NewContext(cat), tc.q)
		plan := rc.Plan()
		for _, w := range tc.want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\n plan %q missing %q", tc.q, plan, w)
			}
		}
		for _, n := range tc.not {
			if strings.Contains(plan, n) {
				t.Errorf("%s:\n plan %q must not contain %q", tc.q, plan, n)
			}
		}
		rc.Close()
	}

	// Planner knobs force the fallbacks benchmarks compare against.
	ctx := NewContext(cat)
	ctx.DisableIndexScan = true
	if plan := openCursor(t, ctx, `SELECT VALUE r.id FROM R r WHERE r.cat = "c3"`).Plan(); strings.Contains(plan, "iscan") {
		t.Errorf("DisableIndexScan ignored: %q", plan)
	}
	ctx2 := NewContext(cat)
	ctx2.DisableParallelScan = true
	if plan := openCursor(t, ctx2, `SELECT VALUE count(*) FROM R r`).Plan(); !strings.Contains(plan, "scan(R)") || strings.Contains(plan, "pscan") {
		t.Errorf("DisableParallelScan ignored: %q", plan)
	}
}

// TestNestedSelectScansSerially: only the outermost SELECT of an
// evaluation may fan out into scan workers. A nested one — a correlated
// subquery runs once per outer row — plans the serial leaf for the very
// query that gets a parallel scan on top.
func TestNestedSelectScansSerially(t *testing.T) {
	cat := planCatalog(t, 400)
	sel := mustSel(t, `SELECT VALUE r.id FROM R r WHERE r.score > o.score`)
	env := Bind(nil, "o", obj("score", adm.Int(90)))
	for _, tc := range []struct {
		outer evalState // the state the SELECT is reached from
		want  string
	}{
		{evalState{}, "pscan(R,partition,4)+filter→project"},
		{evalState{depth: 1}, "scan(R)→filter→project"},
		{evalState{depth: 7}, "scan(R)→filter→project"},
	} {
		tc.outer.ctx = NewContext(cat)
		rc, err := openSelect(tc.outer, env, sel)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Plan() != tc.want {
			t.Errorf("reached from depth %d: plan %q, want %q", tc.outer.depth, rc.Plan(), tc.want)
		}
		if got := len(drainCursor(t, rc)); got != 24 {
			t.Errorf("reached from depth %d: %d rows, want 24", tc.outer.depth, got)
		}
	}

	// An indexed predicate changes nothing below the top: the index
	// probe reads the live B-tree, a nested SELECT an older pin.
	indexed := mustSel(t, `SELECT VALUE r.id FROM R r WHERE r.cat = "c3"`)
	for _, tc := range []struct {
		outer  evalState
		pinned bool // R already pinned when the SELECT is reached
		want   string
	}{
		{evalState{}, false, "iscan(R.by_cat on cat)→filter→project"},
		{evalState{}, true, "pscan(R,partition,4)+filter→project"},
		{evalState{depth: 1}, false, "scan(R)→filter→project"},
		{evalState{depth: 1}, true, "scan(R)→filter→project"},
	} {
		tc.outer.ctx = NewContext(cat)
		if tc.pinned {
			if _, err := tc.outer.ctx.Pin("R"); err != nil {
				t.Fatal(err)
			}
		}
		rc, err := openSelect(tc.outer, nil, indexed)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Plan() != tc.want {
			t.Errorf("indexed, depth %d, pinned %v: plan %q, want %q", tc.outer.depth, tc.pinned, rc.Plan(), tc.want)
		}
		if got := len(drainCursor(t, rc)); got != 50 {
			t.Errorf("indexed, depth %d, pinned %v: %d rows, want 50", tc.outer.depth, tc.pinned, got)
		}
	}
}

// TestNestedSelectReadsStatementSnapshot: a subquery evaluated once per
// outer row reads the data as of the statement's pin every time, also
// when its predicate is indexed and the dataset is written between two
// pulls of the outer cursor.
func TestNestedSelectReadsStatementSnapshot(t *testing.T) {
	cat := planCatalog(t, 400)
	rc := openCursor(t, NewContext(cat),
		`SELECT VALUE (SELECT VALUE count(*) FROM R r WHERE r.cat = "c3" AND r.score >= x)[0] FROM [0, 0] x`)
	defer rc.Close()
	pull := func() int64 {
		t.Helper()
		v, ok, err := rc.Next()
		if err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		n, _ := v.AsInt()
		return n
	}
	first := pull()
	ds, _ := cat.Dataset("R")
	if err := ds.Upsert(obj("id", adm.Int(3), "cat", adm.String("c4"), "score", adm.Int(3))); err != nil {
		t.Fatal(err)
	}
	if second := pull(); first != 50 || second != 50 {
		t.Errorf("rows %d then %d within one statement, want 50 and 50", first, second)
	}
}

// TestIndexScanMatchesFullScan is the index-use acceptance check: the
// same query planned through the secondary index and through a full
// scan must return the same rows, with the plans proving which path
// ran. Speed is benchmarked (BenchmarkQueryIndexPushdown); index use
// and correctness are asserted here, not inferred from timing.
func TestIndexScanMatchesFullScan(t *testing.T) {
	cat := planCatalog(t, 400)
	queries := []string{
		`SELECT VALUE r.id FROM R r WHERE r.cat = "c5"`,
		`SELECT VALUE r FROM R r WHERE r.cat = "c0" AND r.score < 30`,
		`SELECT VALUE r.id FROM R r WHERE r.cat > "c5"`,
		`SELECT VALUE r.id FROM R r WHERE r.cat >= "c2" AND r.cat < "c4"`,
		`SELECT VALUE r.id FROM R r WHERE r.cat = "nosuch"`,
		`SELECT r.cat AS c, count(*) AS n FROM R r WHERE r.cat <= "c1" GROUP BY r.cat`,
	}
	for _, q := range queries {
		idx := openCursor(t, NewContext(cat), q)
		if !strings.Contains(idx.Plan(), "iscan(R.by_cat on cat)") {
			t.Fatalf("%s:\n expected index scan, plan %q", q, idx.Plan())
		}
		got := drainCursor(t, idx)

		full := NewContext(cat)
		full.DisableIndexScan = true
		fc := openCursor(t, full, q)
		if strings.Contains(fc.Plan(), "iscan") {
			t.Fatalf("%s:\n full-scan control still uses index: %q", q, fc.Plan())
		}
		want := drainCursor(t, fc)

		// The index resolves postings in secondary-key order, not
		// primary-key order, so compare as multisets.
		if !sameMultiset(got, want) {
			t.Errorf("%s:\n index %v\n full  %v", q, got, want)
		}
	}
}

// TestCursorMatchesEagerRandomized is the randomized differential
// harness: a seeded generator produces query shapes across the whole
// planner surface (index pushdown, parallel merge orders, top-k,
// streaming aggregation, DISTINCT) and every one must agree with the
// reference implementation (oracle_test.go). Order is compared exactly
// unless the plan reorders input without an ORDER BY to re-impose it
// (index scans emit postings order), in which case the multisets must
// agree — see diffQuery.
func TestCursorMatchesEagerRandomized(t *testing.T) {
	cat := planCatalog(t, 400)
	rng := rand.New(rand.NewSource(20260808)) // fixed seed: deterministic corpus

	selects := []string{
		`VALUE r.id`,
		`VALUE r`,
		`r.id AS id, r.score AS s`,
		`VALUE [r.cat, r.score]`,
	}
	aggSelects := []string{
		`VALUE count(*)`,
		`count(*) AS n, sum(r.score) AS s`,
		`min(r.score) AS lo, max(r.score) AS hi, avg(r.score) AS mean`,
	}
	wheres := []string{
		``,
		`WHERE r.cat = "c3"`,
		`WHERE r.score > 60`,
		`WHERE r.cat = "c5" AND r.score < 40`,
		`WHERE r.cat >= "c2" AND r.cat <= "c4"`,
		`WHERE r.score >= 10 AND r.score <= 20 AND r.cat < "c6"`,
	}
	// Every ORDER BY list is total (it ends in the unique pk), so a
	// LIMIT prefix is well-defined and exact comparison stays valid
	// even when the scan reordered its input.
	orders := []string{
		`ORDER BY r.id`,
		`ORDER BY r.score DESC, r.id`,
		`ORDER BY r.cat, r.id DESC`,
	}

	gen := func() string {
		where := wheres[rng.Intn(len(wheres))]
		switch rng.Intn(4) {
		case 0: // pipeline shapes; no LIMIT without ORDER BY (the prefix would be scan-order-dependent)
			return fmt.Sprintf(`SELECT %s FROM R r %s`, selects[rng.Intn(len(selects))], where)
		case 1: // order by, sometimes limited
			q := fmt.Sprintf(`SELECT %s FROM R r %s %s`,
				selects[rng.Intn(len(selects))], where, orders[rng.Intn(len(orders))])
			if rng.Intn(2) == 0 {
				q += fmt.Sprintf(` LIMIT %d`, rng.Intn(25))
			}
			return q
		case 2: // grouped
			q := fmt.Sprintf(`SELECT r.cat AS c, count(*) AS n, sum(r.score) AS s, avg(r.score) AS m FROM R r %s GROUP BY r.cat`, where)
			if rng.Intn(2) == 0 {
				q += ` ORDER BY r.cat`
				if rng.Intn(2) == 0 {
					q += fmt.Sprintf(` LIMIT %d`, 1+rng.Intn(6))
				}
			}
			return q
		default: // global aggregates / distinct
			if rng.Intn(2) == 0 {
				return fmt.Sprintf(`SELECT %s FROM R r %s`, aggSelects[rng.Intn(len(aggSelects))], where)
			}
			q := fmt.Sprintf(`SELECT DISTINCT r.cat FROM R r %s`, where)
			if rng.Intn(2) == 0 {
				q += ` ORDER BY r.cat`
				if rng.Intn(2) == 0 {
					q += ` LIMIT 3`
				}
			}
			return q
		}
	}

	for i := 0; i < 200; i++ {
		q := gen()
		diffQuery(t, NewContext(cat), q, mustSel(t, q))
	}
}

// TestCursorCloseMidParallelScan closes cursors partway through every
// parallel shape (and again, for idempotence) — scan workers must
// stop and join rather than leak or race. Under -race this is the
// teardown acceptance test.
func TestCursorCloseMidParallelScan(t *testing.T) {
	cat := planCatalog(t, 2000)
	for _, q := range []string{
		`SELECT VALUE r.id FROM R r`,                                // pscan partition-order
		`SELECT VALUE r.id FROM R r ORDER BY r.id LIMIT 5`,          // pscan key-order merge
		`SELECT VALUE count(*) FROM R r`,                            // pscan unordered fan-in
		`SELECT VALUE r.id FROM R r WHERE r.score > 3`,              // pscan + pushed filter
		`SELECT VALUE r.id FROM R r ORDER BY r.score, r.id LIMIT 7`, // top-k over pscan
	} {
		rc := openCursor(t, NewContext(cat), q)
		if !strings.Contains(rc.Plan(), "pscan(") {
			t.Fatalf("%s: expected parallel scan, plan %q", q, rc.Plan())
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := rc.Next(); err != nil {
				t.Fatalf("%s: %v", q, err)
			} else if !ok {
				break
			}
		}
		rc.Close()
		rc.Close() // idempotent
		if _, ok, err := rc.Next(); ok || err != nil {
			t.Fatalf("%s: Next after Close = %v, %v", q, ok, err)
		}
	}
}

// TestCursorContextCancellation cancels the caller's context
// mid-iteration and before the first pull; the cursor must stop with
// context.Canceled and tear its scan down.
func TestCursorContextCancellation(t *testing.T) {
	cat := planCatalog(t, 2000)

	std, cancel := context.WithCancel(context.Background())
	ctx := NewContext(cat)
	ctx.Std = std
	rc := openCursor(t, ctx, `SELECT VALUE r.id FROM R r`)
	if _, ok, err := rc.Next(); !ok || err != nil {
		t.Fatalf("first pull: %v, %v", ok, err)
	}
	cancel()
	if _, ok, err := rc.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, %v; want context.Canceled", ok, err)
	}
	// Exhausted afterwards, not erroring forever.
	if _, ok, err := rc.Next(); ok || err != nil {
		t.Fatalf("Next after cancelled close = %v, %v", ok, err)
	}

	// Cancellation observed even when the first pull runs a blocking
	// build (streaming aggregation drains the scan inside next).
	std2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ctx2 := NewContext(cat)
	ctx2.Std = std2
	rc2 := openCursor(t, ctx2, `SELECT r.cat AS c, count(*) AS n FROM R r GROUP BY r.cat`)
	if _, ok, err := rc2.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("grouped Next under cancelled ctx = %v, %v; want context.Canceled", ok, err)
	}
}
