package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// diffCatalog is the fixed catalog the differential corpus and the fuzz
// target run over: R (400 rows, 4 partitions, B-tree index by_cat on
// cat — see planCatalog), Events (300 rows, 3 partitions, no index),
// a UDF whose body is a correlated aggregate subquery, one that
// recurses forever, and a library function that keeps its argument
// (stashIntact).
func diffCatalog(t testing.TB) *testCatalog {
	t.Helper()
	return diffCatalogOn(t, nil)
}

// diffCatalogOn is diffCatalog behind cache (nil: one of the default
// budget per dataset).
func diffCatalogOn(t testing.TB, cache *lsm.BlockCache) *testCatalog {
	t.Helper()
	cat := newTestCatalog()
	cat.cache = cache
	planCatalogOn(t, cat, 400)
	var recs []adm.Value
	for i := 0; i < 300; i++ {
		recs = append(recs, obj(
			"id", adm.Int(int64(i)),
			"grp", adm.String(fmt.Sprintf("g%d", i%7)),
			"score", adm.Int(int64(i%50)),
		))
	}
	cat.addDataset(t, "Events", "id", 3, recs...)
	cat.addSQLFunction(t, `CREATE FUNCTION cat_size(c) { (SELECT VALUE count(*) FROM R r WHERE r.cat = c)[0] };`)
	cat.addSQLFunction(t, `CREATE FUNCTION loop_forever(x) { loop_forever(x) };`)
	cat.natives["testlib#intact"] = stashIntact()
	return cat
}

// stashIntact is a library function that keeps what it is handed, as a
// library call may: it stashes its argument with the argument's
// encoding and returns whether each of the last 64 arguments it
// stashed still encodes as it did when stashed. A stored record kept
// without a copy reads another block's bytes once its block is
// recycled, and the call then returns false where the oracle, which
// hands it decoded records, sees true.
func stashIntact() func([]adm.Value) (adm.Value, error) {
	type kept struct {
		v   adm.Value
		enc string
	}
	var mu sync.Mutex
	var stash [64]kept
	n := 0
	return func(args []adm.Value) (adm.Value, error) {
		mu.Lock()
		defer mu.Unlock()
		if len(args) != 1 {
			return adm.Value{}, fmt.Errorf("intact takes one argument")
		}
		stash[n%len(stash)] = kept{args[0], string(adm.AppendBinary(nil, args[0]))}
		n++
		for _, k := range stash[:min(n, len(stash))] {
			if string(adm.AppendBinary(nil, k.v)) != k.enc {
				return adm.Bool(false), nil
			}
		}
		return adm.Bool(true), nil
	}
}

// diffCorpus is the fixed differential corpus (and the fuzz target's
// seed set). Results that depend on scan order carry an ORDER BY or
// avoid the indexed column inside subqueries, where diffQuery cannot
// see the plan.
var diffCorpus = []string{
	// Pipeline-able shapes (true streaming).
	`SELECT VALUE e FROM Events e`,
	`SELECT VALUE e.id FROM Events e WHERE e.score > 25`,
	`SELECT VALUE e.id FROM Events e LIMIT 10`,
	`SELECT VALUE e.id FROM Events e WHERE e.grp = "g3" LIMIT 4`,
	`SELECT e.id AS id, e.score AS s FROM Events e WHERE e.score < 5`,
	`SELECT e.*, "x" AS tag FROM Events e LIMIT 3`,
	`SELECT VALUE [e.id, b] FROM Events e LET b = e.score * 2 WHERE b > 90`,
	`LET cutoff = 40 SELECT VALUE e.id FROM Events e WHERE e.score > cutoff`,
	`SELECT VALUE x FROM [1, 2, 3] x`,
	`SELECT VALUE e.id FROM Events e WHERE e.id IN [1, 5, 250]`,
	`SELECT * FROM Events e, [1, 2] n WHERE e.id < 2`,
	// `SELECT t.*, extra…` — an enrichment UDF's shape: spliced from the
	// stored records' bytes, or, when a name repeats or a source is a
	// constructed object, filled field by field.
	`SELECT e.*, e.nosuch AS gone, {"a": e.id, "b": [e.grp]} AS nested FROM Events e WHERE e.id < 3`,
	`SELECT e.*, (SELECT VALUE r.cat FROM R r WHERE r.id = e.id) AS cats FROM Events e WHERE e.id < 3`,
	`SELECT "first" AS tag, e.* FROM Events e WHERE e.id < 3`,
	`SELECT e.*, e.score + 1 AS score FROM Events e WHERE e.id < 3`,
	`SELECT e.*, 1 AS x, 2 AS x FROM Events e WHERE e.id < 3`,
	`SELECT e.*, r.* FROM Events e, R r WHERE e.id < 3 AND r.id = e.id`,
	`SELECT x.*, e.* FROM Events e, [{"k": 1}] x WHERE e.id < 2`,
	// Blocking shapes (streamed: top-k heap, hash aggregate, dedupe).
	`SELECT VALUE e.id FROM Events e ORDER BY e.id DESC LIMIT 5`,
	`SELECT e.grp AS g, count(*) AS n FROM Events e GROUP BY e.grp ORDER BY e.grp`,
	`SELECT DISTINCT e.grp FROM Events e ORDER BY e.grp`,
	`SELECT VALUE count(*) FROM Events e WHERE e.score = 0`,
	`SELECT g, min(e.score) AS lo, max(e.score) AS hi, avg(e.score) AS mean, sum(e.score) AS total FROM Events e GROUP BY e.grp AS g`,
	`SELECT VALUE r.id FROM R r WHERE r.cat = "c3" ORDER BY r.score DESC, r.id LIMIT 6`,

	// What changed engines: subqueries.
	// Correlated subquery in the SELECT list.
	`SELECT e.id AS id, (SELECT VALUE r.score FROM R r WHERE r.id = e.id) AS s FROM Events e WHERE e.id < 6`,
	`SELECT e.id AS id, (SELECT VALUE count(*) FROM R r WHERE r.score = e.score)[0] AS n FROM Events e WHERE e.id < 4`,
	// IN (SELECT …), EXISTS, NOT EXISTS.
	`SELECT VALUE e.id FROM Events e WHERE e.id < 40 AND e.score IN (SELECT VALUE r.score FROM R r WHERE r.id < 3)`,
	`SELECT VALUE e.id FROM Events e WHERE e.id < 40 AND e.score NOT IN (SELECT VALUE r.score FROM R r WHERE r.id < 30)`,
	`SELECT VALUE e.id FROM Events e WHERE e.id < 60 AND EXISTS (SELECT r FROM R r WHERE r.score = e.score AND r.id > 390)`,
	`SELECT VALUE e.id FROM Events e WHERE e.id < 60 AND NOT EXISTS (SELECT r FROM R r WHERE r.score = e.score AND r.id > 390)`,
	`SELECT VALUE EXISTS (SELECT r FROM R r WHERE r.id < 0) FROM [1] x`,
	// FROM over a LET-bound array, a single object, an unknown.
	`LET xs = [{"n": 1}, {"n": 2}, {"n": 3}] SELECT VALUE x.n * 10 FROM xs x WHERE x.n != 2`,
	`SELECT VALUE o.a FROM {"a": 7} o`,
	`SELECT VALUE x FROM null x`,
	`SELECT VALUE y FROM [[1, 2], [3]] x, x y`,
	// A subquery with its own GROUP BY/aggregate inside a grouped outer
	// query: the inner block leaves the outer group context.
	`SELECT e.grp AS g, count(*) AS n, (SELECT VALUE count(*) FROM R r WHERE r.score < 3)[0] AS small FROM Events e GROUP BY e.grp ORDER BY e.grp`,
	`SELECT g, max(e.score) AS hi, (SELECT r.cat AS c, count(*) AS n FROM R r WHERE r.score = 0 GROUP BY r.cat ORDER BY r.cat) AS zeros FROM Events e GROUP BY e.grp AS g ORDER BY g LIMIT 2`,
	`SELECT VALUE sum((SELECT VALUE count(*) FROM R r WHERE r.score = e.score)[0]) FROM Events e WHERE e.id < 5`,
	// DISTINCT + ORDER BY + LIMIT in a subquery.
	`SELECT VALUE (SELECT DISTINCT r.cat FROM R r WHERE r.score > x ORDER BY r.cat DESC LIMIT 3) FROM [10, 95, 99] x`,
	// COUNT(*) over an empty input.
	`SELECT VALUE count(*) FROM [] x`,
	`SELECT VALUE (SELECT count(*) AS n, sum(r.score) AS s, min(r.score) AS lo FROM R r WHERE r.id < 0) FROM [1] x`,
	// Aggregates as scalar functions over arrays: a LET is outside any
	// group; in the SELECT list the same calls make a one-group query.
	`LET xs = [1, 2, null, 3.5], a = [count(xs), sum(xs), avg(xs), min(xs), max(xs)] SELECT VALUE a`,
	`LET xs = [1, "a"], a = [count(xs), sum(xs), avg(xs), min(xs), max(xs), sum(7), sum([]), avg([2, 3])] SELECT VALUE a`,
	`LET xs = [1, 2, null, 3.5] SELECT VALUE [count(xs), sum(xs), avg(xs), min(xs), max(xs)]`,
	`LET s = sum((SELECT VALUE r.score FROM R r WHERE r.id < 10)) SELECT VALUE s`,
	`SELECT VALUE sum((SELECT VALUE r.score FROM R r WHERE r.id < 10)) FROM [1] x`,
	`SELECT VALUE count(*) + sum(count((SELECT VALUE r.id FROM R r WHERE r.score = e.score))) FROM Events e WHERE e.id < 3`,
	// UDFs whose bodies are SELECTs, called per row and per group.
	`SELECT r.cat AS c, cat_size(r.cat) AS n FROM R r WHERE r.id < 10 ORDER BY r.id`,
	`SELECT c, cat_size(c) = count(*) AS same FROM R r GROUP BY r.cat AS c ORDER BY c`,
	// Every ungrouped pipeline with no top-k stage rebinds one box per
	// record at its FROM leaf, whatever sits above it (envReuse).
	`SELECT VALUE [e.id, n] FROM Events e, [0, 1] n WHERE e.id < 6 AND e.score + n IN (SELECT VALUE r.score FROM R r WHERE r.id < e.id + 2)`,
	`SELECT VALUE [e.id, d] FROM Events e LET d = e.score * 2 WHERE e.id < 50 AND EXISTS (SELECT r FROM R r WHERE r.score = d)`,
	`SELECT VALUE r.id FROM R r WHERE r.score < 20 AND cat_size(r.cat) = 50`,
	`SELECT DISTINCT e.grp FROM Events e WHERE e.score > 10 LIMIT 4`,
	`SELECT VALUE e.id FROM Events e WHERE e.score > 40 ORDER BY e.id`,
	`SELECT VALUE e.id FROM Events e WHERE e.score > 40 ORDER BY e.id LIMIT 7`,
	`SELECT VALUE {"id": e.id, "same": (SELECT VALUE x.id FROM Events x WHERE x.score = e.score AND x.id < e.id ORDER BY x.id)} FROM Events e WHERE e.grp = "g2" LIMIT 5`,
	`SELECT r.id AS id, (SELECT VALUE count(*) FROM Events e WHERE e.score = r.score)[0] AS n FROM R r WHERE r.cat = "c5"`,
	// The two operators that keep an env copy only its top node, so
	// under a second FROM or a FROM-LET their leaf binds afresh.
	`SELECT VALUE [e.id, n] FROM Events e, [1, 2] n WHERE e.id < 30 ORDER BY e.score DESC, e.id, n LIMIT 5`,
	`SELECT g, e.grp AS same, count(*) AS n FROM Events e LET d = e.score GROUP BY e.grp AS g ORDER BY g`,
	// Shapes that keep a stored row past the next pull, each of which
	// copies what it keeps (a row read from a run is valid only until its
	// leaf moves on): DISTINCT's set (whole records seen again a scan
	// later, and strings read out of records in another partition's
	// block), a subquery's drained array, a join's rows under a sort
	// (both leaves' records), the key-ordered merge's popped row, and a
	// library call that stashes its argument.
	`SELECT DISTINCT VALUE r FROM [1, 2] n, R r WHERE r.score < 30`,
	`SELECT DISTINCT VALUE e.grp FROM Events e`,
	`SELECT e.id AS id, (SELECT VALUE r FROM R r WHERE r.score = e.score AND r.id < 200) AS rs FROM Events e WHERE e.id < 8`,
	`SELECT * FROM Events e, R r WHERE e.id < 40 AND r.id = e.id + 100`,
	`SELECT * FROM Events e, R r WHERE e.id < 40 AND r.id = e.id + 100 ORDER BY e.score DESC, e.id`,
	`SELECT VALUE r FROM R r WHERE r.score > 20 ORDER BY r.id`,
	`SELECT r.id AS id, testlib#intact(r) AS intact FROM R r WHERE r.score < 60`,
	// Whole records an index probe reads where they lie (the recycling
	// arm's index-scan run).
	`SELECT VALUE r FROM R r WHERE r.cat = "c7"`,
	// Both engines must refuse these.
	`SELECT VALUE loop_forever(1) FROM [1] x`,
	`SELECT VALUE sum() FROM R r`,
	`LET s = sum() SELECT VALUE s`,
	`SELECT VALUE sum(*) FROM R r`,
	`SELECT VALUE count(*) FROM R r WHERE count(*) > 1`,
	`SELECT VALUE r.id FROM R r LIMIT -1`,
	`SELECT x.* FROM [1] x`,
	`SELECT VALUE x FROM NoSuchDataset x`,
	`SELECT VALUE nosuchfn(r) FROM R r`,
	// An error past a LIMIT or an EXISTS match may go unseen; a LIMIT
	// elsewhere in the statement excuses nothing.
	`SELECT VALUE CASE WHEN x > 2 THEN nosuchfn(x) ELSE x END FROM [1, 2, 3, 4] x LIMIT 2`,
	`SELECT VALUE EXISTS (SELECT VALUE CASE WHEN y > 1 THEN nosuchfn(y) ELSE y END FROM [1, 2] y) FROM [1] x`,
	`SELECT VALUE [(SELECT VALUE y FROM [1, 2] y LIMIT 1), CASE WHEN x > 2 THEN nosuchfn(x) ELSE x END] FROM [1, 2, 3, 4] x`,
}

// engineRows runs sel on the engine alone over cat, with index scans off
// when scan is set, and returns its rows (copies of the transient ones),
// its plan and the error that ended it.
func engineRows(std context.Context, cat *testCatalog, sel *sqlpp.SelectExpr, scan bool) ([]adm.Value, string, error) {
	ctx := NewContext(cat)
	ctx.Std, ctx.DisableIndexScan = std, scan
	rc, err := ExecuteSelectCursor(ctx, nil, sel)
	if err != nil {
		return nil, "", err
	}
	rows, err := drainRows(rc)
	return rows, rc.Plan(), err
}

// diffQuery runs one SELECT on the engine, through a cursor opened on
// ctx, and on the oracle over a fresh context, and fails t when they
// disagree:
//
//   - the oracle succeeds: the engine must succeed with the same rows
//     in the same order — as a multiset when the plan scans an index
//     (postings order) and the query has no ORDER BY to re-impose one;
//   - the oracle fails: the engine must fail too, unless the error arose
//     inside a block that can stop early (a SELECT with LIMIT, an EXISTS
//     subquery — oracleSkippable): a pipeline that never pulls the
//     offending row legitimately never sees its error.
//
// An engine run cut short by ctx's deadline is skipped, not compared:
// the oracle has no cancellation and would materialize the same blow-up.
//
// The oracle reads every stored record fully decoded (fromCollection
// clones it), so this is also the differential of the record view
// against the decoded object, under every operator. The engine's rows
// and plan are returned so that two arms can be held to each other.
func diffQuery(t testing.TB, ctx *Context, q string, sel *sqlpp.SelectExpr) (got []adm.Value, plan string) {
	t.Helper()
	rc, err := ExecuteSelectCursor(ctx, nil, sel)
	if err == nil {
		plan = rc.Plan()
		for {
			v, ok, nerr := rc.Next()
			if !ok {
				err = nerr
				break
			}
			if rc.Transient() { // the caller keeps a copy (RowCursor.Transient)
				v = v.Detached()
			}
			got = append(got, v)
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Skipf("%s: engine ran out of time", q)
	}
	octx := NewContext(ctx.Catalog)
	octx.Params = ctx.Params
	wantV, wantErr := oracleSelect(octx, nil, sel)
	switch {
	case wantErr != nil && err != nil:
		return got, plan
	case wantErr != nil:
		if !errors.As(wantErr, new(oracleSkippable)) {
			t.Errorf("%s:\n plan %s\n oracle failed (%v), engine returned %d rows", q, plan, wantErr, len(got))
		}
		return got, plan
	case err != nil:
		t.Errorf("%s:\n plan %s\n engine failed (%v), oracle returned %s", q, plan, err, wantV)
		return got, plan
	}
	want := wantV.ArrayVal()
	if strings.Contains(plan, "iscan(") && !strings.Contains(strings.ToUpper(q), "ORDER BY") {
		if !sameMultiset(got, want) {
			t.Errorf("%s:\n plan %s\n engine %v\n oracle %v", q, plan, got, want)
		}
		return got, plan
	}
	if len(got) != len(want) {
		t.Errorf("%s:\n plan %s\n engine %d rows, oracle %d rows", q, plan, len(got), len(want))
		return got, plan
	}
	for i := range got {
		if !adm.Equal(got[i], want[i]) {
			t.Errorf("%s:\n plan %s\n row %d: engine %s, oracle %s", q, plan, i, got[i], want[i])
			return got, plan
		}
	}
	return got, plan
}

// TestCursorMatchesEagerExecutor runs the fixed corpus — every operator,
// and every way a SELECT nests inside another — through the engine and
// the reference implementation and requires identical results: the
// pipeline is an execution strategy, never a semantic.
//
// It runs twice over: on the catalog as loaded (records in memtables,
// views of the buffers their batches were written from, until the flush
// the first snapshot triggers lands) and on one flushed to run files
// beforehand (every record a view of its block), and the two arms must
// return the same rows under the same plan.
func TestCursorMatchesEagerExecutor(t *testing.T) {
	loaded, flushed := diffCatalog(t), flushedDiffCatalog(t)
	for _, q := range diffCorpus {
		sel := mustSel(t, q)
		rows, plan := diffQuery(t, NewContext(loaded), q, sel)
		frows, fplan := diffQuery(t, NewContext(flushed), q, sel)
		sameArms(t, q, rows, plan, frows, fplan)
	}
}

func flushedDiffCatalog(t testing.TB) *testCatalog {
	return flushedDiffCatalogOn(t, nil)
}

// flushedDiffCatalogOn is flushedDiffCatalog behind cache.
func flushedDiffCatalogOn(t testing.TB, cache *lsm.BlockCache) *testCatalog {
	cat := diffCatalogOn(t, cache)
	for _, ds := range cat.datasets {
		flushAll(t, ds)
	}
	return cat
}

// sameArms fails t unless two runs of one query agree row for row and
// on the plan.
func sameArms(t testing.TB, q string, rows []adm.Value, plan string, frows []adm.Value, fplan string) {
	t.Helper()
	if plan != fplan {
		t.Errorf("%s:\n plan as loaded %s\n plan flushed   %s", q, plan, fplan)
	}
	if len(rows) != len(frows) {
		t.Errorf("%s: %d rows as loaded, %d flushed", q, len(rows), len(frows))
		return
	}
	for i := range rows {
		if !adm.Equal(rows[i], frows[i]) {
			t.Errorf("%s: row %d: as loaded %s, flushed %s", q, i, rows[i], frows[i])
			return
		}
	}
}

// FuzzSelectMatchesOracle: any string sqlpp parses into a SELECT must
// evaluate to the same rows on the engine and on the oracle over the
// fixed catalog, or fail on both — and panic on neither. The seeds (the
// differential corpus) run under plain `go test`; searching beyond them
// is `go test -run '^$' -fuzz FuzzSelectMatchesOracle ./internal/query/`.
//
// Index scans are off in the arms compared with each other: postings
// order differs from key order and only an ORDER BY — which a mutated
// query cannot be relied on to carry — makes a LIMIT prefix over one
// comparable. TestIndexScanMatchesFullScan and the randomized
// differential cover that leaf.
//
// The third arm is the flushed catalog behind a cache whose splits are
// smaller than any block: every block a reader pins is evicted as it is
// admitted and recycled once released, so anything that kept a row it
// did not copy — a top-k, an aggregate, DISTINCT, a drained subquery, a
// library call — reads another block's bytes. It runs once more with
// index scans on: where the statement becomes an index probe, which
// reads postings order, its rows must be the third arm's as a multiset,
// unless a LIMIT takes a prefix or either run fails (the probe reads
// fewer rows, so it may miss an error a scan meets).
func FuzzSelectMatchesOracle(f *testing.F) {
	loaded, flushed := diffCatalog(f), flushedDiffCatalog(f)
	recycling := flushedDiffCatalogOn(f, lsm.NewBlockCache(8<<10))
	for _, q := range diffCorpus {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		e, err := sqlpp.ParseExpr(q)
		if err != nil {
			return
		}
		sel, ok := e.(*sqlpp.SelectExpr)
		if !ok {
			return
		}
		std, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		arm := func(cat *testCatalog) ([]adm.Value, string) {
			ctx := NewContext(cat)
			ctx.Std = std
			ctx.DisableIndexScan = true
			return diffQuery(t, ctx, q, sel)
		}
		rows, plan := arm(loaded)
		frows, fplan := arm(flushed)
		sameArms(t, q, rows, plan, frows, fplan)
		rrows, rplan := arm(recycling)
		sameArms(t, q, rows, plan, rrows, rplan)
		if sel.Limit != nil {
			return
		}
		irows, iplan, err := engineRows(std, recycling, sel, false)
		if err != nil || !strings.Contains(iplan, "iscan(") {
			return
		}
		if srows, _, err := engineRows(std, recycling, sel, true); err == nil && !sameMultiset(irows, srows) {
			t.Errorf("%s:\n plan %s\n rows %v\n with index scans off %v", q, iplan, irows, srows)
		}
	})
}
