package query

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
)

// tenFieldRecord is a record of ten fields, one of them filler bytes
// wide.
func tenFieldRecord(id, filler int) adm.Value {
	o := adm.NewObject(10)
	o.Set("id", adm.Int(int64(id)))
	o.Set("country", adm.String(fmt.Sprintf("C%06d", id%50)))
	o.Set("text", adm.String(strings.Repeat("x", filler)))
	for i := 3; i < 10; i++ {
		o.Set(fmt.Sprintf("f%d", i), adm.Int(int64(i)))
	}
	return adm.ObjectValue(o)
}

// TestProjectRowSizesItsObject: `SELECT t.*, x` over a tree — every
// query and every enrichment the byte path declines — counts the star
// source's fields before it allocates the row, so the row's name and
// value spines are allocated once instead of regrown 2→4→8→16.
func TestProjectRowSizesItsObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sel := benchSel(t, `SELECT t.*, x`)
	env := Bind(Bind(nil, "t", tenFieldRecord(1, 40)), "x", adm.Int(7))
	st := evalState{ctx: NewContext(newTestCatalog())}
	var row adm.Value
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if row, err = projectRow(st, env, sel, nil); err != nil {
			t.Fatal(err)
		}
	})
	if row.ObjectVal().Len() != 11 || row.Field("x").IntVal() != 7 {
		t.Fatalf("row = %v", row)
	}
	if allocs > 3 { // the Object, its names, its values
		t.Fatalf("an 11-field row over a tree cost %v allocations, want 3", allocs)
	}
}

// TestStarlessProjectionIsAnObject: the byte path is for rows that have
// encodings to splice. `SELECT t.country AS country, x` — the shape of a
// GROUP BY projection — has none, so even over a view it is an Object
// whose readers decode nothing; encoding it only to decode it again
// would be work for no copy saved.
func TestStarlessProjectionIsAnObject(t *testing.T) {
	sel := benchSel(t, `SELECT t.country AS country, x`)
	view := adm.View(adm.AppendBinary(nil, tenFieldRecord(1, 40)))
	st := evalState{ctx: NewContext(newTestCatalog())}
	row, err := projectRow(st, Bind(Bind(nil, "t", view), "x", adm.Int(7)), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := row.ObjectVal(), row.ObjectVal(); a != b { // a view decodes a fresh Object per call
		t.Fatalf("a projection without a star source came back as a view: %v", row)
	}
	if row.ObjectVal().Len() != 2 || row.Field("country").StringVal() != "C000001" || row.Field("x").IntVal() != 7 {
		t.Fatalf("row = %v", row)
	}
}

// evalRecordCost reports the allocations and bytes one call of eval
// costs over recs.
func evalRecordCost(t testing.TB, recs []adm.Value, eval func(adm.Value) (adm.Value, error)) (allocs, bytes float64) {
	i := 0
	run := func() {
		if _, err := eval(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	const rounds = 512
	allocs = testing.AllocsPerRun(rounds, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// tenFieldViews returns 64 ten-field records of the given filler width,
// each a view of its encoding.
func tenFieldViews(filler int) []adm.Value {
	recs := make([]adm.Value, 64)
	for i := range recs {
		recs[i] = adm.View(adm.AppendBinary(nil, tenFieldRecord(i, filler)))
	}
	return recs
}

// TestEvalRecordAllocations: enriching a record that arrives as a view
// — what the feed's collector hands the evaluator — costs one
// allocation: the enriched row's bytes, which grow with the record. The
// probe key is read where it lies in the view, the subquery's array is
// carved from the record's scratch, nothing is decoded into a tree on
// the way, and the operator pipelines are the state's, rewound per
// record.
func TestEvalRecordAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cat, _ := benchCatalog(t, 50)
	pe, err := benchPlan(t, cat).Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	const narrow, wide = 100, 4100
	out, err := pe.EvalRecord(tenFieldViews(narrow)[3])
	if err != nil || out.Field("safety_rating").Kind() != adm.KindArray || out.Field("id").IntVal() != 3 {
		t.Fatalf("EvalRecord = %v, %v", out, err)
	}
	eval := func(rec adm.Value) (adm.Value, error) { return pe.EvalRecord(rec) }
	na, nb := evalRecordCost(t, tenFieldViews(narrow), eval)
	wa, wb := evalRecordCost(t, tenFieldViews(wide), eval)
	t.Logf("narrow: %.0f allocations, %.0f bytes; wide: %.0f allocations, %.0f bytes", na, nb, wa, wb)
	if na != wa || na > 1 {
		t.Fatalf("%v allocations for a narrow record, %v for a wide one; want the same, at most 1", na, wa)
	}
	// One copy of the record: the size classes a 4 KB row falls into round
	// up by at most an eighth.
	if grew := wb - nb; grew < wide-narrow || grew > (wide-narrow)*5/4 {
		t.Fatalf("%d more bytes of record cost %.0f more bytes allocated, want one copy", wide-narrow, grew)
	}
}

// TestEvalRecordIntoSlabAllocates: given a destination with room — the
// feed's slab, a key already in it — Q1's row over a view is written
// right after the key, and enriching a record allocates nothing,
// whatever the record's width: the probe key is read off the record's
// bytes, the subquery's array is carved from the record's scratch, and
// the query machinery is the state's. So for Q1's probe of the primary
// index, whether the ratings are in the memtable or in runs (a cached
// block's record is a view of it), and for the hash table the naive plan
// builds instead.
func TestEvalRecordIntoSlabAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, arm := range []struct {
		name    string
		opts    PlanOptions
		flushed bool
	}{{"Q1", PlanOptions{}, false}, {"Q1 from runs", PlanOptions{}, true}, {"Q1 hash", PlanOptions{DisableIndexes: true}, false}} {
		t.Run(arm.name, func(t *testing.T) {
			cat, ds := benchCatalog(t, 50)
			if arm.flushed {
				flushAll(t, ds)
			}
			plan := benchPlanWith(t, cat, arm.opts)
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			// Prepare's snapshots froze the memtables, and their flushers
			// write them out in the background: the cost counts the
			// process's allocations, so it must not be read before they
			// are done. Runs waits out the last flush's tail (the log
			// truncation). The snapshots still read the frozen trees.
			for i := range ds.NumPartitions() {
				if err := ds.Partition(i).WaitForFlush(); err != nil {
					t.Fatal(err)
				}
				ds.Partition(i).Runs()
			}
			slab := make([]byte, 0, 16<<10)
			key := adm.AppendBinary(nil, adm.Int(12345))
			var dst []byte // lives as long as the slab, as a feed's does
			eval := func(rec adm.Value) (adm.Value, error) {
				dst = append(slab[:0], key...)
				row, err := pe.EvalRecord(rec, &dst)
				if err != nil {
					return row, err
				}
				if n, ok := adm.ViewAt(row, dst, len(key)); !ok || len(key)+n != len(dst) || unsafe.SliceData(dst) != unsafe.SliceData(slab) {
					t.Fatalf("the row is not written into the slab after the key: %d bytes written, view=%v", len(dst)-len(key), ok)
				}
				return row, nil
			}
			const narrow, wide = 100, 4100
			for _, rec := range tenFieldViews(wide)[:4] {
				want, err := pe.EvalRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eval(rec)
				if err != nil || !bytes.Equal(adm.AppendBinary(nil, got), adm.AppendBinary(nil, want)) {
					t.Fatalf("into the slab: %v (%v); apart: %v", got, err, want)
				}
			}
			na, nb := evalRecordCost(t, tenFieldViews(narrow), eval)
			wa, wb := evalRecordCost(t, tenFieldViews(wide), eval)
			t.Logf("%s: narrow: %.0f allocations, %.2f bytes; wide: %.0f allocations, %.2f bytes", plan.Describe()[0], na, nb, wa, wb)
			// The bytes are the process's over all rounds: below one a
			// record is none of the record's.
			if na != 0 || wa != 0 || nb >= 1 || wb >= 1 {
				t.Fatalf("%v allocations and %.2f bytes for a narrow record, %v and %.2f for a wide one; want none", na, nb, wa, wb)
			}
		})
	}
}

// TestPKPrepareAllocatesIndependentOfN: preparing Q1 pins SafetyRatings
// and builds nothing, so it allocates the same over 500 reference rows
// as over 5 000 — where the naive plan's hash table grows with them.
func TestPKPrepareAllocatesIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	prepareBytes := func(n int, opts PlanOptions) int64 {
		cat, ds := benchCatalog(t, n)
		flushAll(t, ds) // so no pin freezes a memtable the flusher then writes out
		plan := benchPlanWith(t, cat, opts)
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			if _, err := plan.Prepare(cat); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := prepareBytes(500, PlanOptions{}), prepareBytes(5_000, PlanOptions{})
	hash := prepareBytes(5_000, PlanOptions{DisableIndexes: true})
	t.Logf("Prepare: %d bytes over 500 rows, %d over 5 000; the hash table over 5 000: %d", small, large, hash)
	if large > small+512 || large > hash/20 {
		t.Fatalf("preparing a primary-key probe allocated %d bytes over 500 rows and %d over 5 000 (a hash build %d); want the same few", small, large, hash)
	}
}

// TestEvalRecordReturnsWhatTheBodyDenotes: pulling a query-block body's
// rows one by one returns what evaluating the body whole and unwrapping
// a one-element result returns — for bodies of zero, one and two rows,
// over the compiled probe or not, for a constant body and for bodies
// that are no query block — whether or not a destination is given, and
// only the body's own rows are written into it.
func TestEvalRecordReturnsWhatTheBodyDenotes(t *testing.T) {
	cat, _ := benchCatalog(t, 50)
	for _, tc := range []struct{ name, body string }{
		{"one row", `SELECT t.*, 1 AS one`},
		{"Q1", `LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE t.country = s.country_code) SELECT t.*, r`},
		{"no rows", `SELECT t.* WHERE t.id < 0`},
		{"two rows", `SELECT t.*, x FROM [1, 2] x`},
		{"two equal rows, distinct", `SELECT DISTINCT t.* FROM [1, 2] x`},
		{"one of two rows", `SELECT t.*, x FROM [1, 2] x LIMIT 1`},
		{"a probe's one row", `SELECT s.*, t.id AS tid FROM SafetyRatings s WHERE s.country_code = t.country`},
		{"a probe's no rows", `SELECT s.* FROM SafetyRatings s WHERE s.country_code = t.text`},
		{"a value row", `SELECT VALUE t`},
		{"a row with no star", `SELECT t.id AS id, t.country AS country`},
		{"a constant body", `SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = "C000001"`},
		{"an array of one", `[t]`},
		{"an array of two", `[t, t]`},
		{"an object", `{"id": t.id, "n": 1}`},
		{"a subquery", `(SELECT t.*, x FROM [1] x)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn, err := parseFunc(`CREATE FUNCTION f(t) { ` + tc.body + ` };`)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tenFieldViews(20)[:3] {
				// The body evaluated whole, a one-element result unwrapped.
				want, err := eval(evalState{ctx: pe.ctx, prepared: pe, depth: 1}, Bind(nil, "t", rec), fn.Body)
				if err != nil {
					t.Fatal(err)
				}
				if want.Kind() == adm.KindArray && len(want.ArrayVal()) == 1 {
					want = want.Index(0)
				}
				apart, err := pe.EvalRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				dst := append(make([]byte, 0, 4<<10), "key"...)
				into, err := pe.EvalRecord(rec, &dst)
				if err != nil {
					t.Fatal(err)
				}
				for _, got := range []adm.Value{apart, into} {
					if got.Kind() != want.Kind() || !bytes.Equal(adm.AppendBinary(nil, got), adm.AppendBinary(nil, want)) {
						t.Fatalf("EvalRecord = %v, the body denotes %v", got, want)
					}
				}
				// Whatever was written is the rows, one after another.
				rows := []adm.Value{into}
				if into.Kind() == adm.KindArray {
					rows = into.ArrayVal()
				}
				at := len("key")
				for _, row := range rows {
					if n, ok := adm.ViewAt(row, dst, at); ok {
						at += n
					}
				}
				if at != len(dst) {
					t.Fatalf("%d bytes written into the destination, %d of them the rows'", len(dst)-len("key"), at-len("key"))
				}
			}
		})
	}
}

// resultBytes is an EvalRecord result as bytes, or an error as its
// text, so the results of two states compare byte for byte.
func resultBytes(v adm.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(adm.AppendBinary(nil, v))
}

// TestEvalRecordKeptPipelinesMatchAFreshState: a state rewinds the
// pipelines of its body and probes for every record, so nothing one
// record leaves in them may reach the next. After a body that reached
// itself through the catalog, after a record whose body or probe failed
// mid-pipeline and after an EXISTS that stopped at its first candidate,
// every result — built apart or into a destination, and compared only
// once all are returned — matches a fresh state's byte for byte.
func TestEvalRecordKeptPipelinesMatchAFreshState(t *testing.T) {
	cat, _ := benchCatalog(t, 50)
	words := []adm.Value{obj("id", adm.Int(0), "grp", adm.String("k001"))}
	for i := 1; i <= 20; i++ {
		words = append(words, obj("id", adm.Int(int64(i)), "grp", adm.String("k020")))
	}
	cat.addDataset(t, "Words", "id", 3, words...)
	rec := func(id int, country, grp string, meta adm.Value) adm.Value {
		return adm.View(adm.AppendBinary(nil, obj("id", adm.Int(int64(id)), "country", adm.String(country),
			"grp", adm.String(grp), "meta", meta)))
	}
	meta := obj("m", adm.Int(1))
	a, b := rec(1, "C000001", "k020", meta), rec(2, "C000002", "k001", meta)
	const q1 = `LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = t.country) `
	for _, tc := range []struct {
		name, ddl string
		recs      []adm.Value
	}{
		{"a body that calls itself", `CREATE FUNCTION nest(t) { ` + q1 + `
			SELECT t.*, r, CASE WHEN t.id >= 0 THEN nest({"id": -1 - t.id, "country": "C000003"}) ELSE null END AS inner };`,
			[]adm.Value{a, b, a}},
		{"after a body that failed", `CREATE FUNCTION f(t) { ` + q1 + ` SELECT t.*, r };`,
			[]adm.Value{a, adm.Int(7), b, adm.Int(7), a}},
		{"after a probe that failed", `CREATE FUNCTION f(t) {
			LET r = (SELECT s.*, t.meta.* FROM SafetyRatings s WHERE s.country_code = t.country) SELECT t.*, r };`,
			[]adm.Value{a, rec(3, "C000001", "k020", adm.Int(5)), b, a}},
		{"after an EXISTS that stopped early", `CREATE FUNCTION f(t) {
			LET hit = EXISTS(SELECT w FROM Words w WHERE w.grp = t.grp) SELECT t.*, hit };`,
			[]adm.Value{a, b, rec(4, "C000004", "k999", meta), a, b}},
		{"the same record again, DISTINCT", `CREATE FUNCTION f(t) {
			LET r = (SELECT DISTINCT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = t.country)
			SELECT DISTINCT t.*, r };`,
			[]adm.Value{a, a, b, a}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn := cat.addSQLFunction(t, tc.ddl) // the plan shares the catalog's AST
			plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Describe()) != 1 || plan.Describe()[0] == "const" {
				t.Fatalf("plan = %v, want one compiled probe", plan.Describe())
			}
			kept, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			var want, apart, into []string
			var results []adm.Value
			for _, r := range tc.recs {
				fresh, err := plan.Prepare(cat)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, resultBytes(fresh.EvalRecord(r)))
				v, err := kept.EvalRecord(r)
				apart = append(apart, resultBytes(v, err))
				dst := append(make([]byte, 0, 4<<10), "key"...)
				w, err := kept.EvalRecord(r, &dst)
				into = append(into, resultBytes(w, err))
				results = append(results, v, w)
			}
			for i := range want {
				if apart[i] != want[i] || into[i] != want[i] {
					t.Fatalf("record %d: kept state %q apart, %q into a destination; a fresh state %q", i, apart[i], into[i], want[i])
				}
			}
			// Nothing returned earlier changed under the later records.
			for i, v := range results {
				if got := resultBytes(v, nil); !strings.HasPrefix(want[i/2], "error") && got != want[i/2] {
					t.Fatalf("result %d changed to %q after it was returned", i, got)
				}
			}
		})
	}
}

// TestEvalRecordKeptArraysMatchTheBody: the arrays a record's subqueries
// drain are carved from the record's scratch, which nothing rewinds
// while the record is enriched and putScratch clears once it is done. So
// bodies that keep one array while more are drained — two LETs, a
// subquery per element of an array field, several rows, an Object row
// (one the feed's router frames apart, frameRouter.add) — and a body
// whose library call stashes its argument (it carves nothing) return,
// apart and into a destination, what a fresh state returns and what the
// body evaluated whole denotes, byte for byte, compared once every
// result has been returned; and so they do with two goroutines sharing
// the state (the race arm, under -race).
func TestEvalRecordKeptArraysMatchTheBody(t *testing.T) {
	cat, _ := benchCatalog(t, 50)
	cat.natives["testlib#intact"] = stashIntact()
	var recs []adm.Value
	for i := range 6 {
		codes := adm.Array([]adm.Value{adm.String(fmt.Sprintf("C%06d", i+1)), adm.String("none"), adm.String(fmt.Sprintf("C%06d", 2*i))})
		rec := obj("id", adm.Int(int64(i)), "country", adm.String(fmt.Sprintf("C%06d", i)), "codes", codes)
		if i == 4 {
			recs = append(recs, rec) // a tree: no field is read off bytes
			continue
		}
		recs = append(recs, adm.View(adm.AppendBinary(nil, rec)))
	}
	const rating = `(SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = t.country)`
	const code = `(SELECT VALUE s.country_code FROM SafetyRatings s WHERE s.country_code = t.country)`
	for _, tc := range []struct{ name, body string }{
		{"two LETs", `LET r = ` + rating + `, c = ` + code + ` SELECT t.*, r, c`},
		{"a subquery per element", `SELECT t.*, (SELECT VALUE (SELECT VALUE s.safety_rating FROM SafetyRatings s
			WHERE s.country_code = e) FROM t.codes e) AS rs`},
		{"several rows", `LET r = ` + rating + ` SELECT t.*, r, x FROM [1, 2] x`},
		{"several Object rows", `LET r = ` + rating + `, c = ` + code + ` SELECT t.id AS id, r, c, x FROM [1, 2] x`},
		{"an Object row", `LET r = ` + rating + `, c = ` + code + ` SELECT t.id AS id, r, c`},
		{"an expression body", `{"r": ` + rating + `, "c": ` + code + `}`},
		{"a library call", `LET r = ` + rating + ` SELECT t.*, r, testlib#intact(r) AS intact`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn, err := parseFunc(`CREATE FUNCTION f(t) { ` + tc.body + ` };`)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			state := func() *PreparedEnrich {
				pe, err := plan.Prepare(cat)
				if err != nil {
					t.Fatal(err)
				}
				return pe
			}
			// What the body denotes, evaluated whole with no scratch, and
			// what a fresh state returns.
			denotes, fresh := make([]string, len(recs)), make([]string, len(recs))
			for i, rec := range recs {
				pe := state()
				v, err := eval(evalState{ctx: pe.ctx, prepared: pe, depth: 1}, Bind(nil, "t", rec), fn.Body)
				if err == nil && v.Kind() == adm.KindArray && len(v.ArrayVal()) == 1 {
					v = v.Index(0)
				}
				denotes[i] = resultBytes(v, err)
				fresh[i] = resultBytes(state().EvalRecord(rec))
				if fresh[i] != denotes[i] {
					t.Fatalf("record %d: a fresh state returns %q, the body denotes %q", i, fresh[i], denotes[i])
				}
			}
			enrich := func(pe *PreparedEnrich) []adm.Value {
				var got []adm.Value
				for range 3 {
					for _, rec := range recs {
						v, err := pe.EvalRecord(rec)
						if err != nil {
							t.Error(err)
							return nil
						}
						dst := append(make([]byte, 0, 4<<10), "key"...)
						w, err := pe.EvalRecord(rec, &dst)
						if err != nil {
							t.Error(err)
							return nil
						}
						got = append(got, v, w)
					}
				}
				return got
			}
			check := func(arm string, got []adm.Value) {
				t.Helper()
				for i, v := range got {
					if b := resultBytes(v, nil); b != denotes[i/2%len(recs)] {
						t.Fatalf("%s: result %d reads %q once all are returned; the body denotes %q", arm, i, b, denotes[i/2%len(recs)])
					}
				}
			}
			check("serial", enrich(state()))
			shared := state()
			var wg sync.WaitGroup
			got := make([][]adm.Value, 2)
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = enrich(shared)
				}()
			}
			wg.Wait()
			for g := range got {
				check(fmt.Sprintf("goroutine %d", g), got[g])
			}
		})
	}
}

// TestEvalRecordSharedAcrossPartitions: one state serves every
// evaluator partition of a job at once, each enriching into its own
// slab, and every row is the one a fresh state returns serially.
func TestEvalRecordSharedAcrossPartitions(t *testing.T) {
	cat, _ := benchCatalog(t, 50)
	recs := tenFieldViews(20)
	for _, tc := range []struct{ name, body, plan string }{
		{"Q1", `LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE t.country = s.country_code) SELECT t.*, r`,
			"pk(SafetyRatings), 0 residual(s)"},
		{"a probe with a residual", `LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s
			WHERE s.country_code = t.country AND (t.id % 2 = 0 OR s.safety_rating = "1")) SELECT t.*, r`,
			"pk(SafetyRatings), 1 residual(s)"},
		{"two rows", `SELECT t.*, x FROM [1, 2] x`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn, err := parseFunc(`CREATE FUNCTION f(t) { ` + tc.body + ` };`)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(plan.Describe(), "; "); got != tc.plan {
				t.Fatalf("plan = %q, want %q", got, tc.plan)
			}
			fresh, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(recs))
			for i, rec := range recs {
				want[i] = resultBytes(fresh.EvalRecord(rec))
			}
			shared, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			const partitions, rounds = 4, 3
			got := make([][]adm.Value, partitions)
			var wg sync.WaitGroup
			for p := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					slab := make([]byte, 0, 64<<10) // never regrown: every row is a view of it
					for range rounds {
						for _, rec := range recs {
							slab = append(slab, "key"...)
							row, err := shared.EvalRecord(rec, &slab)
							if err != nil {
								t.Error(err)
								return
							}
							got[p] = append(got[p], row)
						}
					}
				}()
			}
			wg.Wait()
			for p := range got {
				if len(got[p]) != rounds*len(recs) {
					t.Fatalf("partition %d enriched %d records, want %d", p, len(got[p]), rounds*len(recs))
				}
				for i, row := range got[p] {
					if b := resultBytes(row, nil); b != want[i%len(recs)] {
						t.Fatalf("partition %d, record %d: %q, serially on a fresh state %q", p, i, b, want[i%len(recs)])
					}
				}
			}
		})
	}
}

// TestPooledScratchPinsNothing: between records the state keeps the
// body's and the probe's pipelines and the room its subqueries' arrays
// were carved from, and a pooled scratch holds no record, candidate,
// carved array, projected row or destination — nothing that would keep
// a frame's slab or a block alive.
func TestPooledScratchPinsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	cat, _ := benchCatalog(t, 50)
	fn, err := parseFunc(`CREATE FUNCTION f(t) {
		LET r = (SELECT DISTINCT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = t.country)
		SELECT DISTINCT t.*, r };`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range tenFieldViews(20)[:3] {
		dst := make([]byte, 0, 4<<10)
		if _, err := pe.EvalRecord(rec, &dst); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := pe.scratch.Get().(*recordScratch)
	if s == nil {
		t.Skip("a collection emptied the pool")
	}
	zero := func(what string, v any) {
		if !reflect.ValueOf(v).IsZero() {
			t.Errorf("the pooled scratch holds %s: %v", what, v)
		}
	}
	zero("the record", s.param.val)
	if cap(s.rows.vals) == 0 {
		t.Errorf("the subquery's array was not carved from the scratch")
	}
	for _, v := range s.rows.vals[:cap(s.rows.vals)] {
		zero("a carved array's row", v)
	}
	for i, kp := range s.kept {
		if kp.rc == nil {
			t.Fatalf("pipeline %d was not kept", i)
		}
		for _, box := range kp.lets {
			zero("a LET's value", box.val)
		}
		zero("a destination", kp.rc.dst)
		if n := len(kp.rc.dedup.seen); n != 0 {
			t.Errorf("pipeline %d keeps %d DISTINCT rows", i, n)
		}
	}
	a := s.kept[1].rc.rows.(*tupleRows).inner.(*accessCursor)
	if !a.reuse {
		t.Errorf("a plain projection's probe binds a new env per candidate")
	}
	zero("a probe's outer tuple", a.env)
	zero("a probe key", a.key)
	zero("a candidate", a.box.val)
}

// BenchmarkEvalRecord prices the per-record probe phase of Q1 on a
// tweet-sized record as the feed hands it over (a view of its encoding:
// the row is spliced from bytes) and as a constructed tree (the row is
// an Object filled field by field).
func BenchmarkEvalRecord(b *testing.B) {
	cat, _ := benchCatalog(b, 50_000)
	pe, err := benchPlan(b, cat).Prepare(cat)
	if err != nil {
		b.Fatal(err)
	}
	trees := make([]adm.Value, 256)
	views := make([]adm.Value, len(trees))
	for i := range trees {
		trees[i] = tenFieldRecord(i, 300)
		views[i] = adm.View(adm.AppendBinary(nil, trees[i]))
	}
	for _, arm := range []struct {
		name string
		recs []adm.Value
	}{{"view", views}, {"tree", trees}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pe.EvalRecord(arm.recs[i%len(arm.recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
