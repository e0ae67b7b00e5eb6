package query

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
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
// — what the feed's collector hands the evaluator — costs a small fixed
// number of allocations, and exactly one of them grows with the record:
// the enriched row's bytes. Nothing is decoded into a tree on the way.
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
	if na != wa || na > 12 {
		t.Fatalf("%v allocations for a narrow record, %v for a wide one; want the same, at most 12", na, wa)
	}
	// One copy of the record: the size classes a 4 KB row falls into round
	// up by at most an eighth.
	if grew := wb - nb; grew < wide-narrow || grew > (wide-narrow)*5/4 {
		t.Fatalf("%d more bytes of record cost %.0f more bytes allocated, want one copy", wide-narrow, grew)
	}
}

// TestEvalRecordIntoSlabAllocates: given a destination with room — the
// feed's slab, a key already in it — Q1's row over a view is written
// right after the key, and enriching a record costs fewer allocations
// than building the row apart (TestEvalRecordAllocations), none of which
// grows with the record.
func TestEvalRecordIntoSlabAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cat, _ := benchCatalog(t, 50)
	pe, err := benchPlan(t, cat).Prepare(cat)
	if err != nil {
		t.Fatal(err)
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
	t.Logf("narrow: %.0f allocations, %.0f bytes; wide: %.0f allocations, %.0f bytes", na, nb, wa, wb)
	if na != wa || na > 11 {
		t.Fatalf("%v allocations for a narrow record, %v for a wide one; want the same, at most 11", na, wa)
	}
	if grew := wb - nb; grew > 16 {
		t.Fatalf("%d more bytes of record cost %.0f more bytes allocated, want none", wide-narrow, grew)
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
