package query

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

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
		if row, err = projectRow(st, env, sel); err != nil {
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
	row, err := projectRow(st, Bind(Bind(nil, "t", view), "x", adm.Int(7)), sel)
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

// evalRecordCost reports the allocations and bytes one EvalRecord of Q1
// costs over recs.
func evalRecordCost(t testing.TB, pe *PreparedEnrich, recs []adm.Value) (allocs, bytes float64) {
	i := 0
	run := func() {
		if _, err := pe.EvalRecord(recs[i%len(recs)]); err != nil {
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
	views := func(filler int) []adm.Value {
		recs := make([]adm.Value, 64)
		for i := range recs {
			recs[i] = adm.View(adm.AppendBinary(nil, tenFieldRecord(i, filler)))
		}
		return recs
	}
	const narrow, wide = 100, 4100
	out, err := pe.EvalRecord(views(narrow)[3])
	if err != nil || out.Field("safety_rating").Kind() != adm.KindArray || out.Field("id").IntVal() != 3 {
		t.Fatalf("EvalRecord = %v, %v", out, err)
	}
	na, nb := evalRecordCost(t, pe, views(narrow))
	wa, wb := evalRecordCost(t, pe, views(wide))
	t.Logf("narrow: %.0f allocations, %.0f bytes; wide: %.0f allocations, %.0f bytes", na, nb, wa, wb)
	if na != wa || na > 14 {
		t.Fatalf("%v allocations for a narrow record, %v for a wide one; want the same, at most 14", na, wa)
	}
	// One copy of the record: the size classes a 4 KB row falls into round
	// up by at most an eighth.
	if grew := wb - nb; grew < wide-narrow || grew > (wide-narrow)*5/4 {
		t.Fatalf("%d more bytes of record cost %.0f more bytes allocated, want one copy", wide-narrow, grew)
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
