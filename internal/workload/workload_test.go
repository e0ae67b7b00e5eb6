package workload

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/spatial"
)

func TestSizesScaling(t *testing.T) {
	paper := PaperSizes()
	if paper.SafetyRatings != 500_000 || paper.SensitiveNames != 1_000_000 {
		t.Errorf("paper sizes wrong: %+v", paper)
	}
	small := Scaled(0.001)
	if small.SafetyRatings != 500 || small.SuspectsNames != 5 {
		t.Errorf("scaled sizes wrong: %+v", small)
	}
	if small.DistrictArea < 4 {
		t.Error("district grid must stay 2-D")
	}
	tiny := Scaled(0.0000001)
	if tiny.SafetyRatings < 1 {
		t.Error("scaling must keep at least one record")
	}
	doubled := small.Multiply(2)
	if doubled.SafetyRatings != 1000 || doubled.Facilities != small.Facilities*2 {
		t.Errorf("Multiply wrong: %+v", doubled)
	}
}

func TestTweetGeneration(t *testing.T) {
	g := NewGenerator(1, Scaled(0.001))
	tweet := g.TweetJSON(42)
	// Round-number size check: the paper's tweets are ~450 bytes.
	if len(tweet) < 350 || len(tweet) > 550 {
		t.Errorf("tweet size = %d bytes, want ~450", len(tweet))
	}
	v, err := adm.ParseJSON(tweet)
	if err != nil {
		t.Fatalf("tweet is not valid JSON: %v", err)
	}
	if v.Field("id").IntVal() != 42 {
		t.Error("id wrong")
	}
	for _, field := range []string{"text", "country", "created_at"} {
		if v.Field(field).IsMissing() {
			t.Errorf("tweet missing %s", field)
		}
	}
	if v.Field("user").Field("screen_name").IsMissing() {
		t.Error("tweet missing user.screen_name")
	}
	// Tweets validate against the declared datatype (created_at coerces).
	validated, err := TweetType().Validate(v)
	if err != nil {
		t.Fatal(err)
	}
	if validated.Field("created_at").Kind() != adm.KindDateTime {
		t.Error("created_at not coerced")
	}
	// Determinism: same seed, same stream.
	g2 := NewGenerator(1, Scaled(0.001))
	if string(g2.TweetJSON(42)) != string(tweet) {
		t.Error("generation must be deterministic per seed")
	}
	// Batch helper.
	batch := g2.Tweets(100, 5)
	if len(batch) != 5 {
		t.Errorf("Tweets returned %d", len(batch))
	}
}

func newLoadedCluster(t *testing.T) (*cluster.Cluster, *Generator) {
	t.Helper()
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	c, err := cluster.New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Setup(c, 7, Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestSetupLoadsEverything(t *testing.T) {
	c, g := newLoadedCluster(t)
	sizes := g.sizes
	checks := map[string]int{
		"SafetyRatings":        sizes.SafetyRatings,
		"ReligiousPopulations": sizes.ReligiousPopulations,
		"SuspectsNames":        sizes.SuspectsNames,
		"monumentList":         sizes.MonumentList,
		"ReligiousBuildings":   sizes.ReligiousBuildings,
		"Facilities":           sizes.Facilities,
		"SensitiveNames":       sizes.SensitiveNames,
		"AverageIncomes":       g.IncomeRows(),
		"DistrictAreas":        sizes.DistrictArea,
		"Residents":            sizes.Residents,
		"AttackEvents":         sizes.AttackEvents,
		"SensitiveWords":       sizes.SensitiveWords,
	}
	for name, want := range checks {
		ds, ok := c.Dataset(name)
		if !ok {
			t.Errorf("dataset %s missing", name)
			continue
		}
		if got, err := ds.Len(); err != nil || got != want {
			t.Errorf("%s has %d records (%v), want %d", name, got, err, want)
		}
	}
	// All UDFs resolvable and compilable.
	for _, name := range UDFNames {
		fn, ok := c.Function(name)
		if !ok {
			t.Errorf("function %s missing", name)
			continue
		}
		if _, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{}); err != nil {
			t.Errorf("compile %s: %v", name, err)
		}
	}
	// The Q5 spatial index exists.
	ml, _ := c.Dataset("monumentList")
	if ml.RTreeIndexForField("monument_location") == nil {
		t.Error("monument location index missing")
	}
	// Reference-dataset map matches the catalog.
	for fn, refs := range ReferenceDatasets {
		for _, ref := range refs {
			if _, ok := c.Dataset(ref); !ok {
				t.Errorf("%s references unknown dataset %s", fn, ref)
			}
		}
	}
}

func TestEveryUDFEnrichesATweet(t *testing.T) {
	c, g := newLoadedCluster(t)
	for _, name := range UDFNames {
		fn, _ := c.Function(name)
		plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pe, err := plan.Prepare(c)
		if err != nil {
			t.Fatalf("%s prepare: %v", name, err)
		}
		tweet, err := adm.ParseJSON(g.TweetJSON(1))
		if err != nil {
			t.Fatal(err)
		}
		tweet, err = TweetType().Validate(tweet)
		if err != nil {
			t.Fatal(err)
		}
		out, err := pe.EvalRecord(tweet)
		if err != nil {
			t.Fatalf("%s eval: %v", name, err)
		}
		if out.Kind() != adm.KindObject {
			t.Fatalf("%s output kind = %v", name, out.Kind())
		}
		// The enriched record keeps the original fields.
		if out.Field("id").IntVal() != 1 {
			t.Errorf("%s lost the tweet id", name)
		}
		// And gains at least one new field.
		if out.ObjectVal().Len() <= tweet.ObjectVal().Len() {
			t.Errorf("%s added no fields", name)
		}
	}
}

func TestDistrictsTileTheWorld(t *testing.T) {
	const total = 24
	// Every point must fall in at least one district.
	for _, pt := range []spatial.Point{{X: 0, Y: 0}, {X: -179, Y: -89}, {X: 179, Y: 89}, {X: 42, Y: -13}} {
		found := false
		for i := 0; i < total; i++ {
			x1, y1, x2, y2 := DistrictRect(i, total)
			if (spatial.Rect{Min: spatial.Point{X: x1, Y: y1}, Max: spatial.Point{X: x2, Y: y2}}).Contains(pt) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("point %+v not covered by district grid", pt)
		}
	}
}

func TestUpdateRecords(t *testing.T) {
	g := NewGenerator(3, Scaled(0.001))
	for _, ds := range []string{"SafetyRatings", "ReligiousPopulations", "SuspectsNames", "monumentList", "ReligiousBuildings"} {
		rec, ok := g.UpdateRecord(ds)
		if !ok {
			t.Errorf("UpdateRecord(%s) unsupported", ds)
			continue
		}
		if rec.Kind() != adm.KindObject {
			t.Errorf("UpdateRecord(%s) kind = %v", ds, rec.Kind())
		}
	}
	if _, ok := g.UpdateRecord("NoSuchDataset"); ok {
		t.Error("unknown dataset should not produce updates")
	}
}

func TestStartUpdatesRate(t *testing.T) {
	c, g := newLoadedCluster(t)
	ds, _ := c.Dataset("SafetyRatings")
	before := ds.Stats().Upserts
	stop, err := StartUpdates(context.Background(), c, g, "SafetyRatings", 200)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	stop()
	delta := ds.Stats().Upserts - before
	// 200/s for 0.2s ≈ 40; accept a broad band (timers are coarse).
	if delta < 10 || delta > 80 {
		t.Errorf("update client applied %d upserts in 200ms at 200/s", delta)
	}
	// Stop is idempotent-ish: no more updates after stop.
	after := ds.Stats().Upserts
	time.Sleep(50 * time.Millisecond)
	if ds.Stats().Upserts != after {
		t.Error("updates continued after stop")
	}
	// Zero rate is a no-op.
	stop2, err := StartUpdates(context.Background(), c, g, "SafetyRatings", 0)
	if err != nil {
		t.Fatal(err)
	}
	stop2()
	// Unknown dataset errors.
	if _, err := StartUpdates(context.Background(), c, g, "Nope", 10); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestRemoveSpecial(t *testing.T) {
	out, err := RemoveSpecial([]adm.Value{adm.String("A-l_i!c3e")})
	if err != nil || out.StringVal() != "alic3e" {
		t.Errorf("RemoveSpecial = %v, %v", out, err)
	}
	if out, _ := RemoveSpecial([]adm.Value{adm.Int(5)}); !out.IsNull() {
		t.Error("non-string should yield null")
	}
}

func TestNativeUDFsMirrorSQLPP(t *testing.T) {
	c, g := newLoadedCluster(t)
	reg, err := NativeUDFs(c)
	if err != nil {
		t.Fatal(err)
	}
	native, ok := reg.Lookup("nativeQ1")
	if !ok {
		t.Fatal("nativeQ1 missing")
	}
	inst := native.New()
	if err := inst.Initialize(0); err != nil {
		t.Fatal(err)
	}
	tweet, _ := adm.ParseJSON(g.TweetJSON(5))
	tweet, _ = TweetType().Validate(tweet)
	nOut, err := inst.Evaluate(tweet)
	if err != nil {
		t.Fatal(err)
	}
	// Compare with the SQL++ plan.
	fn, _ := c.Function("enrichTweetQ1")
	plan, _ := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{})
	pe, _ := plan.Prepare(c)
	sOut, err := pe.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Equal(nOut, sOut) {
		t.Errorf("native and SQL++ outputs differ:\n%s\n%s", nOut, sOut)
	}
}

// TestUDFBodiesAgreeOverViewsAndTrees: each of the ten enrichment UDFs
// (`SELECT t.*, extra…`) returns the same record, byte for byte, when
// its tweet arrives as a view of its encoding — what a feed hands it,
// and the row is spliced from bytes — and as a parsed tree, where the
// row is an Object filled field by field.
func TestUDFBodiesAgreeOverViewsAndTrees(t *testing.T) {
	c, g := newLoadedCluster(t)
	names := append([]string{"tweetSafetyCheck", "USTweetSafetyCheck"}, UDFNames...)
	for _, name := range names {
		fn, ok := c.Function(name)
		if !ok {
			t.Fatalf("function %s missing", name)
		}
		plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pe, err := plan.Prepare(c)
		if err != nil {
			t.Fatalf("%s prepare: %v", name, err)
		}
		for id := int64(1); id <= 20; id++ {
			tree, err := adm.ParseJSON(g.TweetJSON(id))
			if err == nil {
				tree, err = TweetType().Validate(tree)
			}
			if err != nil {
				t.Fatal(err)
			}
			fromTree, err := pe.EvalRecord(tree)
			if err != nil {
				t.Fatalf("%s over a tree: %v", name, err)
			}
			fromView, err := pe.EvalRecord(adm.View(adm.AppendBinary(nil, tree)))
			if err != nil {
				t.Fatalf("%s over a view: %v", name, err)
			}
			a, b := adm.AppendBinary(nil, fromView), adm.AppendBinary(nil, fromTree)
			if !bytes.Equal(a, b) || !adm.Equal(fromView, fromTree) || adm.Hash(fromView) != adm.Hash(fromTree) {
				t.Fatalf("%s, tweet %d:\n over a view %v\n over a tree %v", name, id, fromView, fromTree)
			}
			if fromView.ObjectVal().Len() <= tree.ObjectVal().Len() {
				t.Fatalf("%s, tweet %d: nothing was added to the tweet", name, id)
			}
		}
	}
}
