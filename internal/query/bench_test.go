package query

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// benchCatalog builds a catalog with a SafetyRatings-shaped reference
// dataset of n rows.
func benchCatalog(b testing.TB, n int) (*testCatalog, *lsm.Dataset) {
	b.Helper()
	cat := newTestCatalog()
	ds := memDataset(b, "SafetyRatings", "country_code", 4, lsm.DefaultOptions())
	for i := 0; i < n; i++ {
		rec := adm.ObjectFromPairs(
			"country_code", adm.String(fmt.Sprintf("C%06d", i)),
			"safety_rating", adm.String(fmt.Sprintf("%d", i%5)),
		)
		if err := ds.Upsert(adm.ObjectValue(rec)); err != nil {
			b.Fatal(err)
		}
	}
	cat.datasets["SafetyRatings"] = ds
	return cat, ds
}

const q1DDL = `CREATE FUNCTION q1(t) {
	LET safety_rating = (SELECT VALUE s.safety_rating
		FROM SafetyRatings s WHERE t.country = s.country_code)
	SELECT t.*, safety_rating
};`

func benchPlan(b testing.TB, cat *testCatalog) *EnrichPlan {
	return benchPlanWith(b, cat, PlanOptions{})
}

// benchPlanWith compiles Q1 with opts: a probe of SafetyRatings' primary
// index, or with DisableIndexes the hash table it replaces.
func benchPlanWith(b testing.TB, cat *testCatalog, opts PlanOptions) *EnrichPlan {
	b.Helper()
	stmts, err := parseFunc(q1DDL)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileEnrich(stmts.Name, stmts.Params, stmts.Body, cat, opts)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// q1Arms are Q1's two access paths: the primary-key probe the planner
// picks, and the hash table of the naive plan.
var q1Arms = []struct {
	name string
	opts PlanOptions
}{{"pk", PlanOptions{}}, {"hash", PlanOptions{DisableIndexes: true}}}

// BenchmarkEnrichPrepare measures the per-batch build phase at 50k
// reference rows — the cost the paper's batch size amortizes: a pin for
// the primary-key probe, the reference scan and hash-table build for the
// naive plan. The ratings are flushed, as a loaded dataset's are.
func BenchmarkEnrichPrepare(b *testing.B) {
	cat, ds := benchCatalog(b, 50_000)
	flushAll(b, ds)
	for _, arm := range q1Arms {
		b.Run(arm.name, func(b *testing.B) {
			plan := benchPlanWith(b, cat, arm.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Prepare(cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnrichEvalRecord measures the per-record probe phase against
// prepared state, for random keys over 50k flushed reference rows: one
// Snapshot.Get per record for the primary-key probe (a cached block's
// binary search), a hash-chain walk for the naive plan.
func BenchmarkEnrichEvalRecord(b *testing.B) {
	cat, ds := benchCatalog(b, 50_000)
	flushAll(b, ds)
	r := rand.New(rand.NewSource(1))
	tweets := make([]adm.Value, 256)
	for i := range tweets {
		tweets[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(int64(i)),
			"country", adm.String(fmt.Sprintf("C%06d", r.Intn(50_000))),
		))
	}
	for _, arm := range q1Arms {
		b.Run(arm.name, func(b *testing.B) {
			pe, err := benchPlanWith(b, cat, arm.opts).Prepare(cat)
			if err != nil {
				b.Fatal(err)
			}
			for _, tw := range tweets { // warm the block cache
				if _, err := pe.EvalRecord(tw); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pe.EvalRecord(tweets[i%len(tweets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenericCallVsCompiled contrasts the generic per-record UDF
// call (which rescans the dataset: the paper's Model 1 shape) with the
// compiled probe, at a deliberately small reference size so the
// benchmark terminates quickly.
func BenchmarkGenericCallPerRecord(b *testing.B) {
	cat, _ := benchCatalog(b, 2_000)
	fn, err := parseFunc(q1DDL)
	if err != nil {
		b.Fatal(err)
	}
	cat.functions["q1"] = &Function{Name: fn.Name, Params: fn.Params, Body: fn.Body}
	tweet := adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(1), "country", adm.String("C000042")))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Call(cat, cat.functions["q1"], []adm.Value{tweet}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileEnrich measures UDF compilation (what predeployment
// caches).
func BenchmarkCompileEnrich(b *testing.B) {
	cat, _ := benchCatalog(b, 100)
	fn, err := parseFunc(q1DDL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, PlanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// parseFunc parses one CREATE FUNCTION for benchmarks.
func parseFunc(src string) (*Function, error) {
	stmts, err := sqlpp.Parse(src)
	if err != nil {
		return nil, err
	}
	cf := stmts[0].(*sqlpp.CreateFunction)
	return &Function{Name: cf.Name, Params: cf.Params, Body: cf.Body}, nil
}
