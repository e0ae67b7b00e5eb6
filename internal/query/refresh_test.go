package query

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// mustRefresh refreshes pe and reports whether the state was reused
// whole.
func mustRefresh(t *testing.T, pe *PreparedEnrich) (*PreparedEnrich, bool) {
	t.Helper()
	next, err := pe.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	return next, next == pe
}

func mustEval(t *testing.T, pe *PreparedEnrich, rec adm.Value) adm.Value {
	t.Helper()
	v, err := pe.EvalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRefreshReusesUntilReferenceDataChanges: an unchanged reference
// dataset means the same state object, a write of any kind means a
// successor that sees it, and the successor is reused in turn. Q1's
// hash table (the naive plan) is built once and patched per write; its
// primary-key probe builds and patches nothing.
func TestRefreshReusesUntilReferenceDataChanges(t *testing.T) {
	for _, arm := range []struct {
		name           string
		opts           PlanOptions
		built, patched int // by Prepare, by each refresh after a write
	}{{"hash", PlanOptions{DisableIndexes: true}, 1, 1}, {"pk", PlanOptions{}, 0, 0}} {
		t.Run(arm.name, func(t *testing.T) {
			cat := paperCatalog(t)
			plan := compilePaperUDF(t, cat, "enrichTweetQ1", arm.opts)
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			if pe.Built() != arm.built {
				t.Fatalf("Prepare built %d structures, want %d", pe.Built(), arm.built)
			}
			ds, _ := cat.Dataset("SafetyRatings")
			scansBefore := ds.Stats().Scans
			for i := 0; i < 3; i++ {
				var reused bool
				if pe, reused = mustRefresh(t, pe); !reused {
					t.Fatalf("refresh %d rebuilt state over unchanged data", i)
				}
			}
			if scans := ds.Stats().Scans; scans != scansBefore {
				t.Errorf("reuse took %d snapshots of the reference dataset", scans-scansBefore)
			}

			tweet := obj("id", adm.Int(1), "country", adm.String("US"))
			rating := func(pe *PreparedEnrich) string {
				arr := mustEval(t, pe, tweet).Field("safety_rating").ArrayVal()
				if len(arr) == 0 {
					return ""
				}
				return arr[0].StringVal()
			}
			writes := []struct {
				name string
				do   func()
				want string
			}{
				{"upsert", func() {
					ds.Upsert(obj("country_code", adm.String("US"), "safety_rating", adm.String("9")))
				}, "9"},
				{"delete", func() { ds.Delete(adm.String("US")) }, ""},
				{"insert", func() {
					if err := ds.Insert(obj("country_code", adm.String("US"), "safety_rating", adm.String("7"))); err != nil {
						t.Fatal(err)
					}
				}, "7"},
			}
			for _, w := range writes {
				w.do()
				next, reused := mustRefresh(t, pe)
				if reused {
					t.Fatalf("state reused across an acknowledged %s", w.name)
				}
				if next.Built() != 0 || next.Patched() != arm.patched {
					t.Errorf("after %s: built %d, patched %d structures; want none built, %d patched", w.name, next.Built(), next.Patched(), arm.patched)
				}
				if got := rating(next); got != w.want {
					t.Errorf("after %s: rating %q, want %q", w.name, got, w.want)
				}
				if _, reused := mustRefresh(t, next); !reused {
					t.Errorf("after %s: the successor was not reused", w.name)
				}
				pe = next
			}
		})
	}
}

// TestRefreshRebuildsOnlyWhatChanged: Q7 joins six accesses over four
// datasets, five of them structures built by Prepare and one a probe of
// AverageIncomes' primary index. Writing one dataset rebuilds exactly the
// accesses that read it — none for AverageIncomes, which is only pinned
// again — and the refreshed state answers like a full rebuild.
func TestRefreshRebuildsOnlyWhatChanged(t *testing.T) {
	cat := paperCatalog(t)
	plan := compilePaperUDF(t, cat, "enrichTweetQ7", PlanOptions{})
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Built() != 5 {
		t.Fatalf("Prepare built %d structures, want 5 (%v)", pe.Built(), plan.Describe())
	}
	r := rand.New(rand.NewSource(7))
	sameAsFullRebuild := func(pe *PreparedEnrich) {
		t.Helper()
		full, err := plan.Prepare(cat)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 50; i++ {
			tw := randomTweet(r, i)
			if got, want := mustEval(t, pe, tw), mustEval(t, full, tw); !equalUnordered(got, want) {
				t.Fatalf("tweet %d: patched state gives %v, full rebuild %v", i, got, want)
			}
		}
	}

	persons, _ := cat.Dataset("Persons")
	persons.Upsert(obj("person_id", adm.String("p-new"), "ethnicity", adm.String("e9"),
		"location", adm.Point(5, 5)))
	pe, reused := mustRefresh(t, pe)
	if reused || pe.Built() != 1 {
		t.Fatalf("after writing Persons: reused=%v built=%d, want one rebuilt access", reused, pe.Built())
	}
	sameAsFullRebuild(pe)

	districts, _ := cat.Dataset("DistrictAreas")
	districts.Delete(adm.String("d0"))
	pe, reused = mustRefresh(t, pe)
	if reused || pe.Built() != 3 {
		t.Fatalf("after writing DistrictAreas: reused=%v built=%d, want its three accesses rebuilt", reused, pe.Built())
	}
	sameAsFullRebuild(pe)

	incomes, _ := cat.Dataset("AverageIncomes")
	incomes.Upsert(obj("district_area_id", adm.String("d5"), "average_income", adm.Double(1)))
	pe, reused = mustRefresh(t, pe)
	if reused || pe.Built() != 0 || pe.Patched() != 0 {
		t.Fatalf("after writing AverageIncomes: reused=%v built=%d patched=%d, want it pinned again only", reused, pe.Built(), pe.Patched())
	}
	sameAsFullRebuild(pe)

	if _, reused := mustRefresh(t, pe); !reused {
		t.Error("nothing changed, yet the state was rebuilt")
	}
}

// TestRefreshConstSubquery: a const result is state like any other —
// carried over while the datasets its evaluation read are unchanged,
// recomputed once one of them is written. The primary-key probe beside
// it is pinned again when its dataset is written, and carried over when
// only the const's is.
func TestRefreshConstSubquery(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION riskAndRating(t) {
		LET risky = (SELECT VALUE s.country FROM SensitiveWords s),
		    safety_rating = (SELECT VALUE s.safety_rating FROM SafetyRatings s
		                     WHERE t.country = s.country_code)
		SELECT t.*, risky, safety_rating
	};`)
	plan := compilePaperUDF(t, cat, "riskAndRating", PlanOptions{})
	if got := strings.Join(plan.Describe(), "; "); got != "const; pk(SafetyRatings), 0 residual(s)" {
		t.Fatalf("plan = %s", got)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	tweet := obj("id", adm.Int(1), "country", adm.String("US"))
	before := len(mustEval(t, pe, tweet).Field("risky").ArrayVal())

	ratings, _ := cat.Dataset("SafetyRatings")
	ratings.Upsert(obj("country_code", adm.String("US"), "safety_rating", adm.String("9")))
	pe, _ = mustRefresh(t, pe)
	if pe.Built() != 0 || pe.Patched() != 0 {
		t.Fatalf("writing SafetyRatings built %d, patched %d structures; want none", pe.Built(), pe.Patched())
	}

	words, _ := cat.Dataset("SensitiveWords")
	words.Upsert(obj("id", adm.Int(99), "country", adm.String("ZZ"), "word", adm.String("x")))
	pe, _ = mustRefresh(t, pe)
	if pe.Built() != 1 {
		t.Fatalf("writing SensitiveWords built %d structures, want the const result only", pe.Built())
	}
	v := mustEval(t, pe, tweet)
	if got := len(v.Field("risky").ArrayVal()); got != before+1 {
		t.Errorf("const result has %d rows after the insert, want %d", got, before+1)
	}
	if got := v.Field("safety_rating").Index(0).StringVal(); got != "9" {
		t.Errorf("carried-over probe lost the earlier update: rating %q", got)
	}
}

// TestRefreshChecksDatasetIdentity: DROP + CREATE under the same name
// yields partitions whose LSNs can coincide with the old ones', so the
// stamp compares the dataset object too — for snapshot-backed accesses
// and for the live index-NLJ access alike.
func TestRefreshChecksDatasetIdentity(t *testing.T) {
	cat := paperCatalog(t)
	q1 := compilePaperUDF(t, cat, "enrichTweetQ1", PlanOptions{})
	q5 := compilePaperUDF(t, cat, "enrichTweetQ5", PlanOptions{})
	pe1, err := q1.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	pe5, err := q5.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}

	// Same keys (so the same routing and the same per-partition LSNs),
	// different ratings.
	old, _ := cat.Dataset("SafetyRatings")
	var rows []adm.Value
	sc := old.Scan()
	for _, rec, ok := sc.Next(); ok; _, rec, ok = sc.Next() {
		rows = append(rows, obj("country_code", rec.Field("country_code"), "safety_rating", adm.String("recreated")))
	}
	fresh := cat.addDataset(t, "SafetyRatings", "country_code", old.NumPartitions(), rows...)
	if !slices.Equal(fresh.Epoch(), old.Epoch()) {
		t.Fatalf("test needs coinciding epochs, got %v vs %v", fresh.Epoch(), old.Epoch())
	}
	pe1, reused := mustRefresh(t, pe1)
	if reused {
		t.Fatal("state reused across DROP + CREATE of its reference dataset")
	}
	tweet := obj("id", adm.Int(1), "country", adm.String("US"))
	if got := mustEval(t, pe1, tweet).Field("safety_rating").Index(0).StringVal(); got != "recreated" {
		t.Errorf("rating %q, want the re-created dataset's", got)
	}
	// Re-created under another primary key, the plan's primary-key probe
	// would look its keys up in the wrong index: the refresh refuses.
	cat.addDataset(t, "SafetyRatings", "safety_rating", 3, rows...)
	if _, err := pe1.Refresh(); err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Fatalf("Refresh over a dataset re-keyed by another field = %v, want a primary-key error", err)
	}

	// Index-NLJ pins nothing: live reads keep it current across writes…
	monuments, _ := cat.Dataset("monumentList")
	monuments.Upsert(obj("monument_id", adm.String("new"), "monument_location", adm.Point(100, 100)))
	pe5, reused = mustRefresh(t, pe5)
	if !reused {
		t.Error("index-NLJ state rebuilt after a write it reads live anyway")
	}
	// …but it holds the dataset object, which a re-create replaces.
	again := cat.addDataset(t, "monumentList", "monument_id", 3,
		obj("monument_id", adm.String("only"), "monument_location", adm.Point(100, 100)))
	if err := again.CreateSpatialIndex("mloc", "monument_location"); err != nil {
		t.Fatal(err)
	}
	pe5, reused = mustRefresh(t, pe5)
	if reused {
		t.Fatal("index-NLJ state reused across DROP + CREATE of its dataset")
	}
	at := obj("id", adm.Int(1), "latitude", adm.Double(100), "longitude", adm.Double(100))
	got := mustEval(t, pe5, at).Field("nearby_monuments")
	if len(got.ArrayVal()) != 1 || got.Index(0).StringVal() != "only" {
		t.Errorf("nearby_monuments = %v, want [only]", got)
	}
}

// TestRefreshSeesLazilyPinnedDatasets: a subquery the planner does not
// compile (it names an outer LET) pins its dataset at the first
// EvalRecord, after Prepare returned. That pin is stamped like the
// others and must end reuse when the dataset is written.
func TestRefreshSeesLazilyPinnedDatasets(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION lazyRating(t) {
		LET c = t.country,
		    safety_rating = (SELECT VALUE s.safety_rating FROM SafetyRatings s
		                     WHERE s.country_code = c)
		SELECT t.*, safety_rating
	};`)
	plan := compilePaperUDF(t, cat, "lazyRating", PlanOptions{})
	if d := plan.Describe(); len(d) != 0 {
		t.Fatalf("subquery was compiled after all: %v", d)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	tweet := obj("id", adm.Int(1), "country", adm.String("US"))
	rating := func(pe *PreparedEnrich) string {
		return mustEval(t, pe, tweet).Field("safety_rating").Index(0).StringVal()
	}
	before := rating(pe) // pins SafetyRatings
	if _, reused := mustRefresh(t, pe); !reused {
		t.Fatal("unchanged lazily pinned dataset forced a rebuild")
	}
	ds, _ := cat.Dataset("SafetyRatings")
	ds.Upsert(obj("country_code", adm.String("US"), "safety_rating", adm.String("9")))
	if got := rating(pe); got != before {
		t.Errorf("mid-batch write leaked into the pinned state: %q", got)
	}
	pe, reused := mustRefresh(t, pe)
	if reused {
		t.Fatal("state reused although a lazily pinned dataset was written")
	}
	if got := rating(pe); got != "9" {
		t.Errorf("rating %q after the refresh, want 9", got)
	}
}

// TestPrepareFailsOnRunReadFault: a reference run that cannot be read
// must fail the build. Once the scan ended early without a word, and
// Prepare returned a hash table missing most ratings. A primary-key
// access builds nothing, so Prepare and Refresh succeed, and the first
// probe into the unreadable run fails its record with the fault.
func TestPrepareFailsOnRunReadFault(t *testing.T) {
	for _, arm := range q1Arms {
		t.Run(arm.name, func(t *testing.T) {
			cat := paperCatalog(t)
			fsys := lsm.NewMemFS()
			ds, err := lsm.OpenDataset(fsys, "ratings", "SafetyRatings", nil, "country_code", 2,
				lsm.Options{MemBudget: 1 << 20, MaxComponents: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			for i := 0; i < 400; i++ {
				ds.Upsert(obj("country_code", adm.String(fmt.Sprintf("C%03d", i)), "safety_rating", adm.String("1")))
			}
			flushAll(t, ds)
			cat.datasets["SafetyRatings"] = ds
			plan := compilePaperUDF(t, cat, "enrichTweetQ1", arm.opts)
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatalf("healthy Prepare: %v", err)
			}
			tweet := obj("id", adm.Int(1), "country", adm.String("C123"))
			if got := mustEval(t, pe, tweet).Field("safety_rating"); len(got.ArrayVal()) != 1 {
				t.Fatalf("healthy enrichment: safety_rating = %v", got)
			}

			fsys.FailReads(true)
			if arm.name == "pk" {
				fresh, err := plan.Prepare(cat)
				if err != nil {
					t.Fatalf("Prepare of a primary-key probe read the device: %v", err)
				}
				for _, state := range []*PreparedEnrich{pe, fresh} {
					if v, err := state.EvalRecord(tweet); !errors.Is(err, lsm.ErrInjected) {
						t.Fatalf("a probe into an unreadable run returned %v, %v; want the read fault", v, err)
					}
				}
				ds.Upsert(obj("country_code", adm.String("C000"), "safety_rating", adm.String("2")))
				next, err := pe.Refresh()
				if err != nil || next.Built()+next.Patched() != 0 {
					t.Fatalf("Refresh = %v; want a re-pin that reads nothing", err)
				}
				if _, err := next.EvalRecord(tweet); !errors.Is(err, lsm.ErrInjected) {
					t.Fatalf("a probe after Refresh returned %v; want the read fault", err)
				}
				return
			}
			if _, err := plan.Prepare(cat); !errors.Is(err, lsm.ErrInjected) {
				t.Fatalf("Prepare over an unreadable run returned %v, want the read fault", err)
			}
			// The good state stays good for as long as the data is unchanged…
			if _, reused := mustRefresh(t, pe); !reused {
				t.Error("read fault on an unchanged dataset forced a rebuild")
			}
			// …and a refresh that does have to re-read fails like Prepare.
			ds.Upsert(obj("country_code", adm.String("C000"), "safety_rating", adm.String("2")))
			if _, err := pe.Refresh(); !errors.Is(err, lsm.ErrInjected) {
				t.Fatalf("Refresh over an unreadable run returned %v, want the read fault", err)
			}
		})
	}
}

// TestHashAccessChainsKeepScanOrder: a hash access stores its entries in
// chunks and chains the entries of one key in place. With a join key
// shared by hundreds of records spread over several chunks and two
// partitions, a probe must yield exactly the matching records, in the
// order a scan of the snapshots meets them, and the build must not pay
// for growth: it allocates the entries about once.
func TestHashAccessChainsKeepScanOrder(t *testing.T) {
	const n, groups = 3*hashChunk + 7, 5
	cat := newTestCatalog()
	recs := make([]adm.Value, n)
	for i := range recs {
		recs[i] = obj("id", adm.Int(int64(i)), "grp", adm.Int(int64(i%groups)))
	}
	ds := cat.addDataset(t, "Members", "id", 2, recs...)
	cat.addSQLFunction(t, `CREATE FUNCTION members(t) {
		LET ids = (SELECT VALUE m.id FROM Members m WHERE m.grp = t.grp)
		SELECT t.*, ids
	};`)
	plan := compilePaperUDF(t, cat, "members", PlanOptions{})
	if got := plan.Describe(); len(got) != 1 || !strings.HasPrefix(got[0], "hash(Members)") {
		t.Fatalf("plan %v, want one hash access", got)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g <= groups; g++ { // group 5 has no member
		var want []int64
		for _, snap := range ds.SnapshotAll() {
			snap.Scan(func(_, rec adm.Value) bool {
				if rec.Field("grp").IntVal() == int64(g) {
					want = append(want, rec.Field("id").IntVal())
				}
				return true
			})
		}
		var got []int64
		for _, v := range mustEval(t, pe, obj("id", adm.Int(0), "grp", adm.Int(int64(g)))).Field("ids").ArrayVal() {
			got = append(got, v.IntVal())
		}
		if !slices.Equal(got, want) {
			t.Errorf("group %d: %d ids %v…, want %d ids %v…", g, len(got), got[:min(len(got), 8)], len(want), want[:min(len(want), 8)])
		}
	}

	entryBytes := float64(n) * float64(unsafe.Sizeof(hashEntry{}))
	perBuild := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Prepare(cat); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	if float64(perBuild) > 2*entryBytes {
		t.Errorf("a build of %d entries (%.0f bytes) allocated %d bytes, want at most twice the entries", n, entryBytes, perBuild)
	}
}
