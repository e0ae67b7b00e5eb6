package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// paperCatalog builds small versions of every reference dataset from the
// paper's evaluation section plus all eight enrichment UDFs.
func paperCatalog(t *testing.T) *testCatalog {
	t.Helper()
	r := rand.New(rand.NewSource(2019))
	cat := newTestCatalog()

	countries := []string{"US", "FR", "DE", "BR", "IN", "CN", "JP", "MX", "GB", "IT"}
	religions := []string{"alpha", "beta", "gamma", "delta"}

	// SafetyRatings: country_code → safety_rating.
	var safety []adm.Value
	for _, c := range countries {
		safety = append(safety, obj(
			"country_code", adm.String(c),
			"safety_rating", adm.String(fmt.Sprintf("%d", r.Intn(5)+1))))
	}
	cat.addDataset(t, "SafetyRatings", "country_code", 3, safety...)

	// ReligiousPopulations.
	var pops []adm.Value
	i := 0
	for _, c := range countries {
		for _, rel := range religions {
			pops = append(pops, obj(
				"rid", adm.String(fmt.Sprintf("rp%d", i)),
				"country_name", adm.String(c),
				"religion_name", adm.String(rel),
				"population", adm.Int(int64(r.Intn(1_000_000)))))
			i++
		}
	}
	cat.addDataset(t, "ReligiousPopulations", "rid", 3, pops...)

	// SensitiveWords (UDF 2 / Fig 18).
	var words []adm.Value
	for i, w := range []string{"bomb", "attack", "threat", "riot", "coup", "hostage"} {
		words = append(words, obj(
			"id", adm.Int(int64(i)),
			"country", adm.String(countries[i%4]),
			"word", adm.String(w)))
	}
	cat.addDataset(t, "SensitiveWords", "id", 3, words...)

	// SensitiveNamesDataset (Q4 fuzzy suspects).
	var suspects []adm.Value
	for i := 0; i < 60; i++ {
		suspects = append(suspects, obj(
			"id", adm.Int(int64(i)),
			"sensitiveName", adm.String(fmt.Sprintf("user%02d", i)),
			"religionName", adm.String(religions[i%len(religions)])))
	}
	cat.addDataset(t, "SensitiveNamesDataset", "id", 3, suspects...)

	// monumentList (Q5) with a spatial index.
	var monuments []adm.Value
	for i := 0; i < 300; i++ {
		monuments = append(monuments, obj(
			"monument_id", adm.String(fmt.Sprintf("m%d", i)),
			"monument_location", adm.Point(r.Float64()*40, r.Float64()*40)))
	}
	mds := cat.addDataset(t, "monumentList", "monument_id", 3, monuments...)
	if err := mds.CreateSpatialIndex("mloc", "monument_location"); err != nil {
		t.Fatal(err)
	}

	// ReligiousBuildings (Q6, Q8).
	var buildings []adm.Value
	for i := 0; i < 80; i++ {
		buildings = append(buildings, obj(
			"religious_building_id", adm.String(fmt.Sprintf("b%d", i)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"building_location", adm.Point(r.Float64()*40, r.Float64()*40),
			"registered_believer", adm.Int(int64(r.Intn(5000)))))
	}
	cat.addDataset(t, "ReligiousBuildings", "religious_building_id", 3, buildings...)

	// Facilities (Q6, Q7).
	var facilities []adm.Value
	ftypes := []string{"school", "hospital", "stadium", "mall"}
	for i := 0; i < 150; i++ {
		facilities = append(facilities, obj(
			"facility_id", adm.String(fmt.Sprintf("f%d", i)),
			"facility_location", adm.Point(r.Float64()*40, r.Float64()*40),
			"facility_type", adm.String(ftypes[i%len(ftypes)])))
	}
	cat.addDataset(t, "Facilities", "facility_id", 3, facilities...)

	// SuspiciousNames (Q6).
	var sus []adm.Value
	for i := 0; i < 100; i++ {
		sus = append(sus, obj(
			"suspicious_name_id", adm.String(fmt.Sprintf("s%d", i)),
			"suspicious_name", adm.String(fmt.Sprintf("Name %02d", i%40)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"threat_level", adm.Int(int64(r.Intn(10)))))
	}
	cat.addDataset(t, "SuspiciousNames", "suspicious_name_id", 3, sus...)

	// DistrictAreas + AverageIncomes + Persons (Q7).
	var districts, incomes []adm.Value
	for i := 0; i < 16; i++ {
		x := float64(i%4) * 10
		y := float64(i/4) * 10
		id := fmt.Sprintf("d%d", i)
		districts = append(districts, obj(
			"district_area_id", adm.String(id),
			"district_area", adm.Rectangle(x, y, x+10, y+10)))
		incomes = append(incomes, obj(
			"district_area_id", adm.String(id),
			"average_income", adm.Double(20000+float64(r.Intn(80000)))))
	}
	cat.addDataset(t, "DistrictAreas", "district_area_id", 2, districts...)
	cat.addDataset(t, "AverageIncomes", "district_area_id", 2, incomes...)
	var persons []adm.Value
	eth := []string{"e1", "e2", "e3"}
	for i := 0; i < 200; i++ {
		persons = append(persons, obj(
			"person_id", adm.String(fmt.Sprintf("p%d", i)),
			"ethnicity", adm.String(eth[i%len(eth)]),
			"location", adm.Point(r.Float64()*40, r.Float64()*40)))
	}
	cat.addDataset(t, "Persons", "person_id", 3, persons...)

	// AttackEvents (Q8).
	var attacks []adm.Value
	base := int64(1_546_300_800_000) // 2019-01-01
	for i := 0; i < 50; i++ {
		attacks = append(attacks, obj(
			"attack_record_id", adm.String(fmt.Sprintf("a%d", i)),
			"attack_datetime", adm.DateTimeMillis(base+int64(i)*86_400_000),
			"attack_location", adm.Point(r.Float64()*40, r.Float64()*40),
			"related_religion", adm.String(religions[i%len(religions)])))
	}
	cat.addDataset(t, "AttackEvents", "attack_record_id", 3, attacks...)

	// Native function used by Q4.
	cat.natives["testlib#removeSpecial"] = func(args []adm.Value) (adm.Value, error) {
		if args[0].Kind() != adm.KindString {
			return adm.Null(), nil
		}
		s := strings.Map(func(r rune) rune {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
				return r
			}
			return -1
		}, args[0].StringVal())
		return adm.String(strings.ToLower(s)), nil
	}

	for _, ddl := range paperUDFs {
		cat.addSQLFunction(t, ddl)
	}
	return cat
}

// paperUDFs are the eight enrichment functions from the paper (Appendix
// A–H), with Q3's ORDER BY made DESC per the design note.
var paperUDFs = []string{
	`CREATE FUNCTION enrichTweetQ1(t) {
		LET safety_rating = (SELECT VALUE s.safety_rating
			FROM SafetyRatings s
			WHERE t.country = s.country_code)
		SELECT t.*, safety_rating
	};`,
	`CREATE FUNCTION enrichTweetQ2(t) {
		LET religious_population =
			(SELECT sum(r.population) FROM ReligiousPopulations r
			 WHERE r.country_name = t.country)[0]
		SELECT t.*, religious_population
	};`,
	`CREATE FUNCTION enrichTweetQ3(t) {
		LET largest_religions =
			(SELECT VALUE r.religion_name
			 FROM ReligiousPopulations r
			 WHERE r.country_name = t.country
			 ORDER BY r.population DESC LIMIT 3)
		SELECT t.*, largest_religions
	};`,
	`CREATE FUNCTION enrichTweetQ4(x) {
		LET related_suspects = (
			SELECT s.sensitiveName, s.religionName
			FROM SensitiveNamesDataset s
			WHERE edit_distance(
				testlib#removeSpecial(x.user.screen_name),
				s.sensitiveName) < 5)
		SELECT x.*, related_suspects
	};`,
	`CREATE FUNCTION enrichTweetQ5(t) {
		LET nearby_monuments =
			(SELECT VALUE m.monument_id
			 FROM monumentList m
			 WHERE spatial_intersect(
				m.monument_location,
				create_circle(create_point(t.latitude, t.longitude), 1.5)))
		SELECT t.*, nearby_monuments
	};`,
	`CREATE FUNCTION enrichTweetQ6(t) {
		LET nearby_facilities = (
			SELECT f.facility_type FacilityType, count(*) AS Cnt
			FROM Facilities f
			WHERE spatial_intersect(create_point(t.latitude, t.longitude),
				create_circle(f.facility_location, 3.0))
			GROUP BY f.facility_type),
		nearby_religious_buildings = (
			SELECT r.religious_building_id religious_building_id, r.religion_name religion_name
			FROM ReligiousBuildings r
			WHERE spatial_intersect(create_point(t.latitude, t.longitude),
				create_circle(r.building_location, 3.0))
			ORDER BY spatial_distance(create_point(t.latitude, t.longitude), r.building_location) LIMIT 3),
		suspicious_users_info = (
			SELECT s.suspicious_name_id suspect_id, s.religion_name AS religion, s.threat_level AS threat_level
			FROM SuspiciousNames s
			WHERE s.suspicious_name = t.user.name)
		SELECT t.*, nearby_facilities, nearby_religious_buildings, suspicious_users_info
	};`,
	`CREATE FUNCTION enrichTweetQ7(t) {
		LET area_avg_income = (
			SELECT VALUE a.average_income
			FROM AverageIncomes a, DistrictAreas d1
			WHERE a.district_area_id = d1.district_area_id
				AND spatial_intersect(create_point(t.latitude, t.longitude), d1.district_area)),
		area_facilities = (
			SELECT f.facility_type, count(*) AS Cnt
			FROM Facilities f, DistrictAreas d2
			WHERE spatial_intersect(f.facility_location, d2.district_area)
				AND spatial_intersect(create_point(t.latitude, t.longitude), d2.district_area)
			GROUP BY f.facility_type),
		ethnicity_dist = (
			SELECT ethnicity, count(*) AS EthnicityPopulation
			FROM Persons p, DistrictAreas d3
			WHERE spatial_intersect(create_point(t.latitude, t.longitude), d3.district_area)
				AND spatial_intersect(p.location, d3.district_area)
			GROUP BY p.ethnicity AS ethnicity)
		SELECT t.*, area_avg_income, area_facilities, ethnicity_dist
	};`,
	`CREATE FUNCTION enrichTweetQ8(t) {
		LET nearby_religious_attacks = (
			SELECT r.religion_name AS religion, count(a.attack_record_id) AS attack_num
			FROM ReligiousBuildings r, AttackEvents a
			WHERE spatial_intersect(create_point(t.latitude, t.longitude),
					create_circle(r.building_location, 3.0))
				AND t.created_at < a.attack_datetime + duration("P2M")
				AND t.created_at > a.attack_datetime
				AND r.religion_name = a.related_religion
			GROUP BY r.religion_name)
		SELECT t.*, nearby_religious_attacks
	};`,
}

func randomTweet(r *rand.Rand, id int64) adm.Value {
	countries := []string{"US", "FR", "DE", "BR", "IN", "CN", "JP", "MX", "GB", "IT"}
	texts := []string{
		"just a sunny day", "there was a bomb threat downtown",
		"attack on the title match", "lovely riot of colours",
		"hostage negotiation skills 101", "coffee and code",
	}
	return obj(
		"id", adm.Int(id),
		"text", adm.String(texts[r.Intn(len(texts))]),
		"country", adm.String(countries[r.Intn(len(countries))]),
		"user", obj(
			"screen_name", adm.String(fmt.Sprintf("u-ser_%02d!", r.Intn(80))),
			"name", adm.String(fmt.Sprintf("Name %02d", r.Intn(60)))),
		"latitude", adm.Double(r.Float64()*40),
		"longitude", adm.Double(r.Float64()*40),
		"created_at", adm.DateTimeMillis(1_546_300_800_000+int64(r.Intn(100))*86_400_000),
	)
}

func compilePaperUDF(t *testing.T, cat *testCatalog, name string, opts PlanOptions) *EnrichPlan {
	t.Helper()
	fn, ok := cat.Function(name)
	if !ok {
		t.Fatalf("udf %s not in catalog", name)
	}
	plan, err := CompileEnrich(fn.Name, fn.Params, fn.Body, cat, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return plan
}

// TestEnrichPlanShapes asserts the planner picks the access paths the
// paper's Section 4.3 analysis predicts.
func TestEnrichPlanShapes(t *testing.T) {
	cat := paperCatalog(t)
	cases := []struct {
		udf  string
		want []string
	}{
		{"enrichTweetQ1", []string{"pk(SafetyRatings)"}},
		{"enrichTweetQ2", []string{"hash(ReligiousPopulations)"}},
		{"enrichTweetQ3", []string{"hash(ReligiousPopulations)"}},
		{"enrichTweetQ4", []string{"scan(SensitiveNamesDataset)"}},
		{"enrichTweetQ5", []string{"indexnlj(monumentList.monument_location)"}},
		{"enrichTweetQ6", []string{"rtree(Facilities)", "rtree(ReligiousBuildings)", "hash(SuspiciousNames)"}},
		{"enrichTweetQ7", []string{"rtree(DistrictAreas) + pk(AverageIncomes)",
			"rtree(DistrictAreas) + rtree(Facilities)", "rtree(DistrictAreas) + rtree(Persons)"}},
		{"enrichTweetQ8", []string{"rtree(ReligiousBuildings) + hash(AttackEvents)"}},
	}
	for _, tc := range cases {
		plan := compilePaperUDF(t, cat, tc.udf, PlanOptions{})
		desc := plan.Describe()
		if len(desc) != len(tc.want) {
			t.Errorf("%s: %d compiled subqueries (%v), want %d", tc.udf, len(desc), desc, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.HasPrefix(desc[i], want) {
				t.Errorf("%s sub %d: plan %q, want prefix %q", tc.udf, i, desc[i], want)
			}
		}
	}
	// Naive variant: disabling indexes turns Q5's index-NLJ into a
	// per-batch R-tree build, and a probe of the primary index into a
	// per-batch hash table.
	for udf, want := range map[string]string{
		"enrichTweetQ1": "hash(SafetyRatings)",
		"enrichTweetQ5": "rtree(monumentList)",
		"enrichTweetQ7": "rtree(DistrictAreas) + hash(AverageIncomes)",
	} {
		naive := compilePaperUDF(t, cat, udf, PlanOptions{DisableIndexes: true})
		if !strings.HasPrefix(naive.Describe()[0], want) {
			t.Errorf("naive %s plan = %v, want prefix %q", udf, naive.Describe(), want)
		}
	}
}

// TestEnrichDifferential is the core correctness check: for every paper
// UDF, the compiled Prepare/EvalRecord path must produce exactly what
// generic evaluation of the same function produces, over many random
// tweets.
func TestEnrichDifferential(t *testing.T) {
	cat := paperCatalog(t)
	for _, udf := range []string{"enrichTweetQ1", "enrichTweetQ2", "enrichTweetQ3",
		"enrichTweetQ4", "enrichTweetQ5", "enrichTweetQ6", "enrichTweetQ7", "enrichTweetQ8"} {
		for _, disableIdx := range []bool{false, true} {
			plan := compilePaperUDF(t, cat, udf, PlanOptions{DisableIndexes: disableIdx})
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatalf("%s prepare: %v", udf, err)
			}
			fn, _ := cat.Function(udf)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 40; i++ {
				tweet := randomTweet(r, int64(i))
				got, err := pe.EvalRecord(tweet)
				if err != nil {
					t.Fatalf("%s EvalRecord: %v", udf, err)
				}
				want, err := CallFunction(evalState{ctx: NewContext(cat)}, fn, []adm.Value{tweet})
				if err != nil {
					t.Fatalf("%s generic: %v", udf, err)
				}
				// Generic path returns the 1-element collection; compiled
				// path unwraps it.
				if want.Kind() == adm.KindArray && len(want.ArrayVal()) == 1 {
					want = want.Index(0)
				}
				if !equalUnordered(got, want) {
					t.Fatalf("%s(disableIdx=%v) tweet %d mismatch:\n got: %s\nwant: %s",
						udf, disableIdx, i, got, want)
				}
			}
		}
	}
}

// equalUnordered compares values, treating arrays NOT produced by ORDER
// BY as multisets (probe order differs from scan order). Since we cannot
// know which arrays are ordered here, it falls back to multiset equality
// whenever direct equality fails.
func equalUnordered(a, b adm.Value) bool {
	if adm.Equal(a, b) {
		return true
	}
	if a.Kind() == adm.KindArray && b.Kind() == adm.KindArray {
		ae, be := a.ArrayVal(), b.ArrayVal()
		if len(ae) != len(be) {
			return false
		}
		used := make([]bool, len(be))
	outer:
		for _, av := range ae {
			for j, bv := range be {
				if !used[j] && equalUnordered(av, bv) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	}
	if a.Kind() == adm.KindObject && b.Kind() == adm.KindObject {
		ao, bo := a.ObjectVal(), b.ObjectVal()
		if ao.Len() != bo.Len() {
			return false
		}
		for i := 0; i < ao.Len(); i++ {
			bv, ok := bo.Get(ao.Name(i))
			if !ok || !equalUnordered(ao.At(i), bv) {
				return false
			}
		}
		return true
	}
	return false
}

// TestEnrichSeesUpdatesPerBatch verifies the paper's central semantics:
// a prepared invocation is pinned to its snapshot; the *next* Prepare
// observes reference-data updates.
func TestEnrichSeesUpdatesPerBatch(t *testing.T) {
	cat := paperCatalog(t)
	plan := compilePaperUDF(t, cat, "enrichTweetQ1", PlanOptions{})
	pe1, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	tweet := obj("id", adm.Int(1), "country", adm.String("US"))
	before, err := pe1.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}

	// Update the US safety rating mid-batch.
	ds, _ := cat.Dataset("SafetyRatings")
	if err := ds.Upsert(obj("country_code", adm.String("US"), "safety_rating", adm.String("9"))); err != nil {
		t.Fatal(err)
	}

	// Same invocation: still the old value (snapshot isolation).
	again, err := pe1.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Equal(before.Field("safety_rating"), again.Field("safety_rating")) {
		t.Error("mid-batch update leaked into a prepared invocation")
	}

	// Next invocation: sees the update.
	pe2, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	after, err := pe2.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Field("safety_rating").Index(0).StringVal(); got != "9" {
		t.Errorf("next batch should see update, got %v", after.Field("safety_rating"))
	}
}

// TestEnrichIndexNLJSeesLiveUpdates: the index-NLJ anchor reads the
// dataset live (the paper's Nearby Monuments probes the index
// throughout the job), so even the same invocation sees new monuments.
func TestEnrichIndexNLJSeesLiveUpdates(t *testing.T) {
	cat := paperCatalog(t)
	plan := compilePaperUDF(t, cat, "enrichTweetQ5", PlanOptions{})
	if !strings.HasPrefix(plan.Describe()[0], "indexnlj") {
		t.Fatalf("expected index plan, got %v", plan.Describe())
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	tweet := obj("id", adm.Int(1), "latitude", adm.Double(100), "longitude", adm.Double(100))
	v, err := pe.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.Field("nearby_monuments").ArrayVal()); n != 0 {
		t.Fatalf("no monuments expected at (100,100), got %d", n)
	}
	ds, _ := cat.Dataset("monumentList")
	if err := ds.Upsert(obj("monument_id", adm.String("new"),
		"monument_location", adm.Point(100, 100))); err != nil {
		t.Fatal(err)
	}
	v, err = pe.EvalRecord(tweet)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.Field("nearby_monuments").ArrayVal()); n != 1 {
		t.Errorf("index-NLJ should see live insert, got %d monuments", n)
	}
}

// TestEnrichConstSubquery: the Fig 18 pattern — a fully-uncorrelated
// subquery is evaluated once per batch.
func TestEnrichConstSubquery(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION highRiskTweetCheck(t) {
		LET high_risk_flag = CASE
			t.country IN (SELECT VALUE s.country
				FROM SensitiveWords s
				GROUP BY s.country
				ORDER BY count(s) DESC
				LIMIT 10)
			WHEN true THEN "Red" ELSE "Green" END
		SELECT t.*, high_risk_flag
	};`)
	plan := compilePaperUDF(t, cat, "highRiskTweetCheck", PlanOptions{})
	desc := plan.Describe()
	if len(desc) != 1 || desc[0] != "const" {
		t.Fatalf("plan = %v, want [const]", desc)
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	// US is in SensitiveWords' countries.
	v, err := pe.EvalRecord(obj("id", adm.Int(1), "country", adm.String("US")))
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("high_risk_flag").StringVal() != "Red" {
		t.Errorf("US should be high risk: %v", v)
	}
	v, _ = pe.EvalRecord(obj("id", adm.Int(2), "country", adm.String("IT")))
	if v.Field("high_risk_flag").StringVal() != "Green" {
		t.Errorf("IT should be green: %v", v)
	}
}

// TestEnrichExistsUDF2: the paper's UDF 2 (EXISTS + contains residual)
// compiles to a hash anchor and early-terminates.
func TestEnrichExistsUDF2(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION tweetSafetyCheck(tweet) {
		LET safety_check_flag = CASE
			EXISTS(SELECT s FROM SensitiveWords s
				WHERE tweet.country = s.country AND contains(tweet.text, s.word))
			WHEN true THEN "Red" ELSE "Green" END
		SELECT tweet.*, safety_check_flag
	};`)
	plan := compilePaperUDF(t, cat, "tweetSafetyCheck", PlanOptions{})
	if !strings.HasPrefix(plan.Describe()[0], "hash(SensitiveWords)") {
		t.Fatalf("plan = %v", plan.Describe())
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pe.EvalRecord(obj("id", adm.Int(1), "country", adm.String("US"),
		"text", adm.String("a bomb went off")))
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("safety_check_flag").StringVal() != "Red" {
		t.Errorf("expected Red, got %v", v)
	}
	v, _ = pe.EvalRecord(obj("id", adm.Int(2), "country", adm.String("US"),
		"text", adm.String("nice weather")))
	if v.Field("safety_check_flag").StringVal() != "Green" {
		t.Errorf("expected Green, got %v", v)
	}
}

// TestCompiledExistsStopsAtFirstCandidate: EXISTS over a compiled probe
// is the probe's pipeline pulled once, and the probe draws a candidate
// only when it is pulled. An index-NLJ probe that finds fifty keys reads
// one record; a hash probe costs the same whether its key's chain holds
// one row or two hundred.
func TestCompiledExistsStopsAtFirstCandidate(t *testing.T) {
	compile := func(t *testing.T, cat *testCatalog, ddl, want string) *PreparedEnrich {
		t.Helper()
		plan := compilePaperUDF(t, cat, cat.addSQLFunction(t, ddl).Name, PlanOptions{})
		if d := plan.Describe(); len(d) != 1 || !strings.HasPrefix(d[0], want) {
			t.Fatalf("plan = %v, want %s", d, want)
		}
		pe, err := plan.Prepare(cat)
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}

	t.Run("index-NLJ", func(t *testing.T) {
		cat := newTestCatalog()
		var monuments []adm.Value
		for i := range 50 {
			monuments = append(monuments, obj("id", adm.Int(int64(i)), "loc", adm.Point(10, 10)))
		}
		ds := cat.addDataset(t, "Monuments", "id", 3, monuments...)
		if err := ds.CreateSpatialIndex("mloc", "loc"); err != nil {
			t.Fatal(err)
		}
		const near = `WHERE spatial_intersect(m.loc, create_circle(create_point(t.x, t.y), 1.0))`
		exists := compile(t, cat, `CREATE FUNCTION anyNear(t) {
			LET near = EXISTS(SELECT m FROM Monuments m `+near+`)
			SELECT t.*, near };`, "indexnlj(Monuments.loc)")
		all := compile(t, cat, `CREATE FUNCTION allNear(t) {
			LET near = (SELECT VALUE m.id FROM Monuments m `+near+`)
			SELECT t.*, near };`, "indexnlj(Monuments.loc)")
		tweet := obj("id", adm.Int(1), "x", adm.Double(10), "y", adm.Double(10))
		for _, tc := range []struct {
			pe   *PreparedEnrich
			gets uint64
		}{{exists, 1}, {all, 50}} {
			before := ds.Stats().Gets
			v, err := tc.pe.EvalRecord(tweet)
			if err != nil {
				t.Fatal(err)
			}
			if got := ds.Stats().Gets - before; got != tc.gets {
				t.Errorf("%s read %d records, want %d (near = %v)", tc.pe.plan.Name, got, tc.gets, v.Field("near"))
			}
		}
	})

	t.Run("hash", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates")
		}
		cat := newTestCatalog()
		words := []adm.Value{obj("id", adm.Int(0), "grp", adm.String("k001"))}
		for i := 1; i <= 200; i++ {
			words = append(words, obj("id", adm.Int(int64(i)), "grp", adm.String("k200")))
		}
		cat.addDataset(t, "Words", "id", 3, words...)
		pe := compile(t, cat, `CREATE FUNCTION flagged(t) {
			LET hit = EXISTS(SELECT w FROM Words w WHERE w.grp = t.grp)
			SELECT t.*, hit };`, "hash(Words)")
		cost := func(grp string) float64 {
			rec := obj("id", adm.Int(1), "grp", adm.String(grp))
			if v, err := pe.EvalRecord(rec); err != nil || !v.Field("hit").BoolVal() {
				t.Fatalf("EvalRecord = %v, %v", v, err)
			}
			return testing.AllocsPerRun(100, func() {
				if _, err := pe.EvalRecord(rec); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := cost("k001"), cost("k200"); one != many {
			t.Fatalf("EXISTS over a chain of 1 row cost %v allocations, of 200 rows %v", one, many)
		}
	})
}

// TestEnrichStatelessUDF1: a stateless UDF compiles with no subplans and
// never touches the catalog during EvalRecord.
func TestEnrichStatelessUDF1(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION USTweetSafetyCheck(tweet) {
		LET safety_check_flag =
			CASE tweet.country = "US" AND contains(tweet.text, "bomb")
			WHEN true THEN "Red" ELSE "Green" END
		SELECT tweet.*, safety_check_flag
	};`)
	plan := compilePaperUDF(t, cat, "USTweetSafetyCheck", PlanOptions{})
	if len(plan.Describe()) != 0 {
		t.Fatalf("stateless UDF should compile no subplans: %v", plan.Describe())
	}
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pe.EvalRecord(obj("id", adm.Int(1), "country", adm.String("US"),
		"text", adm.String("bomb scare")))
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("safety_check_flag").StringVal() != "Red" {
		t.Errorf("UDF 1 = %v", v)
	}
}

// TestKeepsNoInput: a body that calls only builtins and aggregates keeps
// nothing of its input; a library call anywhere in it (Q4's sits inside a
// builtin's arguments in a subquery's WHERE), or a call to a catalog UDF,
// may.
func TestKeepsNoInput(t *testing.T) {
	cat := paperCatalog(t)
	cat.addSQLFunction(t, `CREATE FUNCTION callsQ1(t) { SELECT VALUE enrichTweetQ1(t) };`)
	cat.addSQLFunction(t, `CREATE FUNCTION libLast(t) {
		LET n = count(t.tags)
		SELECT t.*, n, lower(t.text) AS a, testlib#removeSpecial(t.text) AS b, upper(t.text) AS c
	};`)
	for name, want := range map[string]bool{
		"enrichTweetQ1": true, "enrichTweetQ2": true, "enrichTweetQ3": true, "enrichTweetQ4": false,
		"enrichTweetQ5": true, "enrichTweetQ6": true, "enrichTweetQ7": true, "enrichTweetQ8": true,
		"callsQ1": false, "libLast": false,
	} {
		if got := compilePaperUDF(t, cat, name, PlanOptions{}).KeepsNoInput(); got != want {
			t.Errorf("%s: KeepsNoInput = %v, want %v", name, got, want)
		}
	}
}

func TestCompileEnrichRejectsMultiParam(t *testing.T) {
	cat := paperCatalog(t)
	e, _ := sqlpp.ParseExpr(`a + b`)
	if _, err := CompileEnrich("f", []string{"a", "b"}, e, cat, PlanOptions{}); err == nil {
		t.Error("multi-parameter UDF must be rejected for enrichment")
	}
}

func TestEnrichEvalRecordConcurrent(t *testing.T) {
	cat := paperCatalog(t)
	plan := compilePaperUDF(t, cat, "enrichTweetQ6", PlanOptions{})
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if _, err := pe.EvalRecord(randomTweet(r, int64(i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
