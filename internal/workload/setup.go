package workload

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
	"github.com/ideadb/idea/internal/udf"
)

// UDFNames are the eight paper use cases in evaluation order.
var UDFNames = []string{
	"enrichTweetQ1", // Safety Rating (hash join)
	"enrichTweetQ2", // Religious Population (group-by)
	"enrichTweetQ3", // Largest Religions (order-by)
	"enrichTweetQ4", // Fuzzy Suspects (similarity join)
	"enrichTweetQ5", // Nearby Monuments (index spatial join)
	"enrichTweetQ6", // Suspicious Names
	"enrichTweetQ7", // Tweet Context
	"enrichTweetQ8", // Worrisome Tweets
}

// UseCaseLabels maps UDF names to the paper's figure labels.
var UseCaseLabels = map[string]string{
	"enrichTweetQ1": "Safety Rating",
	"enrichTweetQ2": "Religious Population",
	"enrichTweetQ3": "Largest Religions",
	"enrichTweetQ4": "Fuzzy Suspects",
	"enrichTweetQ5": "Nearby Monuments",
	"enrichTweetQ6": "Suspicious Names",
	"enrichTweetQ7": "Tweet Context",
	"enrichTweetQ8": "Worrisome Tweets",
}

// ReferenceDatasets maps each UDF to the reference datasets it consults
// (the update experiment targets the first).
var ReferenceDatasets = map[string][]string{
	"enrichTweetQ1": {"SafetyRatings"},
	"enrichTweetQ2": {"ReligiousPopulations"},
	"enrichTweetQ3": {"ReligiousPopulations"},
	"enrichTweetQ4": {"SuspectsNames"},
	"enrichTweetQ5": {"monumentList"},
	"enrichTweetQ6": {"Facilities", "ReligiousBuildings", "SensitiveNames"},
	"enrichTweetQ7": {"AverageIncomes", "DistrictAreas", "Facilities", "Residents"},
	"enrichTweetQ8": {"ReligiousBuildings", "AttackEvents"},
}

// UDFDDL holds the CREATE FUNCTION statements for the eight use cases
// (paper Appendix A–H; Q3 uses DESC, a deliberate deviation; Q4's
// dataset is named SuspectsNames per Section 7.2).
const UDFDDL = `
CREATE FUNCTION enrichTweetQ1(t) {
	LET safety_rating = (SELECT VALUE s.safety_rating
		FROM SafetyRatings s
		WHERE t.country = s.country_code)
	SELECT t.*, safety_rating
};

CREATE FUNCTION enrichTweetQ2(t) {
	LET religious_population =
		(SELECT sum(r.population) FROM ReligiousPopulations r
		 WHERE r.country_name = t.country)[0]
	SELECT t.*, religious_population
};

CREATE FUNCTION enrichTweetQ3(t) {
	LET largest_religions =
		(SELECT VALUE r.religion_name
		 FROM ReligiousPopulations r
		 WHERE r.country_name = t.country
		 ORDER BY r.population DESC LIMIT 3)
	SELECT t.*, largest_religions
};

CREATE FUNCTION enrichTweetQ4(x) {
	LET related_suspects = (
		SELECT s.sensitiveName, s.religionName
		FROM SuspectsNames s
		WHERE edit_distance(
			testlib#removeSpecial(x.user.screen_name),
			s.sensitiveName) < 5)
	SELECT x.*, related_suspects
};

CREATE FUNCTION enrichTweetQ5(t) {
	LET nearby_monuments =
		(SELECT VALUE m.monument_id
		 FROM monumentList m
		 WHERE spatial_intersect(
			m.monument_location,
			create_circle(create_point(t.longitude, t.latitude), 1.5)))
	SELECT t.*, nearby_monuments
};

CREATE FUNCTION enrichTweetQ6(t) {
	LET nearby_facilities = (
		SELECT f.facility_type FacilityType, count(*) AS Cnt
		FROM Facilities f
		WHERE spatial_intersect(create_point(t.longitude, t.latitude),
			create_circle(f.facility_location, 3.0))
		GROUP BY f.facility_type),
	nearby_religious_buildings = (
		SELECT r.religious_building_id religious_building_id, r.religion_name religion_name
		FROM ReligiousBuildings r
		WHERE spatial_intersect(create_point(t.longitude, t.latitude),
			create_circle(r.building_location, 3.0))
		ORDER BY spatial_distance(create_point(t.longitude, t.latitude), r.building_location) LIMIT 3),
	suspicious_users_info = (
		SELECT s.suspicious_name_id suspect_id, s.religion_name AS religion, s.threat_level AS threat_level
		FROM SensitiveNames s
		WHERE s.suspicious_name = t.user.name)
	SELECT t.*, nearby_facilities, nearby_religious_buildings, suspicious_users_info
};

CREATE FUNCTION enrichTweetQ7(t) {
	LET area_avg_income = (
		SELECT VALUE a.average_income
		FROM AverageIncomes a, DistrictAreas d1
		WHERE a.district_area_id = d1.district_area_id
			AND spatial_intersect(create_point(t.longitude, t.latitude), d1.district_area)),
	area_facilities = (
		SELECT f.facility_type, count(*) AS Cnt
		FROM Facilities f, DistrictAreas d2
		WHERE spatial_intersect(f.facility_location, d2.district_area)
			AND spatial_intersect(create_point(t.longitude, t.latitude), d2.district_area)
		GROUP BY f.facility_type),
	ethnicity_dist = (
		SELECT ethnicity, count(*) AS EthnicityPopulation
		FROM Residents p, DistrictAreas d3
		WHERE spatial_intersect(create_point(t.longitude, t.latitude), d3.district_area)
			AND spatial_intersect(p.location, d3.district_area)
		GROUP BY p.ethnicity AS ethnicity)
	SELECT t.*, area_avg_income, area_facilities, ethnicity_dist
};

CREATE FUNCTION enrichTweetQ8(t) {
	LET nearby_religious_attacks = (
		SELECT r.religion_name AS religion, count(a.attack_record_id) AS attack_num
		FROM ReligiousBuildings r, AttackEvents a
		WHERE spatial_intersect(create_point(t.longitude, t.latitude),
				create_circle(r.building_location, 3.0))
			AND t.created_at < a.attack_datetime + duration("P2M")
			AND t.created_at > a.attack_datetime
			AND r.religion_name = a.related_religion
		GROUP BY r.religion_name)
	SELECT t.*, nearby_religious_attacks
};

CREATE FUNCTION tweetSafetyCheck(tweet) {
	LET safety_check_flag = CASE
		EXISTS(SELECT s FROM SensitiveWords s
			WHERE tweet.country = s.country AND contains(tweet.text, s.word))
		WHEN true THEN "Red" ELSE "Green" END
	SELECT tweet.*, safety_check_flag
};

CREATE FUNCTION USTweetSafetyCheck(tweet) {
	LET safety_check_flag =
		CASE tweet.country = "C000000" AND contains(tweet.text, "bomb")
		WHEN true THEN "Red" ELSE "Green" END
	SELECT tweet.*, safety_check_flag
};
`

// Setup installs the complete paper workload on a cluster: datatypes,
// tweet + reference datasets (loaded at the generator's sizes), the Q5
// spatial index, the namespaced native helper, and all UDFs. It returns
// the generator for tweet/update generation.
func Setup(c *cluster.Cluster, seed int64, sizes Sizes) (*Generator, error) {
	g := NewGenerator(seed, sizes)

	if err := c.CreateDatatype(TweetType()); err != nil {
		return nil, err
	}
	if _, err := c.CreateDataset("Tweets", "TweetType", "id"); err != nil {
		return nil, err
	}
	if _, err := c.CreateDataset("EnrichedTweets", "TweetType", "id"); err != nil {
		return nil, err
	}

	loaders := []struct {
		name string
		pk   string
		fill func(*lsm.Dataset) error
	}{
		{"SafetyRatings", "country_code", g.FillSafetyRatings},
		{"ReligiousPopulations", "rid", g.FillReligiousPopulations},
		{"SuspectsNames", "id", g.FillSuspectsNames},
		{"monumentList", "monument_id", g.FillMonumentList},
		{"ReligiousBuildings", "religious_building_id", g.FillReligiousBuildings},
		{"Facilities", "facility_id", g.FillFacilities},
		{"SensitiveNames", "suspicious_name_id", g.FillSensitiveNames},
		{"AverageIncomes", "district_area_id", g.FillAverageIncomes},
		{"DistrictAreas", "district_area_id", g.FillDistrictAreas},
		{"Residents", "person_id", g.FillResidents},
		{"AttackEvents", "attack_record_id", g.FillAttackEvents},
		{"SensitiveWords", "id", g.FillSensitiveWords},
	}
	for _, l := range loaders {
		ds, err := c.CreateDataset(l.name, "", l.pk)
		if err != nil {
			return nil, err
		}
		if err := l.fill(ds); err != nil {
			return nil, fmt.Errorf("workload: loading %s: %w", l.name, err)
		}
	}

	// The Q5 R-tree index (Nearby Monuments is an index join).
	if err := c.CreateIndex("monumentLocIdx", "monumentList", "monument_location", "RTREE"); err != nil {
		return nil, err
	}

	// The native helper Q4 calls from SQL++ (the paper's Figure 35).
	c.RegisterNative("testlib", "removeSpecial", RemoveSpecial)

	stmts, err := sqlpp.Parse(UDFDDL)
	if err != nil {
		return nil, err
	}
	for _, s := range stmts {
		cf, ok := s.(*sqlpp.CreateFunction)
		if !ok {
			return nil, fmt.Errorf("workload: unexpected statement %T in UDF DDL", s)
		}
		if err := c.CreateFunction(&query.Function{
			Name: cf.Name, Params: cf.Params, Body: cf.Body,
		}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// RemoveSpecial strips non-alphanumerics and lower-cases — the paper's
// Java UDF for cleaning screen names (Figure 35).
func RemoveSpecial(args []adm.Value) (adm.Value, error) {
	if len(args) != 1 || args[0].Kind() != adm.KindString {
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

// NativeUDFs builds the native ("Java") equivalents of the first five
// use cases for the paper's Static/Dynamic-with-Java comparisons: each
// loads its reference data from dataset snapshots at Initialize (the
// resource-file analog) and probes per record.
func NativeUDFs(c *cluster.Cluster) (*udf.Registry, error) {
	reg := udf.NewRegistry()
	for i, name := range []string{"enrichTweetQ1", "enrichTweetQ2", "enrichTweetQ3", "enrichTweetQ4", "enrichTweetQ5"} {
		fn, ok := c.Function(name)
		if !ok {
			return nil, fmt.Errorf("workload: %s not installed", name)
		}
		// The native implementation mirrors the SQL++ plan: it compiles
		// once and re-prepares at Initialize — exactly what a hand-written
		// Java UDF does with its in-memory tables, so the two attachments
		// share per-batch cost structure while exercising the native path.
		// A Java UDF loads its table whole, so the plan takes the naive
		// hint and builds a hash table where the SQL++ Q1 probes the
		// primary index; only Q5 keeps its index join.
		plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c,
			query.PlanOptions{DisableIndexes: name != "enrichTweetQ5"})
		if err != nil {
			return nil, err
		}
		nativeName := fmt.Sprintf("nativeQ%d", i+1)
		if err := reg.Register(&udf.Native{
			Name: nativeName,
			New: func() udf.Instance {
				return &nativeEnrich{cluster: c, plan: plan}
			},
		}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// nativeEnrich is the shared implementation of the native use-case UDFs.
type nativeEnrich struct {
	cluster  *cluster.Cluster
	plan     *query.EnrichPlan
	prepared *query.PreparedEnrich
}

// Initialize implements udf.Instance: (re)build state from current
// reference data.
func (n *nativeEnrich) Initialize(int) error {
	pe, err := n.plan.Prepare(n.cluster)
	if err != nil {
		return err
	}
	n.prepared = pe
	return nil
}

// Evaluate implements udf.Instance.
func (n *nativeEnrich) Evaluate(rec adm.Value) (adm.Value, error) {
	return n.prepared.EvalRecord(rec)
}

// StartUpdates launches the Section 7.3 update client: upserts into the
// named reference dataset at the given records/second rate until the
// returned stop function is called.
func StartUpdates(ctx context.Context, c *cluster.Cluster, g *Generator, dataset string, perSecond int) (stop func(), err error) {
	ds, ok := c.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("workload: unknown dataset %q", dataset)
	}
	if perSecond <= 0 {
		return func() {}, nil
	}
	updCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	// Apply updates in per-tick groups so high rates are deliverable
	// despite coarse timer resolution.
	interval := time.Second / time.Duration(perSecond)
	perTick := 1
	const minInterval = 2 * time.Millisecond
	if interval < minInterval {
		interval = minInterval
		perTick = int(time.Duration(perSecond) * minInterval / time.Second)
		if perTick < 1 {
			perTick = 1
		}
	}
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-updCtx.Done():
				return
			case <-ticker.C:
				for i := 0; i < perTick; i++ {
					rec, ok := g.UpdateRecord(dataset)
					if !ok {
						return
					}
					_ = ds.Upsert(rec)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}, nil
}
