// Package workload generates the paper's experimental data: a synthetic
// tweet firehose (~450 bytes/record, the paper's record size) and every
// reference dataset from Section 7, at paper scale or scaled down by a
// factor. Generation is deterministic per seed so experiments are
// reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// Sizes holds record counts for each reference dataset.
type Sizes struct {
	SafetyRatings        int // 500,000 × ~74 B (Q1)
	ReligiousPopulations int // 500,000 × ~137 B (Q2, Q3)
	SuspectsNames        int // 5,000 × ~150 B (Q4)
	MonumentList         int // 500,000 × ~94 B (Q5)
	ReligiousBuildings   int // 10,000 × ~205 B (Q6, Q8)
	Facilities           int // 50,000 × ~142 B (Q6, Q7)
	SensitiveNames       int // 1,000,000 × ~155 B (Q6)
	AverageIncome        int // 50,000 × ~99 B (Q7)
	DistrictArea         int // 500 × ~121 B (Q7)
	Residents            int // paper: 1,000,000,000 × ~124 B (Q7) — substituted, see docs/ARCHITECTURE.md
	AttackEvents         int // 5,000 × ~179 B (Q8)
	SensitiveWords       int // country/keyword list (UDF 2)
}

// PaperSizes returns the record counts from Section 7, except Residents,
// which the paper lists as 10⁹ and this reproduction caps at 500,000
// (the experiment needs "a reference dataset whose per-batch rebuild
// dominates", which the cap preserves; docs/ARCHITECTURE.md documents the
// substitution).
func PaperSizes() Sizes {
	return Sizes{
		SafetyRatings:        500_000,
		ReligiousPopulations: 500_000,
		SuspectsNames:        5_000,
		MonumentList:         500_000,
		ReligiousBuildings:   10_000,
		Facilities:           50_000,
		SensitiveNames:       1_000_000,
		AverageIncome:        50_000,
		DistrictArea:         500,
		Residents:            500_000,
		AttackEvents:         5_000,
		SensitiveWords:       1_000,
	}
}

// Scaled multiplies every size by f (minimum 1 record; DistrictArea
// minimum 4 so the district grid stays 2-D).
func Scaled(f float64) Sizes {
	s := PaperSizes()
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	s.SafetyRatings = scale(s.SafetyRatings)
	s.ReligiousPopulations = scale(s.ReligiousPopulations)
	s.SuspectsNames = scale(s.SuspectsNames)
	s.MonumentList = scale(s.MonumentList)
	s.ReligiousBuildings = scale(s.ReligiousBuildings)
	s.Facilities = scale(s.Facilities)
	s.SensitiveNames = scale(s.SensitiveNames)
	s.AverageIncome = scale(s.AverageIncome)
	s.DistrictArea = scale(s.DistrictArea)
	if s.DistrictArea < 4 {
		s.DistrictArea = 4
	}
	s.Residents = scale(s.Residents)
	s.AttackEvents = scale(s.AttackEvents)
	s.SensitiveWords = scale(s.SensitiveWords)
	return s
}

// Multiply scales all reference sizes by an integer factor (Fig 28's 2X,
// 3X, 4X reference-data scale-out).
func (s Sizes) Multiply(k int) Sizes {
	s.SafetyRatings *= k
	s.ReligiousPopulations *= k
	s.SuspectsNames *= k
	s.MonumentList *= k
	s.ReligiousBuildings *= k
	s.Facilities *= k
	s.SensitiveNames *= k
	s.AverageIncome *= k
	s.DistrictArea *= k
	s.Residents *= k
	s.AttackEvents *= k
	s.SensitiveWords *= k
	return s
}

// World is the coordinate plane data lives on.
const (
	worldMinX, worldMaxX = -180.0, 180.0
	worldMinY, worldMaxY = -90.0, 90.0
)

// Epoch is the fixed "now" of the workload (tweets and attack events are
// generated relative to it), keeping runs deterministic.
const Epoch = int64(1_566_550_245_000) // 2019-08-23T08:50:45Z

var religions = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

var sensitiveWords = []string{
	"bomb", "attack", "threat", "riot", "hostage", "coup", "raid",
	"siege", "ambush", "sabotage",
}

var fillerWords = []string{
	"sunny", "coffee", "match", "music", "travel", "launch", "garden",
	"recipe", "startup", "weekend", "library", "sunset", "football",
	"festival", "museum", "harbor",
}

var facilityTypes = []string{"school", "hospital", "stadium", "mall", "station", "park"}

// Generator produces the workload deterministically from a seed.
type Generator struct {
	rng   *rand.Rand
	sizes Sizes
	// countries is the size of the country-key space tweets draw from;
	// it equals the SafetyRatings cardinality so hash-join probes hit.
	countries int
}

// NewGenerator creates a generator for the given sizes.
func NewGenerator(seed int64, sizes Sizes) *Generator {
	countries := sizes.SafetyRatings
	if countries < 1 {
		countries = 1
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), sizes: sizes, countries: countries}
}

func (g *Generator) country(i int) string { return fmt.Sprintf("C%06d", i) }

func (g *Generator) randomCountry() string {
	return g.country(g.rng.Intn(g.countries))
}

func (g *Generator) point() (float64, float64) {
	x := worldMinX + g.rng.Float64()*(worldMaxX-worldMinX)
	y := worldMinY + g.rng.Float64()*(worldMaxY-worldMinY)
	return x, y
}

// tweetText composes ~15 words, occasionally containing a sensitive
// keyword so safety-check UDFs flag a realistic fraction of tweets.
func (g *Generator) tweetText() string {
	var b strings.Builder
	n := 12 + g.rng.Intn(6)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		if g.rng.Intn(10) == 0 {
			b.WriteString(sensitiveWords[g.rng.Intn(len(sensitiveWords))])
		} else {
			b.WriteString(fillerWords[g.rng.Intn(len(fillerWords))])
		}
	}
	return b.String()
}

// TweetJSON serializes one synthetic tweet (~450 bytes) with the given
// id. Field shapes match the paper's workload: country (hash-join key),
// text (keyword search), user names (similarity / exact-name joins),
// coordinates (spatial joins), created_at (temporal windows).
func (g *Generator) TweetJSON(id int64) []byte {
	lon, lat := g.point()
	nameID := g.rng.Intn(maxInt(g.sizes.SensitiveNames, 1))
	suspiciousID := g.rng.Intn(maxInt(g.sizes.SensitiveNames, 1))
	createdAt := Epoch - int64(g.rng.Intn(90*24*3600))*1000
	tweet := fmt.Sprintf(
		`{"id":%d,"text":"%s","country":"%s","user":{"screen_name":"u-ser_%06d!","name":"Name %06d"},"latitude":%.6f,"longitude":%.6f,"created_at":"%s","lang":"en","retweet_count":%d,"filler":"%s"}`,
		id, g.tweetText(), g.randomCountry(), nameID, suspiciousID,
		lat, lon, adm.FormatISODateTime(createdAt), g.rng.Intn(1000),
		strings.Repeat("x", 80))
	return []byte(tweet)
}

// Tweets generates n serialized tweets with ids [base, base+n).
func (g *Generator) Tweets(base int64, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.TweetJSON(base + int64(i))
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TweetType is the open datatype tweets are stored under (Figure 1 plus
// the typed fields enrichment needs).
func TweetType() *adm.Datatype {
	return adm.MustDatatype("TweetType", true, []adm.FieldDef{
		{Name: "id", Kind: adm.KindInt64},
		{Name: "text", Kind: adm.KindString},
		{Name: "country", Kind: adm.KindString, Optional: true},
		{Name: "latitude", Kind: adm.KindDouble, Optional: true},
		{Name: "longitude", Kind: adm.KindDouble, Optional: true},
		{Name: "created_at", Kind: adm.KindDateTime, Optional: true},
	})
}

// pad builds a filler string bringing a record to roughly the paper's
// per-record byte size.
func pad(n int) adm.Value {
	if n <= 0 {
		n = 1
	}
	return adm.String(strings.Repeat("p", n))
}

// fillChunk is how many rows a Fill loader hands Dataset.UpsertBatch at
// a time: one group commit per partition per chunk instead of one per row.
const fillChunk = 1024

// fill loads n rows into ds, row(i) building row i. Rows are built in
// order, so they draw from the generator's RNG as a row-at-a-time loop
// would, and are stored through Dataset.UpsertBatch in chunks.
func fill(ds *lsm.Dataset, n int, row func(i int) *adm.Object) error {
	batch := make([]adm.Value, 0, min(n, fillChunk))
	for i := 0; i < n; i++ {
		batch = append(batch, adm.ObjectValue(row(i)))
		if len(batch) == cap(batch) || i == n-1 {
			if err := ds.UpsertBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}

// FillSafetyRatings loads the Q1 reference dataset.
func (g *Generator) FillSafetyRatings(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.SafetyRatings, func(i int) *adm.Object {
		return adm.ObjectFromPairs(
			"country_code", adm.String(g.country(i)),
			"safety_rating", adm.String(fmt.Sprintf("%d", g.rng.Intn(5)+1)),
			"pad", pad(30),
		)
	})
}

// FillReligiousPopulations loads the Q2/Q3 reference dataset: one row
// per (country, religion).
func (g *Generator) FillReligiousPopulations(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.ReligiousPopulations, func(i int) *adm.Object {
		country := i / len(religions)
		return adm.ObjectFromPairs(
			"rid", adm.String(fmt.Sprintf("rp%08d", i)),
			"country_name", adm.String(g.country(country%g.countries)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"population", adm.Int(int64(g.rng.Intn(5_000_000))),
			"pad", pad(60),
		)
	})
}

// FillSuspectsNames loads the Q4 reference dataset (the paper's
// SensitiveNamesDataset for the fuzzy similarity join).
func (g *Generator) FillSuspectsNames(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.SuspectsNames, func(i int) *adm.Object {
		return adm.ObjectFromPairs(
			"id", adm.Int(int64(i)),
			"sensitiveName", adm.String(fmt.Sprintf("user%06d", i)),
			"religionName", adm.String(religions[i%len(religions)]),
			"pad", pad(70),
		)
	})
}

// FillMonumentList loads the Q5 reference dataset.
func (g *Generator) FillMonumentList(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.MonumentList, func(i int) *adm.Object {
		x, y := g.point()
		return adm.ObjectFromPairs(
			"monument_id", adm.String(fmt.Sprintf("m%08d", i)),
			"monument_location", adm.Point(x, y),
			"pad", pad(40),
		)
	})
}

// FillReligiousBuildings loads the Q6/Q8 reference dataset.
func (g *Generator) FillReligiousBuildings(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.ReligiousBuildings, func(i int) *adm.Object {
		x, y := g.point()
		return adm.ObjectFromPairs(
			"religious_building_id", adm.String(fmt.Sprintf("b%07d", i)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"building_location", adm.Point(x, y),
			"registered_believer", adm.Int(int64(g.rng.Intn(50_000))),
			"pad", pad(110),
		)
	})
}

// FillFacilities loads the Q6/Q7 reference dataset.
func (g *Generator) FillFacilities(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.Facilities, func(i int) *adm.Object {
		x, y := g.point()
		return adm.ObjectFromPairs(
			"facility_id", adm.String(fmt.Sprintf("f%07d", i)),
			"facility_location", adm.Point(x, y),
			"facility_type", adm.String(facilityTypes[g.rng.Intn(len(facilityTypes))]),
			"pad", pad(70),
		)
	})
}

// FillSensitiveNames loads the Q6 reference dataset (exact-name join).
func (g *Generator) FillSensitiveNames(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.SensitiveNames, func(i int) *adm.Object {
		return adm.ObjectFromPairs(
			"suspicious_name_id", adm.String(fmt.Sprintf("s%08d", i)),
			"suspicious_name", adm.String(fmt.Sprintf("Name %06d", i)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"threat_level", adm.Int(int64(g.rng.Intn(10))),
			"pad", pad(70),
		)
	})
}

// districtGrid computes the district tiling: cols × rows == n exactly
// (the most-square divisor pair), so the districts partition the whole
// world plane with no uncovered cells.
func districtGrid(n int) (cols, rows int) {
	rows = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return n / rows, rows
}

// DistrictRect returns district i's rectangle.
func DistrictRect(i, total int) (x1, y1, x2, y2 float64) {
	cols, rows := districtGrid(total)
	w := (worldMaxX - worldMinX) / float64(cols)
	h := (worldMaxY - worldMinY) / float64(rows)
	cx, cy := i%cols, i/cols
	x1 = worldMinX + float64(cx)*w
	y1 = worldMinY + float64(cy)*h
	return x1, y1, x1 + w, y1 + h
}

// FillDistrictAreas loads the Q7 district tiling.
func (g *Generator) FillDistrictAreas(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.DistrictArea, func(i int) *adm.Object {
		x1, y1, x2, y2 := DistrictRect(i, g.sizes.DistrictArea)
		return adm.ObjectFromPairs(
			"district_area_id", adm.String(fmt.Sprintf("d%05d", i)),
			"district_area", adm.Rectangle(x1, y1, x2, y2),
			"pad", pad(60),
		)
	})
}

// FillAverageIncomes loads the Q7 income table. It is keyed by
// district_area_id (the paper's schema), so its effective cardinality is
// capped at the district count; IncomeRows reports the loaded count.
func (g *Generator) FillAverageIncomes(ds *lsm.Dataset) error {
	return fill(ds, g.IncomeRows(), func(i int) *adm.Object {
		return adm.ObjectFromPairs(
			"district_area_id", adm.String(fmt.Sprintf("d%05d", i)),
			"average_income", adm.Double(20_000+g.rng.Float64()*90_000),
			"pad", pad(50),
		)
	})
}

// IncomeRows is the effective AverageIncomes cardinality: one row per
// district, bounded by the configured size.
func (g *Generator) IncomeRows() int {
	n := g.sizes.AverageIncome
	if n > g.sizes.DistrictArea {
		n = g.sizes.DistrictArea
	}
	return n
}

// FillResidents loads the Q7 resident sampling (see docs/ARCHITECTURE.md
// for the 10⁹ → scaled substitution).
func (g *Generator) FillResidents(ds *lsm.Dataset) error {
	ethnicities := []string{"e1", "e2", "e3", "e4", "e5", "e6"}
	return fill(ds, g.sizes.Residents, func(i int) *adm.Object {
		x, y := g.point()
		return adm.ObjectFromPairs(
			"person_id", adm.String(fmt.Sprintf("p%09d", i)),
			"ethnicity", adm.String(ethnicities[g.rng.Intn(len(ethnicities))]),
			"location", adm.Point(x, y),
			"pad", pad(50),
		)
	})
}

// FillAttackEvents loads the Q8 reference dataset: events in the two
// months before Epoch so the temporal window matches.
func (g *Generator) FillAttackEvents(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.AttackEvents, func(i int) *adm.Object {
		x, y := g.point()
		at := Epoch - int64(g.rng.Intn(75*24*3600))*1000
		return adm.ObjectFromPairs(
			"attack_record_id", adm.String(fmt.Sprintf("a%06d", i)),
			"attack_datetime", adm.DateTimeMillis(at),
			"attack_location", adm.Point(x, y),
			"related_religion", adm.String(religions[i%len(religions)]),
			"pad", pad(90),
		)
	})
}

// FillSensitiveWords loads the UDF-2 keyword list.
func (g *Generator) FillSensitiveWords(ds *lsm.Dataset) error {
	return fill(ds, g.sizes.SensitiveWords, func(i int) *adm.Object {
		return adm.ObjectFromPairs(
			"id", adm.Int(int64(i)),
			"country", adm.String(g.randomCountry()),
			"word", adm.String(sensitiveWords[i%len(sensitiveWords)]),
		)
	})
}

// UpdateRecord produces a fresh upsert for the named reference dataset —
// the Section 7.3 update client's payload.
func (g *Generator) UpdateRecord(dataset string) (adm.Value, bool) {
	switch dataset {
	case "SafetyRatings":
		return adm.ObjectValue(adm.ObjectFromPairs(
			"country_code", adm.String(g.randomCountry()),
			"safety_rating", adm.String(fmt.Sprintf("%d", g.rng.Intn(5)+1)),
			"pad", pad(30),
		)), true
	case "ReligiousPopulations":
		i := g.rng.Intn(maxInt(g.sizes.ReligiousPopulations, 1))
		return adm.ObjectValue(adm.ObjectFromPairs(
			"rid", adm.String(fmt.Sprintf("rp%08d", i)),
			"country_name", adm.String(g.country((i/len(religions))%g.countries)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"population", adm.Int(int64(g.rng.Intn(5_000_000))),
			"pad", pad(60),
		)), true
	case "SuspectsNames":
		i := g.rng.Intn(maxInt(g.sizes.SuspectsNames, 1))
		return adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(int64(i)),
			"sensitiveName", adm.String(fmt.Sprintf("user%06d", i)),
			"religionName", adm.String(religions[g.rng.Intn(len(religions))]),
			"pad", pad(70),
		)), true
	case "monumentList":
		i := g.rng.Intn(maxInt(g.sizes.MonumentList, 1))
		x, y := g.point()
		return adm.ObjectValue(adm.ObjectFromPairs(
			"monument_id", adm.String(fmt.Sprintf("m%08d", i)),
			"monument_location", adm.Point(x, y),
			"pad", pad(40),
		)), true
	case "ReligiousBuildings":
		i := g.rng.Intn(maxInt(g.sizes.ReligiousBuildings, 1))
		x, y := g.point()
		return adm.ObjectValue(adm.ObjectFromPairs(
			"religious_building_id", adm.String(fmt.Sprintf("b%07d", i)),
			"religion_name", adm.String(religions[i%len(religions)]),
			"building_location", adm.Point(x, y),
			"registered_believer", adm.Int(int64(g.rng.Intn(50_000))),
			"pad", pad(110),
		)), true
	}
	return adm.Value{}, false
}
