package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The generator is the only source of inputs: everything the engine
// receives — tweet bytes, reference rows, the update schedule, the
// statement sequences — is derived from the run's seed before the
// clock starts, together with the expectations the output checks
// compare against.

const (
	// poolSize is the number of distinct tweet bodies. Record i is
	// `{"id":i` followed by body i%poolSize, so ids are unique while
	// generation stays cheap enough to happen on the sender goroutine.
	poolSize = 100_000
	// refRows is the SafetyRatings cardinality: the per-batch
	// Prepare rebuilds a hash table over all of it, which is what makes
	// the enrichment workloads' refresh period expensive.
	refRows = 50_000
	// rowsPerCountry sizes the country key space tweets draw from so an
	// index probe on one country returns about this many rows.
	rowsPerCountry = 100
	// retweetLimit bounds retweet_count; the `limit` statement filters
	// on the upper half of the range.
	retweetLimit = 1_000_000
)

var langs = [...]string{"en", "es", "pt", "ja", "ar", "fr", "tr", "id"}

var words = []string{
	"sunny", "coffee", "match", "music", "travel", "launch", "garden",
	"recipe", "startup", "weekend", "library", "sunset", "football",
	"festival", "museum", "harbor", "storm", "riot", "siege", "raid",
}

// body is one pooled tweet: the JSON after the id, plus the attributes
// the expectations are computed from.
type body struct {
	tail     []byte
	country  int32
	retweets int32
	lang     uint8
}

func countryCode(i int) string { return "C" + fmt.Sprintf("%06d", i) }

// genPool builds the tweet body pool. countries is the size of the key
// space in use (≤ refRows so every tweet finds its rating).
func genPool(rng *rand.Rand, countries int) []body {
	pool := make([]body, poolSize)
	buf := make([]byte, 0, 512)
	for i := range pool {
		b := &pool[i]
		b.country = int32(rng.Intn(countries))
		b.retweets = int32(rng.Intn(retweetLimit))
		b.lang = uint8(rng.Intn(len(langs)))
		buf = append(buf[:0], `,"text":"`...)
		for w, n := 0, 12+rng.Intn(6); w < n; w++ {
			if w > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, words[rng.Intn(len(words))]...)
		}
		buf = append(buf, `","country":"`...)
		buf = append(buf, countryCode(int(b.country))...)
		buf = append(buf, `","user":{"screen_name":"u-ser_`...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(1_000_000)), 10)
		buf = append(buf, `","name":"Name `...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(1_000_000)), 10)
		buf = append(buf, `"},"latitude":`...)
		buf = strconv.AppendFloat(buf, -90+180*rng.Float64(), 'f', 6, 64)
		buf = append(buf, `,"longitude":`...)
		buf = strconv.AppendFloat(buf, -180+360*rng.Float64(), 'f', 6, 64)
		buf = append(buf, `,"created_at":"`...)
		buf = time.Unix(1_566_550_245-int64(rng.Intn(90*24*3600)), 0).UTC().AppendFormat(buf, time.RFC3339)
		buf = append(buf, `","lang":"`...)
		buf = append(buf, langs[b.lang]...)
		buf = append(buf, `","retweet_count":`...)
		buf = strconv.AppendInt(buf, int64(b.retweets), 10)
		buf = append(buf, `,"filler":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`...)
		buf = append(buf, '\n')
		b.tail = append([]byte(nil), buf...)
	}
	return pool
}

// appendTweet appends record id's newline-terminated JSON line.
func appendTweet(dst []byte, pool []body, id int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, pool[id%poolSize].tail...)
}

// update is one scheduled reference-data write: at offset due from the
// start of ingestion, country's rating becomes version.
type update struct {
	due     time.Duration
	country int
	version int64
}

// genUpdates lays out an open-loop schedule of perSec updates per
// second for the given span. Versions grow with the schedule, so they
// are monotone per key as well.
func genUpdates(rng *rand.Rand, countries, perSec int, span time.Duration) []update {
	if perSec <= 0 {
		return nil
	}
	gap := time.Second / time.Duration(perSec)
	ups := make([]update, int(span/gap))
	for k := range ups {
		ups[k] = update{due: time.Duration(k) * gap, country: rng.Intn(countries), version: int64(k) + 1}
	}
	return ups
}

// Statement kinds of the query phase.
const (
	kindProbe = iota
	kindLimit
	kindTopK
	kindGroupBy
	kindUpsert
	numKinds
)

var kindNames = [numKinds]string{"probe", "limit", "topk", "groupby", "upsert"}

// kindWeights is the query-phase traffic mix in percent.
var kindWeights = [numKinds]int{kindProbe: 78, kindLimit: 15, kindTopK: 1, kindGroupBy: 1, kindUpsert: 5}

var kindSQL = [numKinds]string{
	kindProbe:   `SELECT VALUE t FROM Tweets t WHERE t.country = $1`,
	kindLimit:   `SELECT VALUE t.id FROM Tweets t WHERE t.retweet_count >= $1 LIMIT 100`,
	kindTopK:    `SELECT VALUE t.id FROM Tweets t ORDER BY t.retweet_count DESC LIMIT 10`,
	kindGroupBy: `SELECT t.lang AS lang, count(*) AS n FROM Tweets t GROUP BY t.lang`,
	kindUpsert:  `UPSERT INTO SafetyRatings ([$1])`,
}

// stmt is one statement of a client's fixed sequence.
type stmt struct {
	kind int
	arg  int // probe: country; limit: retweet floor; upsert: country
}

// queryArgs are the parameters a SELECT statement is bound with.
func (s stmt) queryArgs() []any {
	switch s.kind {
	case kindProbe:
		return []any{countryCode(s.arg)}
	case kindLimit:
		return []any{int64(s.arg)}
	}
	return nil
}

func isScan(kind int) bool { return kind == kindTopK || kind == kindGroupBy }

// genStatements builds each client's sequence. The number of
// statements of each kind follows from the mix alone — at least one of
// each, so every latency metric has samples even in tiny smoke runs —
// and only their order and arguments depend on the seed: a run's cost
// must not vary with how many full scans its seed happened to draw.
// The full scans come last: the clients run them side by side after
// the point statements, so that whether a probe happens to overlap a
// scan on the other core is not left to the shuffle. minUpserts is a
// floor on each client's upserts: they are cheap, and the median of the
// few the mix alone gives a short sequence is too noisy to gate on.
func genStatements(rng *rand.Rand, clients, perClient, minUpserts, countries int) [][]stmt {
	out := make([][]stmt, clients)
	for c := range out {
		var points, scans []stmt
		for k, weight := range kindWeights {
			n := max(1, perClient*weight/100)
			if k == kindUpsert {
				n = max(n, minUpserts)
			}
			for i := 0; i < n; i++ {
				s := stmt{kind: k}
				switch k {
				case kindProbe, kindUpsert:
					s.arg = rng.Intn(countries)
				case kindLimit:
					s.arg = rng.Intn(retweetLimit / 2)
				}
				if isScan(k) {
					scans = append(scans, s)
				} else {
					points = append(points, s)
				}
			}
		}
		rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
		rng.Shuffle(len(scans), func(i, j int) { scans[i], scans[j] = scans[j], scans[i] })
		out[c] = append(points, scans...)
	}
	return out
}

// expectations are the harness's own computation of what the queries
// must return, derived from the generator alone.
type expectations struct {
	countryRows []int   // rows per country
	countrySum  []int64 // sum of ids per country
	langRows    [len(langs)]int
	topRetweets []int32 // the ten largest retweet counts, descending
	// retweets holds the retweet count of every pool body in use,
	// ascending, to count the rows a `limit` floor leaves.
	retweets []int32
}

// atLeast is the number of distinct bodies with retweet_count >= floor
// (a lower bound on the matching rows, enough to know whether LIMIT 100
// must fill).
func (e *expectations) atLeast(floor int) int {
	return len(e.retweets) - sort.Search(len(e.retweets), func(i int) bool { return int(e.retweets[i]) >= floor })
}

func expect(pool []body, records, countries int) *expectations {
	e := &expectations{countryRows: make([]int, countries), countrySum: make([]int64, countries)}
	all := make([]int32, 0, min(records, poolSize))
	for id := 0; id < records; id++ {
		b := &pool[id%poolSize]
		e.countryRows[b.country]++
		e.countrySum[b.country] += int64(id)
		e.langRows[b.lang]++
	}
	// The top ten over all records: each pool body occurs
	// ceil or floor(records/poolSize) times.
	for i := 0; i < min(records, poolSize); i++ {
		reps := (records - i + poolSize - 1) / poolSize
		for r := 0; r < min(reps, 10); r++ {
			all = append(all, pool[i].retweets)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	e.topRetweets = all[:min(10, len(all))]
	for _, b := range pool[:min(records, poolSize)] {
		e.retweets = append(e.retweets, b.retweets)
	}
	sort.Slice(e.retweets, func(i, j int) bool { return e.retweets[i] < e.retweets[j] })
	return e
}
