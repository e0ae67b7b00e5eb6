package query

import (
	"fmt"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// execStr runs a query to completion on the engine and returns its
// result collection — after checking it against the reference
// implementation, so every case below is a differential case too.
func execStr(t *testing.T, cat Catalog, env *Env, src string) adm.Value {
	t.Helper()
	sel := mustSel(t, src)
	v, err := ExecuteSelect(NewContext(cat), env, sel)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	want, err := oracleSelect(NewContext(cat), env, sel)
	if err != nil {
		t.Fatalf("oracle %q: %v", src, err)
	}
	if !adm.Equal(v, want) {
		t.Fatalf("%s:\n engine %s\n oracle %s", src, v, want)
	}
	return v
}

func ratingsCatalog(t *testing.T) *testCatalog {
	cat := newTestCatalog()
	cat.addDataset(t, "SafetyRatings", "country_code", 2,
		obj("country_code", adm.String("US"), "safety_rating", adm.String("3")),
		obj("country_code", adm.String("FR"), "safety_rating", adm.String("4")),
		obj("country_code", adm.String("DE"), "safety_rating", adm.String("4")),
		obj("country_code", adm.String("BR"), "safety_rating", adm.String("2")),
	)
	return cat
}

func TestExecuteSelectValueFromDataset(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil, `SELECT VALUE s.country_code FROM SafetyRatings s ORDER BY s.country_code`)
	arr := got.ArrayVal()
	if len(arr) != 4 || arr[0].StringVal() != "BR" || arr[3].StringVal() != "US" {
		t.Errorf("got %v", got)
	}
}

func TestExecuteSelectWhere(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil,
		`SELECT VALUE s.country_code FROM SafetyRatings s WHERE s.safety_rating = "4" ORDER BY s.country_code`)
	arr := got.ArrayVal()
	if len(arr) != 2 || arr[0].StringVal() != "DE" || arr[1].StringVal() != "FR" {
		t.Errorf("got %v", got)
	}
}

func TestExecuteSelectProjectionNames(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil,
		`SELECT s.country_code, s.safety_rating AS rating FROM SafetyRatings s WHERE s.country_code = "US"`)
	row := got.Index(0)
	if row.Field("country_code").StringVal() != "US" {
		t.Errorf("derived name failed: %v", row)
	}
	if row.Field("rating").StringVal() != "3" {
		t.Errorf("alias failed: %v", row)
	}
}

func TestExecuteSelectStarSplice(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil,
		`SELECT s.*, "extra" AS note FROM SafetyRatings s WHERE s.country_code = "US"`)
	row := got.Index(0)
	if row.Field("country_code").StringVal() != "US" || row.Field("note").StringVal() != "extra" {
		t.Errorf("star splice failed: %v", row)
	}
	// Bare star.
	got = execStr(t, cat, nil, `SELECT * FROM SafetyRatings s WHERE s.country_code = "US"`)
	if got.Index(0).Field("safety_rating").StringVal() != "3" {
		t.Errorf("bare star failed: %v", got)
	}
}

func TestExecuteGroupByWithAggregates(t *testing.T) {
	cat := newTestCatalog()
	var recs []adm.Value
	pops := []struct {
		country, religion string
		pop               int64
	}{
		{"US", "A", 100}, {"US", "B", 50}, {"FR", "A", 70},
		{"FR", "C", 30}, {"FR", "B", 10}, {"DE", "A", 5},
	}
	for i, p := range pops {
		recs = append(recs, obj("rid", adm.String(fmt.Sprintf("r%d", i)),
			"country_name", adm.String(p.country),
			"religion_name", adm.String(p.religion),
			"population", adm.Int(p.pop)))
	}
	cat.addDataset(t, "ReligiousPopulations", "rid", 2, recs...)

	got := execStr(t, cat, nil, `
		SELECT r.country_name AS country, count(*) AS cnt, sum(r.population) AS total
		FROM ReligiousPopulations r
		GROUP BY r.country_name
		ORDER BY r.country_name`)
	arr := got.ArrayVal()
	if len(arr) != 3 {
		t.Fatalf("groups = %d, want 3", len(arr))
	}
	fr := arr[1]
	if fr.Field("country").StringVal() != "FR" || fr.Field("cnt").IntVal() != 3 || fr.Field("total").IntVal() != 110 {
		t.Errorf("FR group = %v", fr)
	}
}

func TestExecuteGroupByAlias(t *testing.T) {
	cat := newTestCatalog()
	cat.addDataset(t, "Persons", "person_id", 2,
		obj("person_id", adm.String("p1"), "ethnicity", adm.String("a")),
		obj("person_id", adm.String("p2"), "ethnicity", adm.String("a")),
		obj("person_id", adm.String("p3"), "ethnicity", adm.String("b")),
	)
	got := execStr(t, cat, nil, `
		SELECT ethnicity, count(*) AS n FROM Persons p
		GROUP BY p.ethnicity AS ethnicity ORDER BY ethnicity`)
	arr := got.ArrayVal()
	if len(arr) != 2 || arr[0].Field("ethnicity").StringVal() != "a" || arr[0].Field("n").IntVal() != 2 {
		t.Errorf("got %v", got)
	}
}

func TestExecuteAggregateWithoutGroupBy(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil, `SELECT count(*) AS n FROM SafetyRatings s`)
	if len(got.ArrayVal()) != 1 || got.Index(0).Field("n").IntVal() != 4 {
		t.Errorf("got %v", got)
	}
	// The paper's Q2 pattern: (SELECT sum(...) ...)[0].
	env := Bind(nil, "t", obj("country", adm.String("US")))
	cat2 := newTestCatalog()
	cat2.addDataset(t, "ReligiousPopulations", "rid", 2,
		obj("rid", adm.String("1"), "country_name", adm.String("US"), "population", adm.Int(10)),
		obj("rid", adm.String("2"), "country_name", adm.String("US"), "population", adm.Int(20)),
		obj("rid", adm.String("3"), "country_name", adm.String("FR"), "population", adm.Int(99)),
	)
	v := evalStr(t, cat2, env, `(SELECT sum(r.population) FROM ReligiousPopulations r
		WHERE r.country_name = t.country)[0]`)
	if v.Field("$1").IntVal() != 30 {
		t.Errorf("sum row = %v", v)
	}
}

func TestExecuteOrderByDescLimit(t *testing.T) {
	cat := newTestCatalog()
	cat.addDataset(t, "ReligiousPopulations", "rid", 2,
		obj("rid", adm.String("1"), "religion_name", adm.String("A"), "population", adm.Int(10)),
		obj("rid", adm.String("2"), "religion_name", adm.String("B"), "population", adm.Int(30)),
		obj("rid", adm.String("3"), "religion_name", adm.String("C"), "population", adm.Int(20)),
		obj("rid", adm.String("4"), "religion_name", adm.String("D"), "population", adm.Int(5)),
	)
	got := execStr(t, cat, nil, `
		SELECT VALUE r.religion_name FROM ReligiousPopulations r
		ORDER BY r.population DESC LIMIT 3`)
	arr := got.ArrayVal()
	if len(arr) != 3 || arr[0].StringVal() != "B" || arr[1].StringVal() != "C" || arr[2].StringVal() != "A" {
		t.Errorf("got %v", got)
	}
}

func TestExecuteJoinTwoDatasets(t *testing.T) {
	cat := newTestCatalog()
	cat.addDataset(t, "L", "id", 2,
		obj("id", adm.Int(1), "k", adm.String("x")),
		obj("id", adm.Int(2), "k", adm.String("y")),
	)
	cat.addDataset(t, "R", "id", 2,
		obj("id", adm.Int(10), "k", adm.String("x"), "v", adm.Int(100)),
		obj("id", adm.Int(11), "k", adm.String("x"), "v", adm.Int(200)),
		obj("id", adm.Int(12), "k", adm.String("z"), "v", adm.Int(300)),
	)
	got := execStr(t, cat, nil, `
		SELECT l.id AS lid, r.v AS v FROM L l, R r
		WHERE l.k = r.k ORDER BY r.v`)
	arr := got.ArrayVal()
	if len(arr) != 2 || arr[0].Field("v").IntVal() != 100 || arr[1].Field("v").IntVal() != 200 {
		t.Errorf("join = %v", got)
	}
}

func TestExecuteFromLetAndBindingCollection(t *testing.T) {
	cat := newTestCatalog()
	// The Fig 10 pattern: LET batch then FROM batch.
	got := execStr(t, cat, nil, `
		LET TweetsBatch = [{"id": 1, "v": 10}, {"id": 2, "v": 20}]
		SELECT VALUE tweet.v + 1 FROM TweetsBatch tweet`)
	arr := got.ArrayVal()
	if len(arr) != 2 || arr[0].IntVal() != 11 || arr[1].IntVal() != 21 {
		t.Errorf("got %v", got)
	}
	// FROM-position LET (Fig 9 pattern).
	got = execStr(t, cat, nil, `
		LET xs = [{"n": 1}, {"n": 2}, {"n": 3}]
		SELECT VALUE doubled FROM xs x LET doubled = x.n * 2 WHERE doubled > 2`)
	arr = got.ArrayVal()
	if len(arr) != 2 || arr[0].IntVal() != 4 || arr[1].IntVal() != 6 {
		t.Errorf("from-let = %v", got)
	}
}

func TestExecuteDistinct(t *testing.T) {
	cat := ratingsCatalog(t)
	got := execStr(t, cat, nil, `SELECT DISTINCT s.safety_rating AS r FROM SafetyRatings s ORDER BY s.safety_rating`)
	if len(got.ArrayVal()) != 3 {
		t.Errorf("distinct = %v", got)
	}
}

func TestExecuteExistsAndInSubquery(t *testing.T) {
	cat := newTestCatalog()
	cat.addDataset(t, "SensitiveWords", "id", 2,
		obj("id", adm.Int(1), "country", adm.String("US"), "word", adm.String("bomb")),
		obj("id", adm.Int(2), "country", adm.String("FR"), "word", adm.String("attaque")),
	)
	env := Bind(nil, "tweet", obj("country", adm.String("US"), "text", adm.String("the bomb squad")))
	v := evalStr(t, cat, env, `EXISTS(SELECT s FROM SensitiveWords s
		WHERE tweet.country = s.country AND contains(tweet.text, s.word))`)
	if !v.BoolVal() {
		t.Error("EXISTS should be true")
	}
	env2 := Bind(nil, "tweet", obj("country", adm.String("DE"), "text", adm.String("hello")))
	v = evalStr(t, cat, env2, `EXISTS(SELECT s FROM SensitiveWords s
		WHERE tweet.country = s.country AND contains(tweet.text, s.word))`)
	if v.BoolVal() {
		t.Error("EXISTS should be false")
	}
	v = evalStr(t, cat, env, `tweet.country IN (SELECT VALUE s.country FROM SensitiveWords s)`)
	if !v.BoolVal() {
		t.Error("IN subquery should be true")
	}
}

func TestExecuteAnalyticalQueryFig9Shape(t *testing.T) {
	cat := newTestCatalog()
	cat.addDataset(t, "SensitiveWords", "id", 2,
		obj("id", adm.Int(1), "country", adm.String("US"), "word", adm.String("bomb")),
	)
	cat.addDataset(t, "Tweets", "id", 2,
		obj("id", adm.Int(1), "country", adm.String("US"), "text", adm.String("bomb here")),
		obj("id", adm.Int(2), "country", adm.String("US"), "text", adm.String("sunny day")),
		obj("id", adm.Int(3), "country", adm.String("FR"), "text", adm.String("bomb alert")),
		obj("id", adm.Int(4), "country", adm.String("US"), "text", adm.String("bomb threat")),
	)
	cat.addSQLFunction(t, `CREATE FUNCTION tweetSafetyCheck(tweet) {
		LET safety_check_flag = CASE
			EXISTS(SELECT s FROM SensitiveWords s
				WHERE tweet.country = s.country AND contains(tweet.text, s.word))
			WHEN true THEN "Red" ELSE "Green" END
		SELECT tweet.*, safety_check_flag
	};`)
	got := execStr(t, cat, nil, `
		SELECT tweet.country Country, count(tweet) Num
		FROM Tweets tweet
		LET enrichedTweet = tweetSafetyCheck(tweet)[0]
		WHERE enrichedTweet.safety_check_flag = "Red"
		GROUP BY tweet.country`)
	arr := got.ArrayVal()
	if len(arr) != 1 {
		t.Fatalf("rows = %v", got)
	}
	if arr[0].Field("Country").StringVal() != "US" || arr[0].Field("Num").IntVal() != 2 {
		t.Errorf("analytics = %v", arr[0])
	}
}

func TestExecuteErrorUnknownFromSource(t *testing.T) {
	cat := newTestCatalog()
	e, _ := sqlpp.ParseExpr(`SELECT VALUE x FROM NoSuchDataset x`)
	if _, err := ExecuteSelect(NewContext(cat), nil, e.(*sqlpp.SelectExpr)); err == nil {
		t.Error("unknown dataset should fail")
	}
}
