package sqlpp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("Parse(%q) returned %d statements", src, len(stmts))
	}
	return stmts[0]
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT t.a, "str" -- comment
		FROM ds /* block */ WHERE x >= 1.5e2 AND y != 'q'`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"SELECT", "t", ".", "a", ",", "str", "FROM", "ds", "WHERE", "x", ">=", "1.5e2", "AND", "y", "!=", "q"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("lex = %v\nwant %v", kinds, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "`unterminated", `@bad`, `/* unterminated`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestParseCreateTypePaperFig1(t *testing.T) {
	s := parseOne(t, `CREATE TYPE TweetType AS OPEN {
		id : int64,
		text: string
	};`)
	ct, ok := s.(*CreateType)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "TweetType" || !ct.Open || len(ct.Fields) != 2 {
		t.Errorf("CreateType = %+v", ct)
	}
	if ct.Fields[0].Name != "id" || ct.Fields[0].Kind != adm.KindInt64 {
		t.Errorf("field 0 = %+v", ct.Fields[0])
	}
	if ct.Fields[1].Name != "text" || ct.Fields[1].Kind != adm.KindString {
		t.Errorf("field 1 = %+v", ct.Fields[1])
	}
}

func TestParseCreateTypeClosedOptional(t *testing.T) {
	s := parseOne(t, `CREATE TYPE T AS CLOSED { a: string, b: datetime? }`)
	ct := s.(*CreateType)
	if ct.Open {
		t.Error("should be closed")
	}
	if !ct.Fields[1].Optional || ct.Fields[1].Kind != adm.KindDateTime {
		t.Errorf("optional field = %+v", ct.Fields[1])
	}
}

func TestParseCreateDataset(t *testing.T) {
	s := parseOne(t, `CREATE DATASET Tweets(TweetType) PRIMARY KEY id;`)
	cd := s.(*CreateDataset)
	if cd.Name != "Tweets" || cd.TypeName != "TweetType" || cd.PrimaryKey != "id" {
		t.Errorf("CreateDataset = %+v", cd)
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := parseOne(t, `CREATE INDEX mloc ON monumentList(monument_location) TYPE RTREE;`)
	ci := s.(*CreateIndex)
	if ci.Name != "mloc" || ci.Dataset != "monumentList" || ci.Field != "monument_location" || ci.Kind != "RTREE" {
		t.Errorf("CreateIndex = %+v", ci)
	}
	s = parseOne(t, `CREATE INDEX byC ON SafetyRatings(country_code);`)
	if s.(*CreateIndex).Kind != "BTREE" {
		t.Error("default index kind should be BTREE")
	}
}

func TestParseCreateFeedPaperFig4(t *testing.T) {
	s := parseOne(t, `CREATE FEED TweetFeed WITH {
		"type-name" : "TweetType",
		"adapter-name": "socket_adapter",
		"format" : "JSON",
		"sockets": "127.0.0.1:10001",
		"address-type": "IP"
	};`)
	cf := s.(*CreateFeed)
	if cf.Name != "TweetFeed" {
		t.Errorf("feed name = %q", cf.Name)
	}
	if got := cf.Config.Field("adapter-name").StringVal(); got != "socket_adapter" {
		t.Errorf("adapter-name = %q", got)
	}
	if got := cf.Config.Field("sockets").StringVal(); got != "127.0.0.1:10001" {
		t.Errorf("sockets = %q", got)
	}
}

func TestParseConnectAndStartStop(t *testing.T) {
	s := parseOne(t, `CONNECT FEED TweetFeed TO DATASET Tweets;`)
	cn := s.(*ConnectFeed)
	if cn.Feed != "TweetFeed" || cn.Dataset != "Tweets" || cn.Function != "" {
		t.Errorf("ConnectFeed = %+v", cn)
	}
	s = parseOne(t, `CONNECT FEED TweetFeed TO DATASET EnrichedTweets APPLY FUNCTION USTweetSafetyCheck;`)
	cn = s.(*ConnectFeed)
	if cn.Function != "USTweetSafetyCheck" {
		t.Errorf("apply function = %q", cn.Function)
	}
	if parseOne(t, `START FEED TweetFeed;`).(*StartFeed).Name != "TweetFeed" {
		t.Error("start feed")
	}
	if parseOne(t, `STOP FEED TweetFeed;`).(*StopFeed).Name != "TweetFeed" {
		t.Error("stop feed")
	}
}

func TestParseInsertPaperFig3(t *testing.T) {
	s := parseOne(t, `INSERT INTO Tweets ([
		{"id":0, "text": "Let there be light"}
	]);`)
	ins := s.(*Insert)
	if ins.Dataset != "Tweets" || ins.Upsert {
		t.Errorf("Insert = %+v", ins)
	}
	arr, ok := ins.Source.(*ArrayCtor)
	if !ok || len(arr.Elems) != 1 {
		t.Fatalf("source = %T", ins.Source)
	}
	v, err := constEval(ins.Source)
	if err != nil {
		t.Fatal(err)
	}
	if v.Index(0).Field("text").StringVal() != "Let there be light" {
		t.Errorf("const eval = %v", v)
	}
}

func TestParseUpsert(t *testing.T) {
	s := parseOne(t, `UPSERT INTO SafetyRatings ([{"country_code": "US", "safety_rating": "2"}]);`)
	if !s.(*Insert).Upsert {
		t.Error("UPSERT flag lost")
	}
}

func TestParseUDF1PaperFig6(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION USTweetSafetyCheck(tweet) {
		LET safety_check_flag =
			CASE tweet.country = "US" AND contains(tweet.text, "bomb")
			WHEN true THEN "Red" ELSE "Green"
			END
		SELECT tweet.*, safety_check_flag
	};`)
	cf := s.(*CreateFunction)
	if cf.Name != "USTweetSafetyCheck" || len(cf.Params) != 1 || cf.Params[0] != "tweet" {
		t.Fatalf("CreateFunction = %+v", cf)
	}
	sel, ok := cf.Body.(*SelectExpr)
	if !ok {
		t.Fatalf("body = %T", cf.Body)
	}
	if len(sel.Lets) != 1 || sel.Lets[0].Name != "safety_check_flag" {
		t.Fatalf("lets = %+v", sel.Lets)
	}
	ce, ok := sel.Lets[0].Expr.(*CaseExpr)
	if !ok || ce.Operand == nil || len(ce.Whens) != 1 || ce.Else == nil {
		t.Fatalf("case = %+v", ce)
	}
	if len(sel.Projections) != 2 || !sel.Projections[0].Star || sel.Projections[1].Star {
		t.Fatalf("projections = %+v", sel.Projections)
	}
}

func TestParseUDF2PaperFig8(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION tweetSafetyCheck(tweet) {
		LET safety_check_flag = CASE
			EXISTS(SELECT s FROM SensitiveWords s
				WHERE tweet.country = s.country AND
				contains(tweet.text, s.word))
			WHEN true THEN "Red" ELSE "Green"
			END
		SELECT tweet.*, safety_check_flag
	};`)
	cf := s.(*CreateFunction)
	sel := cf.Body.(*SelectExpr)
	ce := sel.Lets[0].Expr.(*CaseExpr)
	ex, ok := ce.Operand.(*Exists)
	if !ok {
		t.Fatalf("operand = %T", ce.Operand)
	}
	if len(ex.Sub.From) != 1 || ex.Sub.From[0].Alias != "s" {
		t.Fatalf("exists sub from = %+v", ex.Sub.From)
	}
	if ex.Sub.Where == nil {
		t.Fatal("exists sub where missing")
	}
}

func TestParseAnalyticalQueryPaperFig9(t *testing.T) {
	s := parseOne(t, `SELECT tweet.country Country, count(tweet) Num
		FROM Tweets tweet
		LET enrichedTweet = tweetSafetyCheck(tweet)[0]
		WHERE enrichedTweet.safety_check_flag = "Red"
		GROUP BY tweet.country;`)
	q := s.(*Query)
	sel := q.Sel
	if len(sel.Projections) != 2 {
		t.Fatalf("projections = %+v", sel.Projections)
	}
	if sel.Projections[0].Alias != "Country" || sel.Projections[1].Alias != "Num" {
		t.Errorf("implicit aliases = %q, %q", sel.Projections[0].Alias, sel.Projections[1].Alias)
	}
	if len(sel.FromLets) != 1 || sel.FromLets[0].Name != "enrichedTweet" {
		t.Fatalf("from lets = %+v", sel.FromLets)
	}
	if _, ok := sel.FromLets[0].Expr.(*IndexAccess); !ok {
		t.Errorf("let expr should be IndexAccess, got %T", sel.FromLets[0].Expr)
	}
	if len(sel.GroupBy) != 1 {
		t.Fatalf("group by = %+v", sel.GroupBy)
	}
}

func TestParseInsertWithQueryPaperFig10(t *testing.T) {
	s := parseOne(t, `INSERT INTO EnrichedTweets(
		LET TweetsBatch = ([{"id":0}, {"id":1}])
		SELECT VALUE tweetSafetyCheck(tweet)
		FROM TweetsBatch tweet
	);`)
	ins := s.(*Insert)
	sel, ok := ins.Source.(*SelectExpr)
	if !ok {
		t.Fatalf("source = %T", ins.Source)
	}
	if len(sel.Lets) != 1 || sel.Lets[0].Name != "TweetsBatch" {
		t.Fatalf("lets = %+v", sel.Lets)
	}
	if sel.SelectValue == nil {
		t.Fatal("SELECT VALUE missing")
	}
	if len(sel.From) != 1 || sel.From[0].Alias != "tweet" {
		t.Fatalf("from = %+v", sel.From)
	}
	if id, ok := sel.From[0].Source.(*Ident); !ok || id.Name != "TweetsBatch" {
		t.Fatalf("from source = %+v", sel.From[0].Source)
	}
}

func TestParseNotInSubqueryPaperFig11(t *testing.T) {
	s := parseOne(t, `INSERT INTO EnrichedTweets(
		SELECT VALUE tweetSafetyCheck(tweet)
		FROM Tweets tweet WHERE tweet.id NOT IN
			(SELECT VALUE enrichedTweet.id
			 FROM EnrichedTweets enrichedTweet)
	);`)
	sel := s.(*Insert).Source.(*SelectExpr)
	in, ok := sel.Where.(*In)
	if !ok || !in.Not {
		t.Fatalf("where = %+v", sel.Where)
	}
	if _, ok := in.Coll.(*SubqueryExpr); !ok {
		t.Fatalf("IN collection = %T", in.Coll)
	}
}

func TestParseHighRiskPaperFig18(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION highRiskTweetCheck(t) {
		LET high_risk_flag = CASE
			t.country IN (SELECT VALUE s.country
				FROM SensitiveWords s
				GROUP BY s.country
				ORDER BY count(s)
				LIMIT 10)
			WHEN true THEN "Red" ELSE "Green"
			END
		SELECT t.*, high_risk_flag
	};`)
	cf := s.(*CreateFunction)
	ce := cf.Body.(*SelectExpr).Lets[0].Expr.(*CaseExpr)
	in, ok := ce.Operand.(*In)
	if !ok {
		t.Fatalf("operand = %T", ce.Operand)
	}
	sub := in.Coll.(*SubqueryExpr).Sel
	if len(sub.GroupBy) != 1 || len(sub.OrderBy) != 1 || sub.Limit == nil {
		t.Fatalf("subquery clauses missing: %+v", sub)
	}
	if call, ok := sub.OrderBy[0].Expr.(*Call); !ok || call.Name != "count" {
		t.Fatalf("order by = %+v", sub.OrderBy[0].Expr)
	}
}

func TestParseWorrisomeTweetsQ8(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION enrichTweetQ7(t) {
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
	};`)
	cf := s.(*CreateFunction)
	sub := cf.Body.(*SelectExpr).Lets[0].Expr.(*SubqueryExpr).Sel
	if len(sub.From) != 2 || sub.From[0].Alias != "r" || sub.From[1].Alias != "a" {
		t.Fatalf("from = %+v", sub.From)
	}
	// WHERE should be a 4-conjunct AND chain including datetime+duration.
	conj := 0
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		conj++
	}
	walk(sub.Where)
	if conj != 4 {
		t.Errorf("conjuncts = %d, want 4", conj)
	}
}

func TestParseNamespacedCallQ4(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION annotateTweetQ4(x) {
		LET related_suspects = (
			SELECT s.sensitiveName, s.religionName
			FROM SensitiveNamesDataset s
			WHERE edit_distance(
				testlib#removeSpecial(x.user.screen_name),
				s.sensitiveName) < 5)
		SELECT x.*, related_suspects
	};`)
	sub := s.(*CreateFunction).Body.(*SelectExpr).Lets[0].Expr.(*SubqueryExpr).Sel
	cmp, ok := sub.Where.(*Binary)
	if !ok || cmp.Op != "<" {
		t.Fatalf("where = %+v", sub.Where)
	}
	ed := cmp.L.(*Call)
	if ed.Name != "edit_distance" {
		t.Fatalf("call = %+v", ed)
	}
	inner, ok := ed.Args[0].(*Call)
	if !ok || inner.Ns != "testlib" || inner.Name != "removeSpecial" {
		t.Fatalf("namespaced call = %+v", ed.Args[0])
	}
	if _, ok := inner.Args[0].(*FieldAccess); !ok {
		t.Fatalf("nested path arg = %T", inner.Args[0])
	}
}

func TestParseMultiLetQ6(t *testing.T) {
	s := parseOne(t, `CREATE FUNCTION enrichTweetQ5(t) {
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
	};`)
	cf := s.(*CreateFunction)
	sel := cf.Body.(*SelectExpr)
	if len(sel.Lets) != 3 {
		t.Fatalf("lets = %d, want 3", len(sel.Lets))
	}
	names := []string{"nearby_facilities", "nearby_religious_buildings", "suspicious_users_info"}
	for i, want := range names {
		if sel.Lets[i].Name != want {
			t.Errorf("let %d = %q, want %q", i, sel.Lets[i].Name, want)
		}
	}
	// First subquery has count(*) with Star.
	first := sel.Lets[0].Expr.(*SubqueryExpr).Sel
	call := first.Projections[1].Expr.(*Call)
	if !call.Star || call.Name != "count" {
		t.Errorf("count(*) = %+v", call)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr(`a + b * c = d AND NOT e OR f`)
	if err != nil {
		t.Fatal(err)
	}
	// ((a + (b*c)) = d AND (NOT e)) OR f
	or, ok := e.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %+v", e)
	}
	and := or.L.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("left = %+v", or.L)
	}
	eq := and.L.(*Binary)
	if eq.Op != "=" {
		t.Fatalf("cmp = %+v", and.L)
	}
	add := eq.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("add = %+v", eq.L)
	}
	if mul := add.R.(*Binary); mul.Op != "*" {
		t.Fatalf("mul = %+v", add.R)
	}
	if not := and.R.(*Unary); not.Op != "NOT" {
		t.Fatalf("not = %+v", and.R)
	}
}

func TestParseUnaryMinusAndArith(t *testing.T) {
	e, err := ParseExpr(`-x + 2.5 % 3`)
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*Binary)
	if add.Op != "+" {
		t.Fatal("top should be +")
	}
	if neg := add.L.(*Unary); neg.Op != "-" {
		t.Fatal("left should be unary minus")
	}
	if mod := add.R.(*Binary); mod.Op != "%" {
		t.Fatal("right should be %")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT a FROM`,
		`CREATE TYPE X AS { a: notatype }`,
		`CREATE DATASET D(T)`,
		`INSERT INTO D (SELECT VALUE x FROM y z`,
		`CASE WHEN END`,
		`SELECT a FROM b WHERE`,
		`LET x =`,
		`SELECT a..b FROM c`,
		`foo#bar`,
		`CREATE FUNCTION f(x) { SELECT 1 `,
		`CONNECT FEED f TO d`,
		`SELECT x.* FROM y WHERE x.* = 1`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		INSERT INTO D ([{"id": 1}]);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseSelectStarProjection(t *testing.T) {
	sel := parseOne(t, `SELECT * FROM Tweets t WHERE t.id = 97;`).(*Query).Sel
	if len(sel.Projections) != 1 || !sel.Projections[0].Star || sel.Projections[0].Expr != nil {
		t.Fatalf("bare star = %+v", sel.Projections)
	}
}

func TestParseDistinctAndDescOrder(t *testing.T) {
	sel := parseOne(t, `SELECT DISTINCT t.country FROM Tweets t ORDER BY t.country DESC LIMIT 5;`).(*Query).Sel
	if !sel.Distinct {
		t.Error("distinct lost")
	}
	if !sel.OrderBy[0].Desc {
		t.Error("desc lost")
	}
	if sel.Limit == nil {
		t.Error("limit lost")
	}
}

func TestParamParsing(t *testing.T) {
	stmts, err := Parse(`SELECT VALUE t FROM Tweets t WHERE t.country = $country AND t.n > $1 LIMIT $limit;`)
	if err != nil {
		t.Fatal(err)
	}
	got := CollectParams(stmts)
	want := []string{"country", "1", "limit"}
	if len(got) != len(want) {
		t.Fatalf("params = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("params = %v, want %v", got, want)
		}
	}
}

func TestParamInsideStringLiteralIsText(t *testing.T) {
	stmts, err := Parse(`SELECT VALUE "$notaparam" FROM Tweets t WHERE t.text = '$alsotext';`)
	if err != nil {
		t.Fatal(err)
	}
	if ps := CollectParams(stmts); len(ps) != 0 {
		t.Fatalf("string-literal dollars must not become parameters, got %v", ps)
	}
}

func TestParamDedupAndOffsets(t *testing.T) {
	stmts, err := Parse(`SELECT VALUE $x FROM D d WHERE d.a = $x AND d.b = $y;`)
	if err != nil {
		t.Fatal(err)
	}
	got := CollectParams(stmts)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("params = %v", got)
	}
	q := stmts[0].(*Query)
	p, ok := q.Sel.SelectValue.(*Param)
	if !ok {
		t.Fatalf("SELECT VALUE is %T, want *Param", q.Sel.SelectValue)
	}
	if p.Off != len("SELECT VALUE ") {
		t.Errorf("param offset = %d", p.Off)
	}
}

func TestEmptyParamNameFails(t *testing.T) {
	_, err := Parse(`SELECT VALUE $ FROM D d;`)
	if err == nil {
		t.Fatal("lone $ should fail to parse")
	}
}

func TestParseErrorReportsOffset(t *testing.T) {
	cases := []struct {
		src  string
		near string // fragment expected in the message
	}{
		{"SELECT VALUE t FROM WHERE", "WHERE"},
		{"CREATE DATASET D(T PRIMARY KEY id;", "PRIMARY"},
		{"SELECT * FROM D d GROUP WHEN", "WHEN"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("%q should fail", tc.src)
		}
		msg := err.Error()
		if !strings.Contains(msg, "offset") || !strings.Contains(msg, tc.near) {
			t.Errorf("%q error lacks offset/near info: %v", tc.src, err)
		}
		// The reported offset must point inside the source.
		var off int
		if _, serr := fmt.Sscanf(msg[strings.Index(msg, "offset"):], "offset %d", &off); serr != nil {
			t.Errorf("%q: cannot extract offset from %q", tc.src, msg)
		} else if off < 0 || off > len(tc.src) {
			t.Errorf("%q: offset %d out of range", tc.src, off)
		}
	}
}

func TestStatementPositions(t *testing.T) {
	src := `CREATE TYPE T AS OPEN { id: int64 };
CREATE DATASET D(T) PRIMARY KEY id;
INSERT INTO D ([{"id": 1}]);`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	for i, s := range stmts {
		at := s.Pos()
		if at < 0 || at >= len(src) {
			t.Fatalf("stmt %d pos %d out of range", i, at)
		}
	}
	if stmts[0].Pos() != 0 {
		t.Errorf("first stmt pos = %d", stmts[0].Pos())
	}
	if want := strings.Index(src, "CREATE DATASET"); stmts[1].Pos() != want {
		t.Errorf("second stmt pos = %d, want %d", stmts[1].Pos(), want)
	}
	if want := strings.Index(src, "INSERT"); stmts[2].Pos() != want {
		t.Errorf("third stmt pos = %d, want %d", stmts[2].Pos(), want)
	}
}
