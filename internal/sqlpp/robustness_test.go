package sqlpp

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpus is a set of valid programs whose mutations must never panic the
// lexer or parser.
var corpus = []string{
	`CREATE TYPE TweetType AS OPEN { id: int64, text: string };`,
	`CREATE DATASET Tweets(TweetType) PRIMARY KEY id;`,
	`SELECT tweet.country Country, count(tweet) Num FROM Tweets tweet GROUP BY tweet.country;`,
	`CREATE FUNCTION f(t) {
		LET x = (SELECT VALUE s.a FROM S s WHERE s.k = t.k ORDER BY s.v DESC LIMIT 3)
		SELECT t.*, x
	};`,
	`INSERT INTO D ([{"id": 1, "point": [1.5, -2.5], "nested": {"a": [true, null]}}]);`,
	`SELECT VALUE CASE WHEN a = 1 THEN "x" ELSE "y" END FROM D d;`,
	`CONNECT FEED F TO DATASET D APPLY FUNCTION g;`,
	`SELECT x.a, lib#fn(x.b)[0].c FROM D x WHERE x.a IN (SELECT VALUE y.a FROM E y) AND NOT x.done;`,
}

// TestParseNeverPanicsOnPrefixes: every prefix of a valid program either
// parses or returns an error — never panics.
func TestParseNeverPanicsOnPrefixes(t *testing.T) {
	for _, src := range corpus {
		for i := 0; i <= len(src); i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on prefix %q: %v", src[:i], r)
					}
				}()
				Parse(src[:i]) //nolint:errcheck // outcome irrelevant, only no-panic
			}()
		}
	}
}

// TestParseNeverPanicsOnMutations: random byte mutations of valid
// programs never panic.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	r := rand.New(rand.NewSource(2019))
	noise := []byte(`(){}[],.;:"'#?*=<>+-x0 `)
	for _, src := range corpus {
		for trial := 0; trial < 300; trial++ {
			b := []byte(src)
			for k := 0; k < 1+r.Intn(4); k++ {
				pos := r.Intn(len(b))
				switch r.Intn(3) {
				case 0:
					b[pos] = noise[r.Intn(len(noise))]
				case 1:
					b = append(b[:pos], b[pos+1:]...)
				default:
					b = append(b[:pos], append([]byte{noise[r.Intn(len(noise))]}, b[pos:]...)...)
				}
				if len(b) == 0 {
					break
				}
			}
			mut := string(b)
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("panic on mutation %q: %v", mut, rec)
					}
				}()
				Parse(mut) //nolint:errcheck
			}()
		}
	}
}

// TestLexParseRoundTripTokens: lexing is total on printable ASCII noise.
func TestLexNoiseTotal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(60)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte(32 + r.Intn(95)))
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("lex panic on %q: %v", sb.String(), rec)
				}
			}()
			Lex(sb.String()) //nolint:errcheck
		}()
	}
}

// TestParseDepthBounded: expressions nest maxNesting deep and no deeper,
// whichever production does the nesting, and the error says where; a
// megabyte of '(' (a million levels — the parser used to die of stack
// overflow there, which no recover catches) is an error like any other.
func TestParseDepthBounded(t *testing.T) {
	wrap := func(open, close string, n int) string {
		return "SELECT VALUE " + strings.Repeat(open, n) + "1" + strings.Repeat(close, n) + ";"
	}
	for _, tc := range []struct{ name, open, close string }{
		{"parentheses", "(", ")"},
		{"array constructors", "[", "]"},
		{"NOT", "NOT ", ""},
		{"unary minus", "- ", ""},
		{"subqueries", "(SELECT VALUE ", ")"},
		{"calls", "f(", ")"},
	} {
		// The literal is itself a primary, one level inside the wrappers.
		if _, err := Parse(wrap(tc.open, tc.close, maxNesting-1)); err != nil {
			t.Errorf("%s: %d levels refused: %v", tc.name, maxNesting, err)
		}
		_, err := Parse(wrap(tc.open, tc.close, maxNesting))
		if err == nil || !strings.Contains(err.Error(), "parse error at offset") {
			t.Errorf("%s: %d levels: err = %v, want a positioned parse error", tc.name, maxNesting+1, err)
		}
	}
	if _, err := Parse(strings.Repeat("(", 1<<20)); err == nil {
		t.Error("1 MB of '(' parsed")
	}
	if _, err := ParseExpr(strings.Repeat("NOT ", 1<<18)); err == nil {
		t.Error("a quarter million NOTs parsed")
	}
}

// TestParseChainsBounded: a statement holds maxChainLinks operator and
// accessor links and no more, whichever loop parses them, so the
// left-deep tree a chain builds is never deeper than the evaluator can
// recurse. A megabyte of "+1" or ".a" (half a million links — both used
// to parse and then kill the process with a stack overflow in eval or
// Inspect) is a positioned parse error.
func TestParseChainsBounded(t *testing.T) {
	for _, tc := range []struct{ name, first, link string }{
		{"additive", "1", "+1"},
		{"multiplicative", "1", "*1"},
		{"AND", "true", " AND true"},
		{"OR", "false", " OR false"},
		{"field access", "a", ".a"},
		{"index access", "a", "[0]"},
	} {
		if _, err := ParseExpr(tc.first + strings.Repeat(tc.link, maxChainLinks)); err != nil {
			t.Errorf("%s: %d links refused: %v", tc.name, maxChainLinks, err)
		}
		_, err := ParseExpr(tc.first + strings.Repeat(tc.link, maxChainLinks+1))
		if err == nil || !strings.Contains(err.Error(), "parse error at offset") {
			t.Errorf("%s: %d links: err = %v, want a positioned parse error", tc.name, maxChainLinks+1, err)
		}
	}
	for _, link := range []string{"+1", ".a"} {
		if _, err := Parse("SELECT VALUE a" + strings.Repeat(link, 1<<19) + ";"); err == nil {
			t.Errorf("1 MB of %q parsed", link)
		}
	}
	// The budget is per statement.
	long := "SELECT VALUE 1" + strings.Repeat("+1", maxChainLinks) + ";"
	if _, err := Parse(long + long); err != nil {
		t.Error(err)
	}
}

// FuzzSqlppParse: any input parses or returns an error that says where —
// never a panic, and (bounded nesting) never a stack overflow.
func FuzzSqlppParse(f *testing.F) {
	for _, src := range corpus {
		f.Add(src)
	}
	// The statements of the parser tests and of the examples' scripts:
	// the raw string literals of those files.
	files, _ := filepath.Glob("../../examples/*/main.go")
	for _, name := range append(files, "parser_test.go") {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for i, lit := range strings.Split(string(src), "`") {
			if i%2 == 1 {
				f.Add(lit)
			}
		}
	}
	f.Add(strings.Repeat("(", maxNesting+1))
	f.Add("SELECT VALUE a" + strings.Repeat("+1", 1<<19))
	f.Add("SELECT VALUE a" + strings.Repeat(".a", 1<<19))
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if err != nil && !strings.Contains(err.Error(), " at ") {
			t.Fatalf("error without a position: %v", err)
		}
		if _, err := ParseExpr(src); err != nil && !strings.Contains(err.Error(), " at ") {
			t.Fatalf("ParseExpr error without a position: %v", err)
		}
	})
}
