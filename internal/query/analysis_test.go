package query

import (
	"sort"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/sqlpp"
)

// TestTreeAnalysesPerNodeKind pins what each planner analysis says about
// one expression per node kind (and the cases that decide its pruning):
// exprRowFree and safeParallelPred, the aggregate calls collectAggCalls
// finds, the number of outermost SELECT blocks collectSubqueries finds,
// and FreeVars.
func TestTreeAnalysesPerNodeKind(t *testing.T) {
	for _, tc := range []struct {
		src           string
		rowFree, safe bool
		aggs          string // names, in walk order
		subs          int
		free          string // sorted
	}{
		{`1`, true, true, "", 0, ""},
		{`x`, false, true, "", 0, "x"},
		{`$p`, true, true, "", 0, ""},
		{`x.a`, false, true, "", 0, "x"},
		{`x[i]`, false, true, "", 0, "i x"},
		{`f(1, $p)`, true, false, "", 0, ""},
		{`f(x)`, false, false, "", 0, "x"},
		{`lib#f(1)`, false, false, "", 0, ""},
		{`count(x)`, true, false, "count", 0, "x"},
		{`f(sum(x), max(count(y)))`, true, false, "sum max", 0, "x y"},
		{`NOT x`, false, true, "", 0, "x"},
		{`-$p`, true, true, "", 0, ""},
		{`x + 1`, false, true, "", 0, "x"},
		{`$p + count(x)`, true, false, "count", 0, "x"},
		{`CASE x WHEN 1 THEN y ELSE z END`, false, true, "", 0, "x y z"},
		{`CASE WHEN $p THEN count(x) END`, true, false, "count", 0, "x"},
		{`EXISTS (SELECT VALUE s FROM S s WHERE s.k = x)`, false, false, "", 1, "S x"},
		{`x IN [1, y]`, false, true, "", 0, "x y"},
		{`(SELECT VALUE count(s) FROM S s WHERE s.k = x)`, false, false, "", 1, "S x"},
		{`count(x) + (SELECT VALUE sum(s) FROM S s)`, false, false, "count", 1, "S x"},
		{`[x, 1]`, false, true, "", 0, "x"},
		{`[x, count(y)]`, false, false, "count", 0, "x y"},
		{`{"a": x, "b": sum(y)}`, false, false, "sum", 0, "x y"},
		{`f(x.a[(SELECT VALUE 1)], -EXISTS (SELECT VALUE 2), {"a": [(SELECT VALUE 3)]})`, false, false, "", 3, "x"},
		{`SELECT VALUE count(s) FROM S s GROUP BY s.g AS g ORDER BY g LIMIT $n`, false, false, "", 1, "S"},
		{`LET a = x SELECT a, b.v FROM a AS b, c AS d LET e = d WHERE b.k = y AND e = z`, false, false, "", 1, "c x y z"},
		{`SELECT VALUE g FROM S s GROUP BY s.g AS g ORDER BY h LIMIT k`, false, false, "", 1, "S h k"},
	} {
		e, err := sqlpp.ParseExpr(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := exprRowFree(e); got != tc.rowFree {
			t.Errorf("%s: exprRowFree = %v", tc.src, got)
		}
		if got := safeParallelPred(e); got != tc.safe {
			t.Errorf("%s: safeParallelPred = %v", tc.src, got)
		}
		var calls []*sqlpp.Call
		collectAggCalls(e, &calls)
		var names []string
		for _, c := range calls {
			names = append(names, c.Name)
		}
		if got := strings.Join(names, " "); got != tc.aggs {
			t.Errorf("%s: collectAggCalls = %q, want %q", tc.src, got, tc.aggs)
		}
		var sels []*sqlpp.SelectExpr
		collectSubqueries(e, &sels)
		if len(sels) != tc.subs {
			t.Errorf("%s: collectSubqueries found %d, want %d", tc.src, len(sels), tc.subs)
		}
		var free []string
		for name := range FreeVars(e) {
			free = append(free, name)
		}
		sort.Strings(free)
		if got := strings.Join(free, " "); got != tc.free {
			t.Errorf("%s: FreeVars = %q, want %q", tc.src, got, tc.free)
		}
	}
}

// TestFreeVarsLongestChain: the longest operator and accessor chains the
// parser accepts (sqlpp's maxChainLinks) walk to the end.
func TestFreeVarsLongestChain(t *testing.T) {
	const links = 10_000
	for _, link := range []string{"+x", ".a", "[x]"} {
		e, err := sqlpp.ParseExpr("x" + strings.Repeat(link, links))
		if err != nil {
			t.Fatalf("%q × %d: %v", link, links, err)
		}
		if fv := FreeVars(e); len(fv) != 1 || !fv["x"] {
			t.Errorf("%q × %d: FreeVars = %v", link, links, fv)
		}
		if exprRowFree(e) || !safeParallelPred(e) {
			t.Errorf("%q × %d: exprRowFree = %v, safeParallelPred = %v", link, links, exprRowFree(e), safeParallelPred(e))
		}
	}
}
