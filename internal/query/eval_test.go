package query

import (
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// testCatalog is a minimal in-memory catalog for engine tests. cache,
// when set, is the block cache addDataset opens datasets behind.
type testCatalog struct {
	cache     *lsm.BlockCache
	datasets  map[string]*lsm.Dataset
	functions map[string]*Function
	natives   map[string]func([]adm.Value) (adm.Value, error)
}

func newTestCatalog() *testCatalog {
	return &testCatalog{
		datasets:  map[string]*lsm.Dataset{},
		functions: map[string]*Function{},
		natives:   map[string]func([]adm.Value) (adm.Value, error){},
	}
}

func (c *testCatalog) Dataset(name string) (*lsm.Dataset, bool) {
	ds, ok := c.datasets[name]
	return ds, ok
}

func (c *testCatalog) Function(name string) (*Function, bool) {
	f, ok := c.functions[name]
	return f, ok
}

func (c *testCatalog) Native(ns, name string) (func([]adm.Value) (adm.Value, error), bool) {
	f, ok := c.natives[ns+"#"+name]
	return f, ok
}

// memDataset opens an untyped dataset as a cluster without a data
// directory does — on a private in-memory filesystem, behind a block
// cache (opts', or one of the default budget) — and closes it with the
// test.
func memDataset(t testing.TB, name, pk string, parts int, opts lsm.Options) *lsm.Dataset {
	t.Helper()
	if opts.BlockCache == nil {
		opts.BlockCache = lsm.NewBlockCache(lsm.DefaultBlockCacheBytes)
	}
	ds, err := lsm.OpenDataset(lsm.NewMemFS(), name, name, nil, pk, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func (c *testCatalog) addDataset(t testing.TB, name, pk string, parts int, recs ...adm.Value) *lsm.Dataset {
	t.Helper()
	opts := lsm.DefaultOptions()
	opts.BlockCache = c.cache
	ds := memDataset(t, name, pk, parts, opts)
	for _, r := range recs {
		if err := ds.Upsert(r); err != nil {
			t.Fatal(err)
		}
	}
	c.datasets[name] = ds
	return ds
}

// flushAll moves every partition's memtable into a run file, so the
// next scan reads blocks through the filesystem (and the block cache).
func flushAll(t testing.TB, ds *lsm.Dataset) {
	t.Helper()
	for i := 0; i < ds.NumPartitions(); i++ {
		ds.Partition(i).Flush()
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
}

func (c *testCatalog) addSQLFunction(t testing.TB, ddl string) *Function {
	t.Helper()
	stmts, err := sqlpp.Parse(ddl)
	if err != nil {
		t.Fatal(err)
	}
	cf := stmts[0].(*sqlpp.CreateFunction)
	fn := &Function{Name: cf.Name, Params: cf.Params, Body: cf.Body}
	c.functions[cf.Name] = fn
	return fn
}

func obj(pairs ...any) adm.Value { return adm.ObjectValue(adm.ObjectFromPairs(pairs...)) }

func evalStr(t *testing.T, cat Catalog, env *Env, src string) adm.Value {
	t.Helper()
	e, err := sqlpp.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(NewContext(cat), env, e)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalScalars(t *testing.T) {
	cat := newTestCatalog()
	env := Bind(nil, "t", obj("a", adm.Int(5), "s", adm.String("hello world"),
		"nested", obj("x", adm.Double(2.5))))
	cases := []struct {
		src  string
		want adm.Value
	}{
		{`1 + 2 * 3`, adm.Int(7)},
		{`(1 + 2) * 3`, adm.Int(9)},
		{`10 / 4`, adm.Double(2.5)},
		{`7 % 3`, adm.Int(1)},
		{`-t.a`, adm.Int(-5)},
		{`t.a + 1.5`, adm.Double(6.5)},
		{`t.a = 5`, adm.Bool(true)},
		{`t.a != 5`, adm.Bool(false)},
		{`t.a < 6 AND t.a > 4`, adm.Bool(true)},
		{`t.a < 4 OR t.a > 4`, adm.Bool(true)},
		{`NOT (t.a = 5)`, adm.Bool(false)},
		{`t.nested.x`, adm.Double(2.5)},
		{`t.nope`, adm.Missing()},
		{`t.nope = 1`, adm.Null()},
		{`contains(t.s, "world")`, adm.Bool(true)},
		{`contains(t.s, "bomb")`, adm.Bool(false)},
		{`upper("ab")`, adm.String("AB")},
		{`lower("AB")`, adm.String("ab")},
		{`length(t.s)`, adm.Int(11)},
		{`edit_distance("kitten", "sitting")`, adm.Int(3)},
		{`edit_distance("", "abc")`, adm.Int(3)},
		{`abs(-3)`, adm.Int(3)},
		{`sqrt(9.0)`, adm.Double(3)},
		{`"a" + "b"`, adm.String("ab")},
		{`CASE WHEN t.a = 5 THEN "five" ELSE "other" END`, adm.String("five")},
		{`CASE t.a WHEN 4 THEN "four" WHEN 5 THEN "five" END`, adm.String("five")},
		{`CASE t.a WHEN 4 THEN "four" END`, adm.Null()},
		{`5 IN [1, 2, 5]`, adm.Bool(true)},
		{`5 NOT IN [1, 2, 5]`, adm.Bool(false)},
		{`[1, 2, 3][1]`, adm.Int(2)},
		{`{"k": t.a}.k`, adm.Int(5)},
		{`spatial_distance(create_point(0.0, 0.0), create_point(3.0, 4.0))`, adm.Double(5)},
		{`spatial_intersect(create_point(1.0, 1.0), create_circle(create_point(0.0, 0.0), 1.5))`, adm.Bool(true)},
		{`spatial_intersect(create_point(2.0, 2.0), create_circle(create_point(0.0, 0.0), 1.5))`, adm.Bool(false)},
	}
	for _, tc := range cases {
		got := evalStr(t, cat, env, tc.src)
		if adm.Compare(got, tc.want) != 0 {
			t.Errorf("eval(%s) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEvalDatetimeDurationArith(t *testing.T) {
	cat := newTestCatalog()
	env := Bind(nil, "t", obj("created_at", adm.DateTimeMillis(1_000_000)))
	got := evalStr(t, cat, env, `t.created_at < datetime("2019-08-23T00:00:00Z")`)
	if !got.BoolVal() {
		t.Error("datetime comparison failed")
	}
	got = evalStr(t, cat, env, `t.created_at + duration("PT1S")`)
	if got.DateTimeVal() != 1_001_000 {
		t.Errorf("datetime+duration = %v", got)
	}
	got = evalStr(t, cat, env, `t.created_at - duration("PT1S")`)
	if got.DateTimeVal() != 999_000 {
		t.Errorf("datetime-duration = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	cat := newTestCatalog()
	for _, src := range []string{
		`nosuchvar`,
		`nosuchfn(1)`,
		`lib#nothere(1)`,
		`duration("bogus")`,
		`count(*)`,
	} {
		e, err := sqlpp.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Eval(NewContext(cat), nil, e); err == nil {
			t.Errorf("Eval(%s) should fail", src)
		}
	}
}

func TestEvalNativeNamespacedCall(t *testing.T) {
	cat := newTestCatalog()
	cat.natives["testlib#removeSpecial"] = func(args []adm.Value) (adm.Value, error) {
		s := strings.Map(func(r rune) rune {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
				return r
			}
			return -1
		}, args[0].StringVal())
		return adm.String(strings.ToLower(s)), nil
	}
	env := Bind(nil, "x", obj("user", obj("screen_name", adm.String("Al_i-ce9!"))))
	got := evalStr(t, cat, env, `testlib#removeSpecial(x.user.screen_name)`)
	if got.StringVal() != "alice" {
		t.Errorf("native call = %v", got)
	}
}

func TestEvalCatalogSQLFunction(t *testing.T) {
	cat := newTestCatalog()
	cat.addSQLFunction(t, `CREATE FUNCTION double_it(x) { x + x };`)
	got := evalStr(t, cat, nil, `double_it(21)`)
	if got.IntVal() != 42 {
		t.Errorf("udf call = %v", got)
	}
	// Arity mismatch errors.
	e, _ := sqlpp.ParseExpr(`double_it(1, 2)`)
	if _, err := Eval(NewContext(cat), nil, e); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestEvalRecursionGuard(t *testing.T) {
	cat := newTestCatalog()
	cat.addSQLFunction(t, `CREATE FUNCTION loop_forever(x) { loop_forever(x) };`)
	e, _ := sqlpp.ParseExpr(`loop_forever(1)`)
	if _, err := Eval(NewContext(cat), nil, e); err == nil {
		t.Error("runaway recursion should be caught")
	}
}

// TestEvalLongestChain: the longest operator and accessor chains the
// parser lets through (sqlpp's maxChainLinks) evaluate; the recursion
// they cost is what that bound exists to keep affordable.
func TestEvalLongestChain(t *testing.T) {
	const links = 10_000
	cat := newTestCatalog()
	if v := evalStr(t, cat, nil, "1"+strings.Repeat("+1", links)); v.IntVal() != links+1 {
		t.Errorf("sum of %d ones = %v", links+1, v)
	}
	env := Bind(nil, "t", obj("a", adm.Int(1)))
	if v := evalStr(t, cat, env, "t"+strings.Repeat(".a", links)); !v.IsMissing() {
		t.Errorf("t.a.a... = %v", v)
	}
}

func TestAggregateAsScalarOverArray(t *testing.T) {
	cat := newTestCatalog()
	env := Bind(nil, "xs", adm.Array([]adm.Value{adm.Int(1), adm.Int(2), adm.Int(3), adm.Null()}))
	if got := evalStr(t, cat, env, `sum(xs)`); got.IntVal() != 6 {
		t.Errorf("sum = %v", got)
	}
	if got := evalStr(t, cat, env, `count(xs)`); got.IntVal() != 3 {
		t.Errorf("count = %v (nulls don't count)", got)
	}
	if got := evalStr(t, cat, env, `avg(xs)`); got.DoubleVal() != 2 {
		t.Errorf("avg = %v", got)
	}
	if got := evalStr(t, cat, env, `min(xs)`); got.IntVal() != 1 {
		t.Errorf("min = %v", got)
	}
	if got := evalStr(t, cat, env, `max(xs)`); got.IntVal() != 3 {
		t.Errorf("max = %v", got)
	}
}
