package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// This file is the reference the differential tests and the fuzz target
// compare the engine against: SELECT with straightforward iterate-and-
// filter semantics. Every clause materializes its whole input — FROM
// builds the full tuple list, GROUP BY keeps each group's tuples and
// aggregates re-scan them, ORDER BY is sort.SliceStable, LIMIT a slice
// expression — so there is no cursor, no planner, no accumulator and no
// early-out to get wrong. It is self-contained on purpose: it walks
// expressions itself (a subquery inside a reference query runs on the
// reference, not on the engine) and shares with production only
// value-level helpers — the comparison and arithmetic of two values,
// the builtin function table, the output-field naming rule.
//
// It used to ship as the eager executor behind subqueries and the
// enrichment probe; it stays here because a second, independent
// statement of the semantics is what makes the differential mean
// something.

// oracle is the reference evaluator's state: the context whose pinned
// snapshots it reads (a fresh one per comparison), and the tuples of
// the group the current row stands for.
type oracle struct {
	ctx     *Context
	group   []*Env
	grouped bool // true for a grouped row, even one standing for an empty group
	depth   int
}

// oracleSelect runs a query block on the reference implementation.
func oracleSelect(ctx *Context, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	return oracle{ctx: ctx}.execSelect(env, sel)
}

func (o oracle) ungrouped() oracle {
	o.group, o.grouped = nil, false
	return o
}

func (o oracle) deeper() (oracle, error) {
	o.depth++
	if o.depth > 64 {
		return o, fmt.Errorf("oracle: expression nesting too deep")
	}
	return o, nil
}

// oracleSkippable marks an error raised inside a block the engine may
// legitimately stop before reaching: a SELECT with a LIMIT, the subquery
// of an EXISTS. The oracle evaluates every row of both; a pipeline that
// never pulls the offending row never sees its error.
type oracleSkippable struct{ error }

func (e oracleSkippable) Unwrap() error { return e.error }

func (o oracle) execSelect(env *Env, sel *sqlpp.SelectExpr) (_ adm.Value, err error) {
	if sel.Limit != nil {
		defer func() {
			if err != nil {
				err = oracleSkippable{err}
			}
		}()
	}
	o, err = o.ungrouped().deeper()
	if err != nil {
		return adm.Value{}, err
	}
	for _, l := range sel.Lets {
		v, err := o.eval(env, l.Expr)
		if err != nil {
			return adm.Value{}, err
		}
		env = Bind(env, l.Name, v)
	}

	// FROM fan-out: nested-loop tuple construction.
	tuples := []*Env{env}
	for _, fc := range sel.From {
		var next []*Env
		for _, tu := range tuples {
			coll, err := o.fromCollection(tu, fc.Source)
			if err != nil {
				return adm.Value{}, err
			}
			for _, rec := range coll {
				next = append(next, Bind(tu, fc.Alias, rec))
			}
		}
		tuples = next
	}
	for _, l := range sel.FromLets {
		for i, tu := range tuples {
			v, err := o.eval(tu, l.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			tuples[i] = Bind(tu, l.Name, v)
		}
	}
	if sel.Where != nil {
		kept := tuples[:0]
		for _, tu := range tuples {
			v, err := o.eval(tu, sel.Where)
			if err != nil {
				return adm.Value{}, err
			}
			if Truthy(v) {
				kept = append(kept, tu)
			}
		}
		tuples = kept
	}
	return o.finishSelect(sel, tuples)
}

// fromCollection resolves a FROM source into a record slice: an
// in-scope binding, a dataset (copied whole out of the pinned
// snapshots, partition by partition in key order, every record decoded
// in full — the oracle never reads a record in place, which the engine
// does), or any collection-valued expression.
func (o oracle) fromCollection(env *Env, src sqlpp.Expr) ([]adm.Value, error) {
	if id, ok := src.(*sqlpp.Ident); ok {
		if v, bound := env.Lookup(id.Name); bound {
			return oracleElems(v), nil
		}
		if o.ctx.Catalog != nil {
			if _, isDS := o.ctx.Catalog.Dataset(id.Name); isDS {
				snaps, err := o.ctx.Pin(id.Name)
				if err != nil {
					return nil, err
				}
				var recs []adm.Value
				for _, s := range snaps {
					s.Scan(func(_, rec adm.Value) bool {
						rec, _, err = adm.DecodeBinary(adm.AppendBinary(nil, rec))
						recs = append(recs, rec)
						return err == nil
					})
				}
				return recs, err
			}
		}
		return nil, fmt.Errorf("%w: FROM source %q is neither a binding nor a dataset", ErrUnknownDataset, id.Name)
	}
	v, err := o.eval(env, src)
	if err != nil {
		return nil, err
	}
	return oracleElems(v), nil
}

func oracleElems(v adm.Value) []adm.Value {
	switch v.Kind() {
	case adm.KindArray:
		return v.ArrayVal()
	case adm.KindMissing, adm.KindNull:
		return nil
	default:
		// A single object iterates as a one-element collection.
		return []adm.Value{v}
	}
}

// finishSelect applies grouping, ordering, limiting, projection and
// DISTINCT to the filtered tuple list.
func (o oracle) finishSelect(sel *sqlpp.SelectExpr, tuples []*Env) (adm.Value, error) {
	type row struct {
		env     *Env
		group   []*Env
		grouped bool
	}
	var rows []row
	if len(sel.GroupBy) > 0 || oracleSelectHasAggregate(sel) {
		groups, err := o.groupTuples(sel.GroupBy, tuples)
		if err != nil {
			return adm.Value{}, err
		}
		for _, g := range groups {
			rows = append(rows, row{env: g.repEnv, group: g.tuples, grouped: true})
		}
	} else {
		for _, tu := range tuples {
			rows = append(rows, row{env: tu})
		}
	}
	rowState := func(r row) oracle {
		ro := o
		ro.group, ro.grouped = r.group, r.grouped
		return ro
	}

	if len(sel.OrderBy) > 0 {
		type keyed struct {
			r    row
			keys []adm.Value
		}
		ks := make([]keyed, len(rows))
		for i, r := range rows {
			keys := make([]adm.Value, len(sel.OrderBy))
			for j, ob := range sel.OrderBy {
				v, err := rowState(r).eval(r.env, ob.Expr)
				if err != nil {
					return adm.Value{}, err
				}
				keys[j] = v
			}
			ks[i] = keyed{r, keys}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for j, ob := range sel.OrderBy {
				c := adm.Compare(ks[a].keys[j], ks[b].keys[j])
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		for i := range rows {
			rows[i] = ks[i].r
		}
	}

	// LIMIT n means n output rows: with DISTINCT it applies after
	// projection and dedupe, without it the row list is cut first.
	limit := -1
	if sel.Limit != nil {
		lv, err := o.eval(nil, sel.Limit)
		if err != nil {
			return adm.Value{}, err
		}
		n, ok := lv.AsInt()
		if !ok || n < 0 {
			return adm.Value{}, fmt.Errorf("oracle: LIMIT must be a non-negative integer")
		}
		limit = int(n)
	}
	if limit >= 0 && !sel.Distinct && limit < len(rows) {
		rows = rows[:limit]
	}

	out := make([]adm.Value, 0, len(rows))
	for _, r := range rows {
		v, err := rowState(r).projectRow(r.env, sel)
		if err != nil {
			return adm.Value{}, err
		}
		out = append(out, v)
	}
	if sel.Distinct {
		out = oracleDedupe(out)
		if limit >= 0 && limit < len(out) {
			out = out[:limit]
		}
	}
	return adm.Array(out), nil
}

type oracleGroup struct {
	repEnv *Env
	tuples []*Env
}

// groupTuples partitions tuples by the GROUP BY keys, groups in
// first-seen order. Grouping aliases are bound in the representative
// env (the group's first tuple); an aggregate query without GROUP BY is
// one group of everything, even of nothing.
func (o oracle) groupTuples(keys []sqlpp.GroupKey, tuples []*Env) ([]oracleGroup, error) {
	if len(keys) == 0 {
		var rep *Env
		if len(tuples) > 0 {
			rep = tuples[0]
		}
		return []oracleGroup{{repEnv: rep, tuples: tuples}}, nil
	}
	var groups []oracleGroup
	var groupKeys [][]adm.Value
	for _, tu := range tuples {
		kv := make([]adm.Value, len(keys))
		for i, k := range keys {
			v, err := o.eval(tu, k.Expr)
			if err != nil {
				return nil, err
			}
			kv[i] = v
		}
		found := -1
		for gi := range groups {
			if adm.Equal(adm.Array(groupKeys[gi]), adm.Array(kv)) {
				found = gi
				break
			}
		}
		if found < 0 {
			rep := tu
			for i, k := range keys {
				if k.Alias != "" {
					rep = Bind(rep, k.Alias, kv[i])
				}
			}
			groups = append(groups, oracleGroup{repEnv: rep})
			groupKeys = append(groupKeys, kv)
			found = len(groups) - 1
		}
		groups[found].tuples = append(groups[found].tuples, tu)
	}
	return groups, nil
}

func oracleDedupe(vals []adm.Value) []adm.Value {
	var out []adm.Value
next:
	for _, v := range vals {
		for _, prev := range out {
			if adm.Equal(prev, v) {
				continue next
			}
		}
		out = append(out, v)
	}
	return out
}

func (o oracle) projectRow(env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	if sel.SelectValue != nil {
		return o.eval(env, sel.SelectValue)
	}
	obj := adm.NewObject(len(sel.Projections))
	for i, proj := range sel.Projections {
		switch {
		case proj.Star && proj.Expr == nil:
			// Bare `*`: splice the FROM binding when there is exactly
			// one; otherwise include each alias as a field.
			if len(sel.From) == 1 {
				v, ok := env.Lookup(sel.From[0].Alias)
				if !ok {
					return adm.Value{}, fmt.Errorf("oracle: alias %q not bound", sel.From[0].Alias)
				}
				if v.Kind() == adm.KindObject {
					spliceInto(obj, v)
				} else {
					obj.Set(sel.From[0].Alias, v)
				}
				continue
			}
			for _, fc := range sel.From {
				if v, ok := env.Lookup(fc.Alias); ok {
					obj.Set(fc.Alias, v)
				}
			}
		case proj.Star:
			v, err := o.eval(env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			if v.Kind() != adm.KindObject {
				return adm.Value{}, fmt.Errorf("oracle: .* requires an object, got %s", v.Kind())
			}
			spliceInto(obj, v)
		default:
			v, err := o.eval(env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			obj.Set(projectionName(proj, i), v)
		}
	}
	return adm.ObjectValue(obj), nil
}

// oracleSelectHasAggregate reports whether the SELECT list/value or an
// ORDER BY key contains an aggregate call, which makes the block a
// one-group aggregate query when GROUP BY is absent.
func oracleSelectHasAggregate(sel *sqlpp.SelectExpr) bool {
	if oracleHasAggregate(sel.SelectValue) {
		return true
	}
	for _, p := range sel.Projections {
		if oracleHasAggregate(p.Expr) {
			return true
		}
	}
	for _, ob := range sel.OrderBy {
		if oracleHasAggregate(ob.Expr) {
			return true
		}
	}
	return false
}

// oracleHasAggregate walks an expression looking for aggregate calls,
// without descending into nested SELECT blocks (their aggregates are
// theirs).
func oracleHasAggregate(e sqlpp.Expr) bool {
	any := func(es ...sqlpp.Expr) bool {
		for _, x := range es {
			if x != nil && oracleHasAggregate(x) {
				return true
			}
		}
		return false
	}
	switch n := e.(type) {
	case *sqlpp.Call:
		return (n.Ns == "" && IsAggregate(strings.ToLower(n.Name))) || any(n.Args...)
	case *sqlpp.FieldAccess:
		return any(n.Base)
	case *sqlpp.IndexAccess:
		return any(n.Base, n.Index)
	case *sqlpp.Unary:
		return any(n.X)
	case *sqlpp.Binary:
		return any(n.L, n.R)
	case *sqlpp.CaseExpr:
		for _, w := range n.Whens {
			if any(w.When, w.Then) {
				return true
			}
		}
		return any(n.Operand, n.Else)
	case *sqlpp.In:
		return any(n.X, n.Coll)
	case *sqlpp.ArrayCtor:
		return any(n.Elems...)
	case *sqlpp.ObjectCtor:
		for _, f := range n.Fields {
			if any(f.Val) {
				return true
			}
		}
	}
	return false
}

// aggregate computes an aggregate call over the current group by
// evaluating its argument against every tuple of the group.
func (o oracle) aggregate(call *sqlpp.Call) (adm.Value, error) {
	if call.Star {
		if strings.ToLower(call.Name) != "count" {
			return adm.Value{}, fmt.Errorf("oracle: %s(*) is not a valid aggregate", call.Name)
		}
		return adm.Int(int64(len(o.group))), nil
	}
	if len(call.Args) != 1 {
		return adm.Value{}, fmt.Errorf("oracle: aggregate %s expects 1 argument", call.Name)
	}
	inner := o.ungrouped()
	vals := make([]adm.Value, 0, len(o.group))
	for _, tu := range o.group {
		v, err := inner.eval(tu, call.Args[0])
		if err != nil {
			return adm.Value{}, err
		}
		vals = append(vals, v)
	}
	return oracleAggregateOver(call.Name, vals)
}

// oracleAggregateOver folds an aggregate over a value slice, skipping
// unknown values (SQL semantics).
func oracleAggregateOver(name string, vals []adm.Value) (adm.Value, error) {
	name = strings.ToLower(name)
	switch name {
	case "count":
		n := int64(0)
		for _, v := range vals {
			if !v.IsUnknown() {
				n++
			}
		}
		return adm.Int(n), nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		n := 0
		for _, v := range vals {
			if v.IsUnknown() {
				continue
			}
			f, ok := v.AsDouble()
			if !ok {
				return adm.Null(), nil
			}
			if v.Kind() != adm.KindInt64 {
				allInt = false
			}
			sum += f
			n++
		}
		if n == 0 {
			return adm.Null(), nil
		}
		if name == "avg" {
			return adm.Double(sum / float64(n)), nil
		}
		if allInt {
			return adm.Int(int64(sum)), nil
		}
		return adm.Double(sum), nil
	case "min", "max":
		var best adm.Value
		first := true
		for _, v := range vals {
			if v.IsUnknown() {
				continue
			}
			if first {
				best = v
				first = false
				continue
			}
			c := adm.Compare(v, best)
			if (name == "min" && c < 0) || (name == "max" && c > 0) {
				best = v
			}
		}
		if first {
			return adm.Null(), nil
		}
		return best, nil
	}
	return adm.Value{}, fmt.Errorf("oracle: unknown aggregate %q", name)
}

// eval is the reference expression walker. It mirrors the node-by-node
// rules of the production evaluator (unknowns, short-circuit AND/OR,
// CASE, IN) and hands subqueries, EXISTS and aggregates to the
// reference SELECT above.
func (o oracle) eval(env *Env, e sqlpp.Expr) (adm.Value, error) {
	switch n := e.(type) {
	case *sqlpp.Literal:
		return n.Val, nil
	case *sqlpp.Ident:
		if v, ok := env.Lookup(n.Name); ok {
			return v, nil
		}
		return adm.Value{}, fmt.Errorf("oracle: unbound variable %q", n.Name)
	case *sqlpp.Param:
		if v, ok := o.ctx.Params.Get(n.Name); ok {
			return v, nil
		}
		return adm.Value{}, fmt.Errorf("oracle: unbound parameter $%s", n.Name)
	case *sqlpp.FieldAccess:
		base, err := o.eval(env, n.Base)
		if err != nil {
			return adm.Value{}, err
		}
		return base.Field(n.Field), nil
	case *sqlpp.IndexAccess:
		base, err := o.eval(env, n.Base)
		if err != nil {
			return adm.Value{}, err
		}
		idx, err := o.eval(env, n.Index)
		if err != nil {
			return adm.Value{}, err
		}
		i, ok := idx.AsInt()
		if !ok {
			return adm.Missing(), nil
		}
		return base.Index(int(i)), nil
	case *sqlpp.Call:
		return o.evalCall(env, n)
	case *sqlpp.Unary:
		v, err := o.eval(env, n.X)
		if err != nil {
			return adm.Value{}, err
		}
		switch {
		case n.Op == "NOT" && v.Kind() == adm.KindBoolean:
			return adm.Bool(!v.BoolVal()), nil
		case n.Op == "-" && v.Kind() == adm.KindInt64:
			return adm.Int(-v.IntVal()), nil
		case n.Op == "-" && v.Kind() == adm.KindDouble:
			return adm.Double(-v.DoubleVal()), nil
		case n.Op == "NOT" || n.Op == "-":
			return adm.Null(), nil
		}
		return adm.Value{}, fmt.Errorf("oracle: unknown unary op %q", n.Op)
	case *sqlpp.Binary:
		l, err := o.eval(env, n.L)
		if err != nil {
			return adm.Value{}, err
		}
		if (n.Op == "AND" && !Truthy(l)) || (n.Op == "OR" && Truthy(l)) {
			return adm.Bool(n.Op == "OR"), nil
		}
		r, err := o.eval(env, n.R)
		if err != nil {
			return adm.Value{}, err
		}
		switch n.Op {
		case "AND", "OR":
			return adm.Bool(Truthy(r)), nil
		case "=", "!=", "<", "<=", ">", ">=":
			return compareValues(n.Op, l, r), nil
		case "+", "-", "*", "/", "%":
			return arith(n.Op, l, r)
		}
		return adm.Value{}, fmt.Errorf("oracle: unknown binary op %q", n.Op)
	case *sqlpp.CaseExpr:
		var operand adm.Value
		if n.Operand != nil {
			v, err := o.eval(env, n.Operand)
			if err != nil {
				return adm.Value{}, err
			}
			operand = v
		}
		for _, w := range n.Whens {
			wv, err := o.eval(env, w.When)
			if err != nil {
				return adm.Value{}, err
			}
			if (n.Operand != nil && adm.Equal(operand, wv)) || (n.Operand == nil && Truthy(wv)) {
				return o.eval(env, w.Then)
			}
		}
		if n.Else != nil {
			return o.eval(env, n.Else)
		}
		return adm.Null(), nil
	case *sqlpp.Exists:
		v, err := o.execSelect(env, n.Sub)
		if err != nil {
			return adm.Value{}, oracleSkippable{err}
		}
		return adm.Bool(len(v.ArrayVal()) > 0), nil
	case *sqlpp.In:
		x, err := o.eval(env, n.X)
		if err != nil {
			return adm.Value{}, err
		}
		coll, err := o.eval(env, n.Coll)
		if err != nil {
			return adm.Value{}, err
		}
		if coll.Kind() != adm.KindArray {
			return adm.Null(), nil
		}
		found := false
		for _, el := range coll.ArrayVal() {
			found = found || adm.Equal(x, el)
		}
		return adm.Bool(found != n.Not), nil
	case *sqlpp.SubqueryExpr:
		return o.execSelect(env, n.Sel)
	case *sqlpp.SelectExpr:
		return o.execSelect(env, n)
	case *sqlpp.ArrayCtor:
		elems, err := o.evalAll(env, n.Elems)
		if err != nil {
			return adm.Value{}, err
		}
		return adm.Array(elems), nil
	case *sqlpp.ObjectCtor:
		obj := adm.NewObject(len(n.Fields))
		for _, f := range n.Fields {
			v, err := o.eval(env, f.Val)
			if err != nil {
				return adm.Value{}, err
			}
			obj.Set(f.Key, v)
		}
		return adm.ObjectValue(obj), nil
	}
	return adm.Value{}, fmt.Errorf("oracle: unsupported expression %T", e)
}

func (o oracle) evalAll(env *Env, exprs []sqlpp.Expr) ([]adm.Value, error) {
	vals := make([]adm.Value, len(exprs))
	for i, x := range exprs {
		v, err := o.eval(env, x)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

func (o oracle) evalCall(env *Env, call *sqlpp.Call) (adm.Value, error) {
	if call.Ns == "" && IsAggregate(strings.ToLower(call.Name)) {
		if o.grouped {
			return o.aggregate(call)
		}
		// Outside a group an aggregate is a scalar function over an array.
		if call.Star {
			return adm.Value{}, fmt.Errorf("oracle: %s(*) outside GROUP BY", call.Name)
		}
		if len(call.Args) != 1 {
			return adm.Value{}, fmt.Errorf("oracle: aggregate %s expects 1 argument", call.Name)
		}
		arg, err := o.eval(env, call.Args[0])
		if err != nil {
			return adm.Value{}, err
		}
		if arg.Kind() != adm.KindArray {
			return adm.Null(), nil
		}
		return oracleAggregateOver(call.Name, arg.ArrayVal())
	}

	var native func([]adm.Value) (adm.Value, error)
	var udf *Function
	switch {
	case call.Ns != "":
		fn, ok := o.ctx.Catalog.Native(call.Ns, call.Name)
		if !ok {
			return adm.Value{}, fmt.Errorf("oracle: unknown library function %s#%s", call.Ns, call.Name)
		}
		native = fn
	default:
		if fn, ok := LookupBuiltin(call.Name); ok {
			native = fn
		} else if o.ctx.Catalog != nil {
			udf, _ = o.ctx.Catalog.Function(call.Name)
		}
		if native == nil && udf == nil {
			return adm.Value{}, fmt.Errorf("%w: %q", ErrUnknownFunction, call.Name)
		}
	}
	args, err := o.evalAll(env, call.Args)
	if err != nil {
		return adm.Value{}, err
	}
	switch {
	case native != nil:
		return native(args)
	case len(args) != len(udf.Params):
		return adm.Value{}, fmt.Errorf("oracle: function %s expects %d args, got %d", udf.Name, len(udf.Params), len(args))
	}
	// A SQL++ body evaluates in a fresh environment holding only the
	// parameters (UDFs close over nothing).
	inner, err := o.ungrouped().deeper()
	if err != nil {
		return adm.Value{}, err
	}
	var fenv *Env
	for i, p := range udf.Params {
		fenv = Bind(fenv, p, args[i])
	}
	return inner.eval(fenv, udf.Body)
}
