package query

import (
	"fmt"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// Eval evaluates a SQL++ expression in the given environment. It is the
// public entry point for ad-hoc expression evaluation; a SELECT inside
// the expression runs on the cursor engine like any other (runSelect).
func Eval(ctx *Context, env *Env, e sqlpp.Expr) (adm.Value, error) {
	return eval(evalState{ctx: ctx}, env, e)
}

func eval(st evalState, env *Env, e sqlpp.Expr) (adm.Value, error) {
	switch n := e.(type) {
	case *sqlpp.Literal:
		return n.Val, nil
	case *sqlpp.Ident:
		if v, ok := env.Lookup(n.Name); ok {
			return v, nil
		}
		return adm.Value{}, fmt.Errorf("query: unbound variable %q", n.Name)
	case *sqlpp.Param:
		if v, ok := st.ctx.Params.Get(n.Name); ok {
			return v, nil
		}
		return adm.Value{}, fmt.Errorf("query: unbound parameter $%s (offset %d): no argument was supplied", n.Name, n.Off)
	case *sqlpp.FieldAccess:
		base, err := eval(st, env, n.Base)
		if err != nil {
			return adm.Value{}, err
		}
		return base.Field(n.Field), nil
	case *sqlpp.IndexAccess:
		base, err := eval(st, env, n.Base)
		if err != nil {
			return adm.Value{}, err
		}
		idx, err := eval(st, env, n.Index)
		if err != nil {
			return adm.Value{}, err
		}
		i, ok := idx.AsInt()
		if !ok {
			return adm.Missing(), nil
		}
		return base.Index(int(i)), nil
	case *sqlpp.Call:
		return evalCall(st, env, n)
	case *sqlpp.Unary:
		return evalUnary(st, env, n)
	case *sqlpp.Binary:
		return evalBinary(st, env, n)
	case *sqlpp.CaseExpr:
		return evalCase(st, env, n)
	case *sqlpp.Exists:
		return evalExists(st, env, n)
	case *sqlpp.In:
		return evalIn(st, env, n)
	case *sqlpp.SubqueryExpr:
		return evalSubquery(st, env, n.Sel)
	case *sqlpp.ArrayCtor:
		elems := make([]adm.Value, len(n.Elems))
		for i, el := range n.Elems {
			v, err := eval(st, env, el)
			if err != nil {
				return adm.Value{}, err
			}
			elems[i] = v
		}
		return adm.Array(elems), nil
	case *sqlpp.ObjectCtor:
		o := adm.NewObject(len(n.Fields))
		for _, f := range n.Fields {
			v, err := eval(st, env, f.Val)
			if err != nil {
				return adm.Value{}, err
			}
			o.Set(f.Key, v)
		}
		return adm.ObjectValue(o), nil
	case *sqlpp.SelectExpr:
		return evalSubquery(st, env, n)
	}
	return adm.Value{}, fmt.Errorf("query: unsupported expression %T", e)
}

// evalSubquery evaluates a SELECT used as an expression: a const
// subquery of the enrichment state is the result its build phase
// computed; anything else, a compiled probe included, opens its
// pipeline and drains it.
func evalSubquery(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	if st.prepared != nil {
		if pc := st.prepared.consts[sel]; pc != nil {
			return pc.val, nil
		}
	}
	return runSelect(st, env, sel)
}

func evalCall(st evalState, env *Env, call *sqlpp.Call) (adm.Value, error) {
	// Aggregates: in a group context the hash aggregate already folded
	// the group into per-call accumulators; outside one the call is a
	// scalar function over an array, folded through the same accumulator.
	if call.Ns == "" && IsAggregate(strings.ToLower(call.Name)) {
		if st.aggVals != nil {
			// A call missing from the map means the collector failed to
			// enumerate it.
			if v, ok := st.aggVals[call]; ok {
				return v, nil
			}
			return adm.Value{}, fmt.Errorf("query: internal: aggregate %s not pre-accumulated", call.Name)
		}
		if call.Star {
			return adm.Value{}, fmt.Errorf("query: %s(*) outside GROUP BY", call.Name)
		}
		acc, err := newAggAcc(call)
		if err != nil {
			return adm.Value{}, err
		}
		arg, err := eval(st, env, acc.arg)
		if err != nil {
			return adm.Value{}, err
		}
		if arg.Kind() != adm.KindArray {
			return adm.Null(), nil
		}
		for _, v := range arg.ArrayVal() {
			acc.fold(v)
		}
		return acc.final()
	}

	// Namespaced (library) call — the Java UDF escape hatch.
	if call.Ns != "" {
		fn, ok := st.ctx.Catalog.Native(call.Ns, call.Name)
		if !ok {
			return adm.Value{}, fmt.Errorf("query: unknown library function %s#%s", call.Ns, call.Name)
		}
		args, err := evalArgs(st, env, call.Args)
		if err != nil {
			return adm.Value{}, err
		}
		return fn(args)
	}

	if fn, ok := LookupBuiltin(call.Name); ok {
		args, err := evalArgs(st, env, call.Args)
		if err != nil {
			return adm.Value{}, err
		}
		return fn(args)
	}

	// Catalog UDF.
	if st.ctx.Catalog != nil {
		if udf, ok := st.ctx.Catalog.Function(call.Name); ok {
			args, err := evalArgs(st, env, call.Args)
			if err != nil {
				return adm.Value{}, err
			}
			return CallFunction(st, udf, args)
		}
	}
	return adm.Value{}, fmt.Errorf("%w: %q", ErrUnknownFunction, call.Name)
}

func evalArgs(st evalState, env *Env, exprs []sqlpp.Expr) ([]adm.Value, error) {
	args := make([]adm.Value, len(exprs))
	for i, a := range exprs {
		v, err := eval(st, env, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// Call invokes a catalog function with already-evaluated arguments in a
// fresh context (the public-API entry point).
func Call(cat Catalog, fn *Function, args []adm.Value) (adm.Value, error) {
	return CallFunction(evalState{ctx: NewContext(cat)}, fn, args)
}

// CallFunction invokes a catalog function with already-evaluated
// arguments. Its body evaluates in a fresh environment containing only
// the parameters (UDFs close over nothing).
func CallFunction(st evalState, fn *Function, args []adm.Value) (adm.Value, error) {
	if len(args) != len(fn.Params) {
		return adm.Value{}, fmt.Errorf("query: function %s expects %d args, got %d",
			fn.Name, len(fn.Params), len(args))
	}
	st2, err := st.deeper()
	if err != nil {
		return adm.Value{}, err
	}
	var env *Env
	for i, p := range fn.Params {
		env = Bind(env, p, args[i])
	}
	return eval(st2.noGroup(), env, fn.Body)
}

func evalUnary(st evalState, env *Env, n *sqlpp.Unary) (adm.Value, error) {
	v, err := eval(st, env, n.X)
	if err != nil {
		return adm.Value{}, err
	}
	switch n.Op {
	case "NOT":
		if v.Kind() != adm.KindBoolean {
			return adm.Null(), nil
		}
		return adm.Bool(!v.BoolVal()), nil
	case "-":
		switch v.Kind() {
		case adm.KindInt64:
			return adm.Int(-v.IntVal()), nil
		case adm.KindDouble:
			return adm.Double(-v.DoubleVal()), nil
		}
		return adm.Null(), nil
	}
	return adm.Value{}, fmt.Errorf("query: unknown unary op %q", n.Op)
}

func evalBinary(st evalState, env *Env, n *sqlpp.Binary) (adm.Value, error) {
	// Short-circuit logical operators.
	switch n.Op {
	case "AND":
		l, err := eval(st, env, n.L)
		if err != nil {
			return adm.Value{}, err
		}
		if !Truthy(l) {
			return adm.Bool(false), nil
		}
		r, err := eval(st, env, n.R)
		if err != nil {
			return adm.Value{}, err
		}
		return adm.Bool(Truthy(r)), nil
	case "OR":
		l, err := eval(st, env, n.L)
		if err != nil {
			return adm.Value{}, err
		}
		if Truthy(l) {
			return adm.Bool(true), nil
		}
		r, err := eval(st, env, n.R)
		if err != nil {
			return adm.Value{}, err
		}
		return adm.Bool(Truthy(r)), nil
	}

	l, err := eval(st, env, n.L)
	if err != nil {
		return adm.Value{}, err
	}
	r, err := eval(st, env, n.R)
	if err != nil {
		return adm.Value{}, err
	}
	switch n.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		return compareValues(n.Op, l, r), nil
	case "+", "-", "*", "/", "%":
		return arith(n.Op, l, r)
	}
	return adm.Value{}, fmt.Errorf("query: unknown binary op %q", n.Op)
}

// Truthy implements filter semantics: only boolean TRUE passes (the
// simplified two-valued logic this engine uses; unknowns are falsy).
func Truthy(v adm.Value) bool {
	return v.Kind() == adm.KindBoolean && v.BoolVal()
}

// compareValues implements comparison with numeric promotion. Unknown
// operands or cross-kind comparisons yield NULL (falsy).
func compareValues(op string, l, r adm.Value) adm.Value {
	if l.IsUnknown() || r.IsUnknown() {
		return adm.Null()
	}
	sameFamily := l.Kind() == r.Kind() ||
		(l.Kind().IsNumeric() && r.Kind().IsNumeric())
	if !sameFamily {
		if op == "!=" {
			return adm.Bool(true)
		}
		if op == "=" {
			return adm.Bool(false)
		}
		return adm.Null()
	}
	c := adm.Compare(l, r)
	switch op {
	case "=":
		return adm.Bool(c == 0)
	case "!=":
		return adm.Bool(c != 0)
	case "<":
		return adm.Bool(c < 0)
	case "<=":
		return adm.Bool(c <= 0)
	case ">":
		return adm.Bool(c > 0)
	default:
		return adm.Bool(c >= 0)
	}
}

func arith(op string, l, r adm.Value) (adm.Value, error) {
	// datetime + duration (both operand orders), the Q8 pattern.
	if op == "+" {
		if l.Kind() == adm.KindDateTime && r.Kind() == adm.KindDuration {
			return adm.AddDuration(l, r), nil
		}
		if l.Kind() == adm.KindDuration && r.Kind() == adm.KindDateTime {
			return adm.AddDuration(r, l), nil
		}
	}
	if op == "-" && l.Kind() == adm.KindDateTime && r.Kind() == adm.KindDuration {
		months, millis := r.DurationVal()
		return adm.AddDuration(l, adm.Duration(-months, -millis)), nil
	}
	if l.IsUnknown() || r.IsUnknown() {
		return adm.Null(), nil
	}
	if l.Kind() == adm.KindString && r.Kind() == adm.KindString && op == "+" {
		return adm.String(l.StringVal() + r.StringVal()), nil
	}
	if !l.Kind().IsNumeric() || !r.Kind().IsNumeric() {
		return adm.Null(), nil
	}
	if l.Kind() == adm.KindInt64 && r.Kind() == adm.KindInt64 && op != "/" {
		a, b := l.IntVal(), r.IntVal()
		switch op {
		case "+":
			return adm.Int(a + b), nil
		case "-":
			return adm.Int(a - b), nil
		case "*":
			return adm.Int(a * b), nil
		case "%":
			if b == 0 {
				return adm.Null(), nil
			}
			return adm.Int(a % b), nil
		}
	}
	a, _ := l.AsDouble()
	b, _ := r.AsDouble()
	switch op {
	case "+":
		return adm.Double(a + b), nil
	case "-":
		return adm.Double(a - b), nil
	case "*":
		return adm.Double(a * b), nil
	case "%":
		return adm.Double(mod(a, b)), nil
	default: // "/"
		if b == 0 {
			return adm.Null(), nil
		}
		return adm.Double(a / b), nil
	}
}

func mod(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a - b*float64(int64(a/b))
}

func evalCase(st evalState, env *Env, n *sqlpp.CaseExpr) (adm.Value, error) {
	if n.Operand != nil {
		op, err := eval(st, env, n.Operand)
		if err != nil {
			return adm.Value{}, err
		}
		for _, w := range n.Whens {
			wv, err := eval(st, env, w.When)
			if err != nil {
				return adm.Value{}, err
			}
			if adm.Equal(op, wv) {
				return eval(st, env, w.Then)
			}
		}
	} else {
		for _, w := range n.Whens {
			wv, err := eval(st, env, w.When)
			if err != nil {
				return adm.Value{}, err
			}
			if Truthy(wv) {
				return eval(st, env, w.Then)
			}
		}
	}
	if n.Else != nil {
		return eval(st, env, n.Else)
	}
	return adm.Null(), nil
}

func evalExists(st evalState, env *Env, n *sqlpp.Exists) (adm.Value, error) {
	if st.prepared != nil {
		if pc := st.prepared.consts[n.Sub]; pc != nil {
			return adm.Bool(len(pc.val.ArrayVal()) > 0), nil
		}
	}
	// One row answers the question; closing the cursor there stops the
	// scan (and any scan workers), or a compiled probe, without reading
	// the rest.
	rc, err := openSelect(st, env, n.Sub)
	if err != nil {
		return adm.Value{}, err
	}
	_, found, err := rc.Next()
	rc.Close()
	if err != nil {
		return adm.Value{}, err
	}
	return adm.Bool(found), nil
}

func evalIn(st evalState, env *Env, n *sqlpp.In) (adm.Value, error) {
	x, err := eval(st, env, n.X)
	if err != nil {
		return adm.Value{}, err
	}
	coll, err := eval(st, env, n.Coll)
	if err != nil {
		return adm.Value{}, err
	}
	if coll.Kind() != adm.KindArray {
		return adm.Null(), nil
	}
	found := false
	for _, e := range coll.ArrayVal() {
		if adm.Equal(x, e) {
			found = true
			break
		}
	}
	if n.Not {
		found = !found
	}
	return adm.Bool(found), nil
}
