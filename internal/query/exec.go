package query

import (
	"fmt"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// This file holds the materializing face of the SELECT executor and
// the projection stage. There is one executor — the operator pipeline
// of stream.go, planned in plan_select.go; running a query block to
// completion is opening that pipeline and draining it.

// ExecuteSelect runs a query block to completion and returns its result
// collection.
func ExecuteSelect(ctx *Context, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	return runSelect(evalState{ctx: ctx}, env, sel)
}

// runSelect is a SELECT in expression position — a subquery, a UDF
// body, a const-subquery of the enrichment build phase: open the
// pipeline, drain it into an array.
func runSelect(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	rc, err := openSelect(st, env, sel, nil)
	if err != nil {
		return adm.Value{}, err
	}
	return rc.drain()
}

// projectRow evaluates the SELECT clause for one row (st carries the
// group context of a grouped row so aggregates resolve).
func projectRow(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	if sel.SelectValue != nil {
		return eval(st, env, sel.SelectValue)
	}
	obj := adm.NewObject(len(sel.Projections))
	for i, proj := range sel.Projections {
		switch {
		case proj.Star && proj.Expr == nil:
			// Bare `*`: splice the innermost FROM binding when there is
			// exactly one; otherwise include each alias as a field.
			if len(sel.From) == 1 {
				v, ok := env.Lookup(sel.From[0].Alias)
				if !ok {
					return adm.Value{}, fmt.Errorf("query: alias %q not bound", sel.From[0].Alias)
				}
				if v.Kind() == adm.KindObject {
					spliceInto(obj, v)
					continue
				}
				obj.Set(sel.From[0].Alias, v)
				continue
			}
			for _, fc := range sel.From {
				if v, ok := env.Lookup(fc.Alias); ok {
					obj.Set(fc.Alias, v)
				}
			}
		case proj.Star:
			v, err := eval(st, env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			if v.Kind() != adm.KindObject {
				return adm.Value{}, fmt.Errorf("query: .* requires an object, got %s", v.Kind())
			}
			spliceInto(obj, v)
		default:
			v, err := eval(st, env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			obj.Set(projectionName(proj, i), v)
		}
	}
	return adm.ObjectValue(obj), nil
}

func spliceInto(dst *adm.Object, src adm.Value) {
	o := src.ObjectVal()
	for i := 0; i < o.Len(); i++ {
		dst.Set(o.Name(i), o.At(i))
	}
}

// projectionName derives the output field name: explicit alias, else the
// trailing path segment, else a positional placeholder ($1, $2 ...).
func projectionName(proj sqlpp.Projection, pos int) string {
	if proj.Alias != "" {
		return proj.Alias
	}
	switch e := proj.Expr.(type) {
	case *sqlpp.FieldAccess:
		return e.Field
	case *sqlpp.Ident:
		return e.Name
	}
	return fmt.Sprintf("$%d", pos+1)
}
