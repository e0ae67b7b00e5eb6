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
	rc, err := openSelect(st, env, sel)
	if err != nil {
		return adm.Value{}, err
	}
	return rc.drain()
}

// projectRow evaluates the SELECT clause for one row (st carries the
// group context of a grouped row so aggregates resolve). What the row is
// built from decides how: star sources that are views of stored or
// ingested records are spliced as bytes and the row is a view too
// (adm.AppendRow — `SELECT t.*, extra` is every enrichment UDF's body);
// anything else, and any row in which a name repeats, is an Object
// filled field by field. Both encode to the same bytes. A spliced row is
// written into *dst's spare capacity when dst is non-nil and has room
// for it, and *dst is extended over it.
func projectRow(st evalState, env *Env, sel *sqlpp.SelectExpr, dst *[]byte) (adm.Value, error) {
	if sel.SelectValue != nil {
		return eval(st, env, sel.SelectValue)
	}
	var few [4]adm.RowPart
	parts := few[:0]
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
				parts = append(parts, adm.RowPart{Name: sel.From[0].Alias, Val: v, Star: v.Kind() == adm.KindObject})
				continue
			}
			for _, fc := range sel.From {
				if v, ok := env.Lookup(fc.Alias); ok {
					parts = append(parts, adm.RowPart{Name: fc.Alias, Val: v})
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
			parts = append(parts, adm.RowPart{Val: v, Star: true})
		default:
			v, err := eval(st, env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			parts = append(parts, adm.RowPart{Name: projectionName(proj, i), Val: v})
		}
	}
	var buf []byte
	if dst != nil {
		buf = *dst
	}
	if buf, row, ok := adm.AppendRow(buf, parts); ok {
		if dst != nil {
			*dst = buf
		}
		return row, nil
	}
	// Size the object before filling it, so its spines are allocated
	// once; a star source that is a view is decoded here, once.
	n := len(parts)
	for i := range parts {
		if p := &parts[i]; p.Star {
			o := p.Val.ObjectVal()
			p.Val = adm.ObjectValue(o)
			n-- // the star itself is no field
			if o != nil {
				n += o.Len()
			}
		}
	}
	obj := adm.NewObject(n)
	for _, p := range parts {
		if p.Star {
			spliceInto(obj, p.Val)
			continue
		}
		obj.Set(p.Name, p.Val)
	}
	return adm.ObjectValue(obj), nil
}

func spliceInto(dst *adm.Object, src adm.Value) {
	o := src.ObjectVal()
	for i := 0; o != nil && i < o.Len(); i++ {
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
