package query

import (
	"github.com/ideadb/idea/internal/sqlpp"
)

// FreeVars returns the unbound variable names referenced by an
// expression, respecting SQL++ scoping (LETs, FROM aliases, and GROUP BY
// aliases bind names for the clauses that follow them). Dataset names in
// FROM position are reported as free too; callers subtract the names the
// catalog can resolve.
func FreeVars(e sqlpp.Expr) map[string]bool {
	out := make(map[string]bool)
	freeVarsExpr(e, nil, out)
	return out
}

// freeVarsExpr adds to out the names e references that bound does not
// hold. A SELECT block binds names for its later clauses, so the walk
// hands each one to freeVarsSelect instead of entering it.
func freeVarsExpr(e sqlpp.Expr, bound map[string]bool, out map[string]bool) {
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		switch n := e.(type) {
		case *sqlpp.Ident:
			if !bound[n.Name] {
				out[n.Name] = true
			}
		case *sqlpp.Exists:
			freeVarsSelect(n.Sub, bound, out)
			return false
		case *sqlpp.SubqueryExpr:
			freeVarsSelect(n.Sel, bound, out)
			return false
		case *sqlpp.SelectExpr:
			freeVarsSelect(n, bound, out)
			return false
		}
		return true
	})
}

// freeVarsSelect walks a SELECT block's clauses in scoping order: LETs,
// FROM aliases and GROUP BY aliases bind names for the clauses after them.
func freeVarsSelect(sel *sqlpp.SelectExpr, bound map[string]bool, out map[string]bool) {
	if sel == nil {
		return
	}
	local := make(map[string]bool, len(bound)+4)
	for k := range bound {
		local[k] = true
	}
	for _, l := range sel.Lets {
		freeVarsExpr(l.Expr, local, out)
		local[l.Name] = true
	}
	for _, fc := range sel.From {
		freeVarsExpr(fc.Source, local, out)
		local[fc.Alias] = true
	}
	for _, l := range sel.FromLets {
		freeVarsExpr(l.Expr, local, out)
		local[l.Name] = true
	}
	freeVarsExpr(sel.Where, local, out)
	for _, gk := range sel.GroupBy {
		freeVarsExpr(gk.Expr, local, out)
	}
	for _, gk := range sel.GroupBy {
		if gk.Alias != "" {
			local[gk.Alias] = true
		}
	}
	freeVarsExpr(sel.SelectValue, local, out)
	for _, p := range sel.Projections {
		freeVarsExpr(p.Expr, local, out)
	}
	for _, ob := range sel.OrderBy {
		freeVarsExpr(ob.Expr, local, out)
	}
	freeVarsExpr(sel.Limit, local, out)
}

// splitConjuncts flattens an AND chain into its conjuncts.
func splitConjuncts(e sqlpp.Expr) []sqlpp.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlpp.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlpp.Expr{e}
}
