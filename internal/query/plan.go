package query

import (
	"fmt"
	"strings"

	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// PlanOptions tunes enrichment compilation.
type PlanOptions struct {
	// DisableIndexes forces per-batch structures instead of index
	// nested-loop joins even when a persistent spatial index exists, or
	// the primary index could answer an equi-join on the primary key (the
	// paper's "Naive Nearby Monuments" query hint).
	DisableIndexes bool
}

// EnrichPlan is a compiled stateful enrichment UDF: the analysis is done
// once (at CREATE FUNCTION / CONNECT FEED time — the predeployed-job
// analog). Prepare builds the enrichment state from fresh snapshots;
// each later computing-job invocation Refreshes it — rebuilding only
// what reference-data writes invalidated — then calls EvalRecord per
// record. This realizes the paper's Model 2: every batch observes the
// reference writes acknowledged before it began, while per-record work
// is a cheap probe.
type EnrichPlan struct {
	// Name is the UDF name (diagnostics only).
	Name  string
	param string
	body  sqlpp.Expr
	subs  map[*sqlpp.SelectExpr]*subPlan
	order []*sqlpp.SelectExpr // deterministic Prepare order
	opts  PlanOptions

	usesDatasets bool
}

type subKind int

const (
	constSub subKind = iota // no free variables: evaluate once per batch
	probeSub                // parameter-correlated: build/probe split
)

type accessKind int

const (
	accessHash     accessKind = iota // build hash table, probe by key
	accessRTree                      // build transient R-tree shards, probe by rect
	accessIndexNLJ                   // probe the dataset's live spatial index
	accessScan                       // materialize and scan per record
	accessPK                         // look the key up in the pinned primary index
)

// exact reports whether an access yields only records its join conjunct
// admits, so the conjunct needs no re-check.
func (k accessKind) exact() bool { return k == accessHash || k == accessPK }

// subPlan is the compile-time shape of one correlated subquery.
type subPlan struct {
	kind     subKind
	sel      *sqlpp.SelectExpr
	accesses []accessPlan
	// residuals are the conjuncts re-checked on each candidate tuple
	// (exact spatial predicates, similarity predicates, time windows).
	residuals []sqlpp.Expr
}

// accessPlan describes how one FROM alias is satisfied: accesses[0] is
// the anchor (probed per incoming record), the rest join outward from
// already-placed aliases.
type accessPlan struct {
	kind    accessKind
	alias   string
	dataset string
	filters []sqlpp.Expr // alias-only conjuncts applied while building

	buildKey sqlpp.Expr // accessHash/PK: key over the alias record
	probeKey sqlpp.Expr // accessHash/PK: key over param/placed bindings

	buildRect sqlpp.Expr // accessRTree: geometry over the alias record
	probeRect sqlpp.Expr // accessRTree/IndexNLJ: geometry over outer bindings

	indexField string  // accessIndexNLJ/PK: indexed field (the primary key for PK)
	expand     float64 // accessIndexNLJ: query-rect expansion radius
}

// CompileEnrich analyzes a unary SQL++ UDF body and produces its
// enrichment plan. Subqueries with no free variables become per-batch
// constants; parameter-correlated subqueries over catalog datasets get
// the build/probe treatment; anything else falls back to generic
// per-record evaluation (still correct, just Model-1-shaped).
func CompileEnrich(name string, params []string, body sqlpp.Expr, cat Catalog, opts PlanOptions) (*EnrichPlan, error) {
	if len(params) != 1 {
		return nil, fmt.Errorf("query: enrichment UDF %s must take exactly one parameter", name)
	}
	plan := &EnrichPlan{
		Name:  name,
		param: params[0],
		body:  body,
		subs:  make(map[*sqlpp.SelectExpr]*subPlan),
		opts:  opts,
	}
	var sels []*sqlpp.SelectExpr
	if root, ok := body.(*sqlpp.SelectExpr); ok && len(root.From) == 0 {
		// The usual UDF shape: LET ... SELECT projection with no FROM.
		// Collect subqueries from its clauses; the root itself is the
		// per-record projection template.
		for _, l := range root.Lets {
			collectSubqueries(l.Expr, &sels)
		}
		collectSubqueries(root.SelectValue, &sels)
		for _, p := range root.Projections {
			collectSubqueries(p.Expr, &sels)
		}
		collectSubqueries(root.Where, &sels)
	} else {
		collectSubqueries(body, &sels)
	}
	for _, sel := range sels {
		sp := plan.classify(sel, cat)
		if sp != nil {
			plan.subs[sel] = sp
			plan.order = append(plan.order, sel)
		}
	}
	return plan, nil
}

// collectSubqueries gathers outermost SELECT blocks used as expressions.
func collectSubqueries(e sqlpp.Expr, out *[]*sqlpp.SelectExpr) {
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		switch n := e.(type) {
		case *sqlpp.SubqueryExpr:
			*out = append(*out, n.Sel)
		case *sqlpp.Exists:
			*out = append(*out, n.Sub)
		case *sqlpp.SelectExpr:
			*out = append(*out, n)
		default:
			return true
		}
		return false
	})
}

// classify decides const / probe / generic (nil) for one subquery.
func (plan *EnrichPlan) classify(sel *sqlpp.SelectExpr, cat Catalog) *subPlan {
	fv := make(map[string]bool)
	freeVarsSelect(sel, nil, fv)
	// Dataset names resolve through the catalog, not the environment.
	for name := range fv {
		if _, ok := cat.Dataset(name); ok {
			delete(fv, name)
			plan.usesDatasets = true
		}
	}
	if len(fv) == 0 {
		return &subPlan{kind: constSub, sel: sel}
	}
	if len(fv) != 1 || !fv[plan.param] {
		return nil // references outer LETs or other names: generic eval
	}
	return plan.compileProbe(sel, cat)
}

// compileProbe performs the anchor/join/residual decomposition.
func (plan *EnrichPlan) compileProbe(sel *sqlpp.SelectExpr, cat Catalog) *subPlan {
	if len(sel.Lets) > 0 || len(sel.From) == 0 {
		return nil
	}
	datasets := make(map[string]string, len(sel.From)) // alias → dataset
	var aliases []string
	for _, fc := range sel.From {
		id, ok := fc.Source.(*sqlpp.Ident)
		if !ok {
			return nil
		}
		if _, isDS := cat.Dataset(id.Name); !isDS {
			return nil
		}
		if _, dup := datasets[fc.Alias]; dup || fc.Alias == "" {
			return nil
		}
		datasets[fc.Alias] = id.Name
		aliases = append(aliases, fc.Alias)
	}
	aliasSet := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		aliasSet[a] = true
	}

	conjuncts := splitConjuncts(sel.Where)
	type conjInfo struct {
		expr       sqlpp.Expr
		aliasRefs  []string
		paramDep   bool
		otherNames bool // references something that is neither param nor alias
	}
	infos := make([]conjInfo, len(conjuncts))
	for i, c := range conjuncts {
		fv := FreeVars(c)
		ci := conjInfo{expr: c}
		for name := range fv {
			switch {
			case aliasSet[name]:
				ci.aliasRefs = append(ci.aliasRefs, name)
			case name == plan.param:
				ci.paramDep = true
			default:
				if _, isDS := cat.Dataset(name); !isDS {
					ci.otherNames = true
				}
			}
		}
		infos[i] = ci
	}

	consumed := make([]bool, len(conjuncts))
	filters := make(map[string][]sqlpp.Expr)

	// Step 1: alias-only conjuncts become build filters.
	for i, ci := range infos {
		if !ci.paramDep && !ci.otherNames && len(ci.aliasRefs) == 1 {
			filters[ci.aliasRefs[0]] = append(filters[ci.aliasRefs[0]], ci.expr)
			consumed[i] = true
		}
	}

	// sideOf classifies an expression side: "" = constants only,
	// alias name = that alias only, "$outer" = param/mixed-placed.
	sideOf := func(e sqlpp.Expr, placed map[string]bool) (aliasOnly string, outerOK bool) {
		fv := FreeVars(e)
		alias := ""
		outer := true
		for name := range fv {
			if aliasSet[name] {
				if placed != nil && placed[name] {
					continue // placed aliases are bound at probe time
				}
				if alias == "" {
					alias = name
				} else if alias != name {
					alias = "$multi"
				}
				outer = false
			} else if name != plan.param {
				if _, isDS := cat.Dataset(name); !isDS {
					return "$other", false
				}
			}
		}
		return alias, outer
	}

	var residuals []sqlpp.Expr

	// makeAccess tries to derive an access plan for alias A from conjunct
	// ci, with `placed` aliases considered bound. Returns nil when the
	// conjunct is not probe-able.
	makeAccess := func(ci conjInfo, placed map[string]bool) *accessPlan {
		if ci.otherNames {
			return nil
		}
		switch e := ci.expr.(type) {
		case *sqlpp.Binary:
			if e.Op != "=" {
				return nil
			}
			la, lOuter := sideOf(e.L, placed)
			ra, rOuter := sideOf(e.R, placed)
			if la != "" && la != "$multi" && la != "$other" && ra == "" && rOuter {
				return plan.equiAccess(la, datasets[la], e.L, e.R, cat)
			}
			if ra != "" && ra != "$multi" && ra != "$other" && la == "" && lOuter {
				return plan.equiAccess(ra, datasets[ra], e.R, e.L, cat)
			}
		case *sqlpp.Call:
			if e.Ns != "" || strings.ToLower(e.Name) != "spatial_intersect" || len(e.Args) != 2 {
				return nil
			}
			la, lOuter := sideOf(e.Args[0], placed)
			ra, rOuter := sideOf(e.Args[1], placed)
			if la != "" && la != "$multi" && la != "$other" && ra == "" && rOuter {
				return plan.spatialAccess(la, datasets[la], e.Args[0], e.Args[1], cat)
			}
			if ra != "" && ra != "$multi" && ra != "$other" && la == "" && lOuter {
				return plan.spatialAccess(ra, datasets[ra], e.Args[1], e.Args[0], cat)
			}
		}
		return nil
	}

	// Step 2: pick the anchor — prefer an equi-join over spatial over scan.
	var anchor *accessPlan
	anchorConj := -1
	for pass := 0; pass < 2 && anchor == nil; pass++ {
		for i, ci := range infos {
			if consumed[i] || !ci.paramDep || len(ci.aliasRefs) != 1 {
				continue
			}
			acc := makeAccess(ci, nil)
			if acc == nil {
				continue
			}
			if pass == 0 && !acc.kind.exact() {
				continue
			}
			anchor = acc
			anchorConj = i
			break
		}
	}
	if anchor == nil {
		// Scan anchor: an alias referenced by a param-dependent conjunct,
		// else the first alias.
		target := aliases[0]
		for _, ci := range infos {
			if ci.paramDep && len(ci.aliasRefs) == 1 {
				target = ci.aliasRefs[0]
				break
			}
		}
		anchor = &accessPlan{kind: accessScan, alias: target, dataset: datasets[target]}
	} else {
		consumed[anchorConj] = true
		if !anchor.kind.exact() {
			// Spatial anchors are approximate: re-check the predicate.
			residuals = append(residuals, infos[anchorConj].expr)
		}
	}
	anchor.filters = filters[anchor.alias]

	accesses := []accessPlan{*anchor}
	placed := map[string]bool{anchor.alias: true}

	// Step 3: place remaining aliases by following join predicates.
	for len(placed) < len(aliases) {
		progressed := false
		for i, ci := range infos {
			if consumed[i] {
				continue
			}
			// Exactly one unplaced alias, everything else placed/outer.
			unplaced := ""
			ok := true
			for _, a := range ci.aliasRefs {
				if placed[a] {
					continue
				}
				if unplaced != "" && unplaced != a {
					ok = false
					break
				}
				unplaced = a
			}
			if !ok || unplaced == "" {
				continue
			}
			acc := makeAccess(ci, placed)
			if acc == nil || acc.alias != unplaced {
				continue
			}
			// Index-NLJ only makes sense for the anchor; joined aliases
			// use batch structures (the index probe fan-out would repeat
			// per candidate anyway, but keep the paper's plan shape).
			if acc.kind == accessIndexNLJ {
				acc.kind = accessRTree
			}
			consumed[i] = true
			if !acc.kind.exact() {
				residuals = append(residuals, ci.expr)
			}
			acc.filters = filters[acc.alias]
			accesses = append(accesses, *acc)
			placed[acc.alias] = true
			progressed = true
			break
		}
		if !progressed {
			// Cartesian fallback for an unconstrained alias.
			for _, a := range aliases {
				if !placed[a] {
					accesses = append(accesses, accessPlan{
						kind: accessScan, alias: a, dataset: datasets[a],
						filters: filters[a],
					})
					placed[a] = true
					break
				}
			}
		}
	}

	// Step 4: everything unconsumed is a residual.
	for i, ci := range infos {
		if !consumed[i] {
			residuals = append(residuals, ci.expr)
		}
	}

	return &subPlan{kind: probeSub, sel: sel, accesses: accesses, residuals: residuals}
}

// equiAccess is the access for alias on buildKey = probeKey: a lookup in
// the pinned primary index when buildKey is exactly the alias's primary
// key — an index nested-loop join that builds nothing — unless the naive
// hint asks for the per-batch structure, and a hash table otherwise.
func (plan *EnrichPlan) equiAccess(alias, dataset string, buildKey, probeKey sqlpp.Expr, cat Catalog) *accessPlan {
	acc := &accessPlan{kind: accessHash, alias: alias, dataset: dataset, buildKey: buildKey, probeKey: probeKey}
	if plan.opts.DisableIndexes {
		return acc
	}
	field, ok := aliasField(buildKey, alias)
	if ds, found := cat.Dataset(dataset); ok && found && field == ds.PrimaryKey() {
		acc.kind, acc.indexField = accessPK, field
	}
	return acc
}

// spatialAccess builds the R-tree (or index-NLJ) access for a spatial
// predicate whose aliasExpr side covers the dataset records and whose
// probeExpr side is evaluated per incoming record.
func (plan *EnrichPlan) spatialAccess(alias, dataset string, aliasExpr, probeExpr sqlpp.Expr, cat Catalog) *accessPlan {
	acc := &accessPlan{
		kind: accessRTree, alias: alias, dataset: dataset,
		buildRect: aliasExpr, probeRect: probeExpr,
	}
	if plan.opts.DisableIndexes {
		return acc
	}
	field, radius, ok := fieldWithRadius(aliasExpr, alias)
	if !ok {
		return acc
	}
	ds, found := cat.Dataset(dataset)
	if !found || ds.RTreeIndexForField(field) == nil {
		return acc
	}
	acc.kind = accessIndexNLJ
	acc.indexField = field
	acc.expand = radius
	return acc
}

// fieldWithRadius recognizes the two indexable alias-side shapes:
// alias.field (radius 0) and create_circle(alias.field, const).
func fieldWithRadius(e sqlpp.Expr, alias string) (string, float64, bool) {
	if fa, ok := aliasField(e, alias); ok {
		return fa, 0, true
	}
	call, ok := e.(*sqlpp.Call)
	if !ok || call.Ns != "" || strings.ToLower(call.Name) != "create_circle" || len(call.Args) != 2 {
		return "", 0, false
	}
	field, ok := aliasField(call.Args[0], alias)
	if !ok {
		return "", 0, false
	}
	lit, ok := call.Args[1].(*sqlpp.Literal)
	if !ok {
		return "", 0, false
	}
	r, ok := lit.Val.AsDouble()
	if !ok {
		return "", 0, false
	}
	return field, r, true
}

// Describe reports the chosen strategy per compiled subquery; tests
// assert on it.
func (plan *EnrichPlan) Describe() []string {
	var out []string
	for _, sel := range plan.order {
		sp := plan.subs[sel]
		if sp.kind == constSub {
			out = append(out, "const")
			continue
		}
		desc := ""
		for i, acc := range sp.accesses {
			if i > 0 {
				desc += " + "
			}
			switch acc.kind {
			case accessHash:
				desc += fmt.Sprintf("hash(%s)", acc.dataset)
			case accessRTree:
				desc += fmt.Sprintf("rtree(%s)", acc.dataset)
			case accessIndexNLJ:
				desc += fmt.Sprintf("indexnlj(%s.%s)", acc.dataset, acc.indexField)
			case accessScan:
				desc += fmt.Sprintf("scan(%s)", acc.dataset)
			case accessPK:
				desc += fmt.Sprintf("pk(%s)", acc.dataset)
			}
		}
		out = append(out, fmt.Sprintf("%s, %d residual(s)", desc, len(sp.residuals)))
	}
	return out
}

// Stateless reports whether the UDF touches no reference data at all —
// the paper's stateless class, the only kind the old streaming pipeline
// can evaluate correctly.
func (plan *EnrichPlan) Stateless() bool { return !plan.usesDatasets }

// KeepsNoInput reports whether the body calls only builtins and
// aggregates, so nothing it runs can keep the record EvalRecord is given
// once the call returns: a caller may then rewrite that record's bytes
// for the next one. A library call (ns#f) may stash its arguments, and a
// catalog UDF may make such a call, so either makes the answer false.
func (plan *EnrichPlan) KeepsNoInput() bool { return callsOnlyBuiltins(plan.body) }

// callsOnlyBuiltins reports whether every call in e, at any depth, is a
// builtin or an aggregate: nothing e runs can keep a value it is handed.
func callsOnlyBuiltins(e sqlpp.Expr) bool {
	keeps := false
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		if call, ok := e.(*sqlpp.Call); ok && !keeps {
			_, builtin := LookupBuiltin(call.Name)
			keeps = call.Ns != "" || !builtin && !IsAggregate(strings.ToLower(call.Name))
		}
		return !keeps
	})
	return !keeps
}

// datasetFor resolves at prepare time.
func datasetFor(cat Catalog, name string) (*lsm.Dataset, error) {
	ds, ok := cat.Dataset(name)
	if !ok {
		return nil, fmt.Errorf("query: unknown dataset %q", name)
	}
	return ds, nil
}
