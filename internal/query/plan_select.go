package query

import (
	"fmt"
	"strings"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// ExecuteSelectCursor plans and opens a pull cursor for a query block.
// Leading LETs and the LIMIT expression are evaluated eagerly (they are
// bound once per query); everything downstream is pulled lazily.
//
// Planning decisions, in order:
//
//  1. Index pushdown — an equality or range conjunct on a
//     field-indexed column of the first FROM dataset becomes a
//     secondary-index range probe resolved through the primary,
//     instead of a full scan. The full WHERE stays as a residual
//     filter, so over-approximate postings (cross-typed keys inside
//     the range, stale-but-matching entries) never leak. Only the
//     outermost SELECT, and only when it pinned the dataset itself:
//     the probe reads the live index, which agrees with the snapshots
//     at the instant of the pin and not for a nested SELECT opened
//     later against it.
//  2. Parallel partition scan — a multi-partition dataset scanned by a
//     blocking consumer (GROUP BY / ORDER BY) or an unbounded one
//     (no LIMIT) scans its partitions concurrently. Partition-order
//     merge keeps output byte-identical to the serial scan; ORDER BY
//     on the primary key ascending upgrades to a global key-order
//     merge that replaces the sort; an order-insensitive aggregate
//     (count/min/max, no GROUP BY) fans in unordered. Concurrency-safe
//     WHERE conjuncts are evaluated inside the scan workers. Only the
//     outermost SELECT of an evaluation scans in parallel: a nested
//     one (subquery, UDF body) may run once per outer row, and a set of
//     scan workers per row costs more than it overlaps.
//  3. Serial scan — everything else.
//
// A row may be transient (RowCursor.Transient): the caller must copy
// what it keeps of such a row before it calls Next again.
func ExecuteSelectCursor(ctx *Context, env *Env, sel *sqlpp.SelectExpr) (*RowCursor, error) {
	return openBlock(evalState{ctx: ctx}, env, sel, nil)
}

// openSelect enters a query block — one nesting level down, outside any
// enclosing group context — binds its leading LETs and opens its
// operator pipeline. A block the enrichment state compiled into a probe
// is the one exception, and this is the only place that knows it: its
// prepared accesses supply the FROM product (no LETs, no pins) at the
// level of the expression that opened it. While a record is enriched,
// the body's and each probe's pipeline is kept and rewound instead of
// opened anew (keptPipeline).
func openSelect(st evalState, env *Env, sel *sqlpp.SelectExpr) (*RowCursor, error) {
	var ps *preparedSub
	if st.prepared != nil {
		ps = st.prepared.probes[sel]
	}
	if kp := st.scratch.pipeline(sel, ps); kp != nil {
		return kp.open(st, env, sel, ps)
	}
	return openBlock(st, env, sel, ps)
}

// openBlock is openSelect with no kept pipeline: every operator is built.
func openBlock(st evalState, env *Env, sel *sqlpp.SelectExpr, ps *preparedSub) (*RowCursor, error) {
	if ps != nil {
		return openPipeline(st.noGroup(), env, sel, ps, false)
	}
	st, err := st.deeper()
	if err != nil {
		return nil, err
	}
	st = st.noGroup()
	for _, l := range sel.Lets {
		v, err := eval(st, env, l.Expr)
		if err != nil {
			return nil, err
		}
		env = Bind(env, l.Name, v)
	}

	// Pin the snapshots of every dataset named in FROM position now,
	// before returning the cursor: the caller's consistency contract is
	// "the data as of the Query call", not "as of the first Next".
	// (Datasets touched only inside subqueries or UDFs pin on first
	// access, per the Context rule.)
	scope := env
	livePin := false // this call took the first FROM dataset's snapshots
	for i, fc := range sel.From {
		if id, isIdent := fc.Source.(*sqlpp.Ident); isIdent {
			if _, bound := scope.Lookup(id.Name); !bound && st.ctx.Catalog != nil {
				if _, isDS := st.ctx.Catalog.Dataset(id.Name); isDS {
					_, took, err := st.ctx.pin(id.Name)
					if err != nil {
						return nil, err
					}
					if i == 0 {
						livePin = took
					}
				}
			}
		}
		// Later FROM clauses may reference this alias; approximate the
		// scope by binding it to MISSING (only presence matters here).
		scope = Bind(scope, fc.Alias, adm.Missing())
	}
	return openPipeline(st, env, sel, nil, livePin)
}

// openPipeline evaluates LIMIT, assembles the operators and wraps them
// in the cursor that projects, dedupes and counts rows out. ps, when
// non-nil, is a compiled enrichment probe whose FROM product
// (preparedSub.open) stands in for the FROM, LET and WHERE operators.
// livePin says the caller pinned the first FROM dataset just now (see
// planScanLeaf).
func openPipeline(st evalState, env *Env, sel *sqlpp.SelectExpr, ps *preparedSub, livePin bool) (*RowCursor, error) {
	rc := &RowCursor{st: st, sel: sel, limit: -1}
	if sel.Limit != nil {
		lv, err := eval(st, nil, sel.Limit)
		if err != nil {
			return nil, err
		}
		n, ok := lv.AsInt()
		if !ok || n < 0 {
			return nil, fmt.Errorf("query: LIMIT must be a non-negative integer")
		}
		rc.limit = n
	}
	rc.limit0 = rc.limit
	rows, err := planSelect(st, env, sel, rc.limit, ps, livePin)
	if err != nil {
		return nil, err
	}
	rc.rows = rows
	if sel.Distinct {
		rc.dedup = newValueDedup()
	}
	return rc, nil
}

// planSelect assembles the operator pipeline under the base env (with
// leading LETs already bound): FROM → LET → WHERE, or a compiled probe's
// FROM product when ps is non-nil, then aggregate and order.
func planSelect(st evalState, env *Env, sel *sqlpp.SelectExpr, limit int64, ps *preparedSub, livePin bool) (rows rowSrc, err error) {
	aggCalls := collectSelectAggs(sel)
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0
	// A library call or a catalog UDF may keep a value it is handed: the
	// leaves of a block that makes one hand up copies of transient rows.
	detach := !callsOnlyBuiltins(sel)

	orderHandled := false
	reuse := false
	var cur tupleCursor
	if ps != nil {
		reuse = envReuse(sel, grouped, limit, false, false)
		if cur, err = ps.open(st, env, reuse); err != nil {
			return nil, err
		}
	} else {
		wherePushed := false
		from := sel.From
		if len(from) > 0 {
			leaf, pushed, keyOrdered, err := planScanLeaf(st, env, sel, grouped, aggCalls, limit, livePin)
			if err != nil {
				return nil, err
			}
			if leaf != nil {
				reuse = envReuse(sel, grouped, limit, pushed, keyOrdered)
				cur = &scanFromCursor{base: env, alias: from[0].Alias, leaf: leaf, reuse: reuse, detach: detach}
				wherePushed, orderHandled = pushed, keyOrdered
				from = from[1:] // the planned leaf covers the first clause
			}
		}
		if cur == nil {
			cur = &singleCursor{env: env}
		}
		for _, fc := range from {
			cur = &fromCursor{st: st, outer: cur, src: fc.Source, alias: fc.Alias, detach: detach}
		}
		if len(sel.FromLets) > 0 {
			cur = &letCursor{st: st, inner: cur, lets: sel.FromLets}
		}
		if sel.Where != nil && !wherePushed {
			cur = &filterCursor{st: st, inner: cur, pred: sel.Where}
		}
	}

	if grouped {
		rows = &aggRows{st: st, inner: cur, base: env, keys: sel.GroupBy, calls: aggCalls}
	} else {
		rows = &tupleRows{inner: cur}
	}
	if len(sel.OrderBy) > 0 && !orderHandled {
		k := int64(-1)
		if limit >= 0 && !sel.Distinct {
			// DISTINCT limits distinct projected rows, not input rows, so
			// the heap cannot be bounded under it.
			k = limit
		}
		// Grouped rows carry per-group envs already (aggRows copied the
		// representatives); only raw scan rows need copying on accept.
		rows = &topkRows{st: st, inner: rows, base: env, orderBy: sel.OrderBy, k: k, copyEnv: reuse && !grouped}
	}
	return rows, nil
}

// envReuse is the env-reuse rule: the FROM leaf — a scan, or a compiled
// probe's accessCursor — recycles one binding box per record instead of
// allocating a binding. Only two operators keep an env past the next
// pull, and each copies what it keeps:
//
//   - the top-k heap (topkRows, copyEnv) keeps its winners' envs until
//     the input is drained, copying the top node only;
//   - the hash aggregate (aggRows) keeps one representative env per
//     group, copying the nodes over the base env.
//
// Every other pipeline — ungrouped, with no ORDER BY or one the
// key-ordered merge answers — keeps no env under any FROM, LET or WHERE
// shape: projection, DISTINCT and LIMIT keep values, a subquery or
// EXISTS in WHERE or in the projection is drained before the next pull,
// and UDF bodies close over nothing. So its leaf always reuses.
//
// A copied top node is enough only when it is the leaf's box itself, so
// the two keeping operators also need a single FROM, no FROM-LETs, a
// WHERE (if any) pushed into the scan or free of calls and subqueries,
// and for the heap a LIMIT without DISTINCT (a bounded heap).
//
// The bytes under a row follow one rule whatever the leaf: whatever
// keeps a transient row (tupleCursor.transient) copies what it keeps —
// the heap its winners and their keys, the aggregate its groups and
// min/max, DISTINCT its set, a drained subquery its array.
func envReuse(sel *sqlpp.SelectExpr, grouped bool, limit int64, wherePushed, keyOrdered bool) bool {
	if !grouped && (len(sel.OrderBy) == 0 || keyOrdered) {
		return true
	}
	safeWhere := sel.Where == nil || wherePushed || safeParallelPred(sel.Where)
	topkReuse := !grouped && limit >= 0 && !sel.Distinct
	return len(sel.From) == 1 && len(sel.FromLets) == 0 && safeWhere && (topkReuse || grouped)
}

// planScanLeaf builds the record stream for the first FROM clause when
// it names a dataset: an index range probe, a parallel partition scan,
// or a serial scan. A nil leaf means the clause is not a plannable
// dataset scan (expression source, shadowed name) and the generic
// fromCursor path applies.
//
// The index probe reads the live B-tree, so it is sound only at the
// instant the snapshots it resolves through were taken: the outermost
// SELECT (depth 1) whose openSelect pinned the dataset itself (livePin).
// A nested SELECT runs later, maybe once per outer row, against the
// statement's or the batch's older pin — as does a block reached with
// the dataset already pinned — and scans the snapshot instead.
func planScanLeaf(st evalState, env *Env, sel *sqlpp.SelectExpr, grouped bool, aggCalls []*sqlpp.Call, limit int64, livePin bool) (leaf collCursor, pushed, keyOrdered bool, err error) {
	fc := sel.From[0]
	id, isIdent := fc.Source.(*sqlpp.Ident)
	if !isIdent || st.ctx.Catalog == nil {
		return nil, false, false, nil
	}
	if _, bound := env.Lookup(id.Name); bound {
		return nil, false, false, nil
	}
	ds, isDS := st.ctx.Catalog.Dataset(id.Name)
	if !isDS {
		return nil, false, false, nil
	}
	snaps, err := st.ctx.Pin(id.Name)
	if err != nil {
		return nil, false, false, err
	}

	// 1. Index pushdown (outermost SELECT on its own fresh pin only).
	if !st.ctx.DisableIndexScan && st.depth == 1 && livePin && sel.Where != nil {
		if field, idxName, idxs, lo, hi, found := pickIndexRange(st.ctx, ds, fc.Alias, sel.Where); found {
			return &indexScanColl{IndexScanCursor: lsm.NewIndexScanCursor(snaps, idxs, lo, hi), index: idxName, field: field}, false, false, nil
		}
	}

	// 2. Parallel partition scan (outermost SELECT only).
	parts := len(snaps)
	blocking := grouped || len(sel.OrderBy) > 0
	if !st.ctx.DisableParallelScan && st.depth == 1 && parts > 1 && (blocking || limit < 0) {
		order := lsm.PartitionOrder
		if !grouped && orderByIsPkAsc(sel, fc.Alias, ds.PrimaryKey()) {
			order = lsm.KeyOrder
			keyOrdered = true
		} else if unorderedSafe(sel, aggCalls) {
			order = lsm.Unordered
		}
		var filter func(key, rec adm.Value) (bool, error)
		if sel.Where != nil && len(sel.From) == 1 && len(sel.FromLets) == 0 && safeParallelPred(sel.Where) {
			where, alias, base, fst := sel.Where, fc.Alias, env, st
			// Workers call the filter concurrently; each call borrows a
			// pooled binding box instead of allocating an Env per record
			// (safeParallelPred guarantees evaluation never retains it).
			boxes := sync.Pool{New: func() any { return &Env{parent: base, name: alias} }}
			filter = func(_, rec adm.Value) (bool, error) {
				box := boxes.Get().(*Env)
				box.val = rec
				v, err := eval(fst, box, where)
				boxes.Put(box)
				if err != nil {
					return false, err
				}
				return Truthy(v), nil
			}
			pushed = true
		}
		return &parallelColl{ParallelScanCursor: lsm.NewParallelScanCursor(snaps, filter, order), parts: parts, order: order, filtered: pushed}, pushed, keyOrdered, nil
	}

	// 3. Serial scan.
	return &datasetCursor{lsm.NewScanCursor(snaps)}, false, false, nil
}

func orderName(o lsm.ScanOrder) string {
	switch o {
	case lsm.KeyOrder:
		return "key"
	case lsm.Unordered:
		return "unordered"
	}
	return "partition"
}

// orderByIsPkAsc reports whether ORDER BY is exactly the scanned
// dataset's primary key ascending — then a key-order partition merge
// already produces the output order and the sort stage is dropped.
func orderByIsPkAsc(sel *sqlpp.SelectExpr, alias, pk string) bool {
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Desc {
		return false
	}
	f, ok := aliasField(sel.OrderBy[0].Expr, alias)
	return ok && f == pk
}

// unorderedSafe gates the unordered fan-in: a single implicit group
// whose aggregates are insensitive to arrival order (count/min/max;
// sum/avg float folding is order-dependent) and whose output
// expressions reference nothing but those aggregates — the group's
// representative tuple is arrival-dependent, so it must not leak.
func unorderedSafe(sel *sqlpp.SelectExpr, aggCalls []*sqlpp.Call) bool {
	if len(sel.GroupBy) > 0 || len(sel.OrderBy) > 0 || len(aggCalls) == 0 {
		return false
	}
	for _, call := range aggCalls {
		switch strings.ToLower(call.Name) {
		case "count", "min", "max":
		default:
			return false
		}
	}
	if sel.SelectValue != nil && !exprRowFree(sel.SelectValue) {
		return false
	}
	for _, p := range sel.Projections {
		if p.Star || !exprRowFree(p.Expr) {
			return false
		}
	}
	return true
}

// exprRowFree reports whether an expression can be evaluated without
// touching the row environment — aggregate calls count as row-free
// (they resolve from accumulators), bare identifiers do not.
func exprRowFree(e sqlpp.Expr) bool {
	free := true
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		switch n := e.(type) {
		case *sqlpp.Literal, *sqlpp.Param, *sqlpp.Unary, *sqlpp.Binary, *sqlpp.CaseExpr:
		case *sqlpp.Call:
			if n.Ns != "" {
				free = false // library calls may be stateful; keep them serial
			} else if IsAggregate(strings.ToLower(n.Name)) {
				return false // an aggregate resolves from its accumulator
			}
		default:
			free = false
		}
		return free
	})
	return free
}

// safeParallelPred reports whether a predicate may be evaluated inside
// concurrent scan workers: pure structural/comparison expressions over
// the row and constants. Calls (UDFs may be stateful), EXISTS, and
// subqueries stay on the consumer side.
func safeParallelPred(e sqlpp.Expr) bool {
	safe := true
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		switch e.(type) {
		case *sqlpp.Literal, *sqlpp.Ident, *sqlpp.Param, *sqlpp.FieldAccess, *sqlpp.IndexAccess,
			*sqlpp.Unary, *sqlpp.Binary, *sqlpp.CaseExpr, *sqlpp.In, *sqlpp.ArrayCtor, *sqlpp.ObjectCtor:
		default:
			safe = false
		}
		return safe
	})
	return safe
}

// --- sargable predicate extraction ---

// pickIndexRange scans the WHERE conjuncts for comparisons of
// alias.field against a constant where field carries a secondary
// B-tree index, and folds every such conjunct on the chosen field into
// one [lo, hi] key range. The first indexed field found wins.
func pickIndexRange(ctx *Context, ds *lsm.Dataset, alias string, where sqlpp.Expr) (field, idxName string, idxs []*lsm.BTreeIndex, lo, hi index.Bound, ok bool) {
	lo, hi = index.Unbounded(), index.Unbounded()
	for _, conj := range splitConjuncts(where) {
		f, op, v, sok := sargable(conj, alias, ctx.Params)
		if !sok {
			continue
		}
		if field == "" {
			name, insts := ds.BTreeIndexForField(f)
			if name == "" {
				continue
			}
			field, idxName, idxs = f, name, insts
		} else if f != field {
			continue
		}
		switch op {
		case "=":
			lo = tightenLo(lo, index.Include(v))
			hi = tightenHi(hi, index.Include(v))
		case ">":
			lo = tightenLo(lo, index.Exclude(v))
		case ">=":
			lo = tightenLo(lo, index.Include(v))
		case "<":
			hi = tightenHi(hi, index.Exclude(v))
		case "<=":
			hi = tightenHi(hi, index.Include(v))
		}
	}
	return field, idxName, idxs, lo, hi, field != ""
}

// sargable matches one conjunct of the shape `alias.field OP const` or
// `const OP alias.field` (OP flipped), where const is a literal or a
// bound parameter. Unknown-valued constants are not sargable (the
// predicate is uniformly NULL; the full scan handles it).
func sargable(e sqlpp.Expr, alias string, params Params) (field, op string, val adm.Value, ok bool) {
	b, isBin := e.(*sqlpp.Binary)
	if !isBin {
		return "", "", adm.Value{}, false
	}
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", "", adm.Value{}, false
	}
	if f, fok := aliasField(b.L, alias); fok {
		if v, vok := constOperand(b.R, params); vok && !v.IsUnknown() {
			return f, b.Op, v, true
		}
		return "", "", adm.Value{}, false
	}
	if f, fok := aliasField(b.R, alias); fok {
		if v, vok := constOperand(b.L, params); vok && !v.IsUnknown() {
			return f, flipOp(b.Op), v, true
		}
	}
	return "", "", adm.Value{}, false
}

// aliasField matches `alias.field` and returns the field name — the one
// shape of a field reference both planners (index pushdown here, the
// enrichment planner's index-NLJ) match on.
func aliasField(e sqlpp.Expr, alias string) (string, bool) {
	fa, ok := e.(*sqlpp.FieldAccess)
	if !ok {
		return "", false
	}
	base, ok := fa.Base.(*sqlpp.Ident)
	if !ok || base.Name != alias {
		return "", false
	}
	return fa.Field, true
}

func constOperand(e sqlpp.Expr, params Params) (adm.Value, bool) {
	switch n := e.(type) {
	case *sqlpp.Literal:
		return n.Val, true
	case *sqlpp.Param:
		return params.Get(n.Name)
	}
	return adm.Value{}, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// tightenLo keeps the more restrictive (greater, or exclusive on a
// tie) of two lower bounds.
func tightenLo(a, b index.Bound) index.Bound {
	if a.Unbounded() {
		return b
	}
	if b.Unbounded() {
		return a
	}
	ak, _ := a.Key()
	bk, _ := b.Key()
	switch c := adm.Compare(bk, ak); {
	case c > 0:
		return b
	case c < 0:
		return a
	case !b.Inclusive():
		return b
	}
	return a
}

// tightenHi keeps the more restrictive (smaller, or exclusive on a
// tie) of two upper bounds.
func tightenHi(a, b index.Bound) index.Bound {
	if a.Unbounded() {
		return b
	}
	if b.Unbounded() {
		return a
	}
	ak, _ := a.Key()
	bk, _ := b.Key()
	switch c := adm.Compare(bk, ak); {
	case c < 0:
		return b
	case c > 0:
		return a
	case !b.Inclusive():
		return b
	}
	return a
}
