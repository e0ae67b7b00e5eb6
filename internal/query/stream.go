package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// RowCursor is the pull-based (Volcano) face of a SELECT: each Next
// call produces one result row, drawing records from the underlying
// dataset scan cursors on demand. Every query shape streams:
//
//   - scan → filter → project pipelines materialize nothing — a
//     consumer that stops after k rows touches O(k) records;
//   - GROUP BY / aggregates fold tuples into per-group accumulators as
//     they flow past (O(groups) memory, never O(tuples));
//   - ORDER BY + LIMIT k keeps a bounded top-k heap (O(k) memory,
//     O(n log k) time); without LIMIT it degenerates to a full sort;
//   - DISTINCT dedupes projected rows through a hash set as they are
//     emitted.
//
// This is the only SELECT executor: top-level statements hold the
// cursor (ExecuteSelectCursor) and pull it row by row; a SELECT in
// expression position and a const-subquery of the enrichment build
// phase open the same pipeline and drain it (runSelect), EXISTS pulls
// it once, and an enrichment UDF's body is pulled row by row
// (EvalRecord). A subquery compiled into an enrichment probe is one of
// these too: only its FROM product differs — accessCursors over the
// prepared hash tables, R-trees, live index or scanned records
// (openSelect). The plan — including index pushdown and parallel
// partition scans — is chosen in plan_select.go and reported by Plan.
type RowCursor struct {
	st   evalState
	sel  *sqlpp.SelectExpr
	rows rowSrc

	limit  int64 // rows still to emit; -1 = unlimited
	limit0 int64 // limit as opened, restored by reset
	dedup  *valueDedup
	// done is set once the cursor is exhausted or closed. A pipeline kept
	// across records (PreparedEnrich) is busy exactly while it is not.
	done bool
	// dst, when set, is where the projection writes spliced rows
	// (projectRow). Only the cursor of an enrichment UDF's body has one
	// (EvalRecord); a SELECT nested in it builds its rows apart.
	dst *[]byte
}

// Next returns the next result row. After ok=false (exhaustion or
// error) the cursor stays exhausted; the operator pipeline — including
// any parallel scan workers — is torn down at that point.
func (rc *RowCursor) Next() (adm.Value, bool, error) {
	for {
		if rc.done || rc.limit == 0 {
			rc.Close()
			return adm.Value{}, false, nil
		}
		if err := rc.st.ctx.Err(); err != nil {
			rc.Close()
			return adm.Value{}, false, err
		}
		r, ok, err := rc.rows.next()
		if err != nil || !ok {
			rc.Close()
			return adm.Value{}, false, err
		}
		written := 0
		if rc.dst != nil {
			written = len(*rc.dst)
		}
		v, err := projectRow(rc.rowState(r), r.env, rc.sel, rc.dst)
		if err != nil {
			rc.Close()
			return adm.Value{}, false, err
		}
		if rc.dedup != nil && !rc.dedup.add(v) {
			if rc.dst != nil {
				*rc.dst = (*rc.dst)[:written] // a repeat leaves no bytes behind
			}
			continue
		}
		if rc.limit > 0 {
			rc.limit--
		}
		return v, true, nil
	}
}

// Transient reports whether the row Next last returned may lie in a
// storage block the cursor holds only until the next Next or Close
// (tupleCursor.transient). The row, and every value read out of it,
// must then be copied (adm.Value.Detached) to be kept past that call.
func (rc *RowCursor) Transient() bool { return !rc.done && rowsTransient(rc.rows) }

func (rc *RowCursor) rowState(r rowT) evalState {
	if r.grouped {
		return rc.st.withAggVals(r.agg)
	}
	return rc.st.noGroup()
}

// Close tears the cursor down: scan workers are stopped and joined, so
// an abandoned stream leaks no goroutines. Idempotent.
func (rc *RowCursor) Close() {
	if rc.done {
		return
	}
	rc.done = true
	if rc.rows != nil {
		rc.rows.close()
	}
}

// reset rewinds a closed cursor whose pipeline is rewindable to what
// opening its query block over the base env env would return, without
// building a single operator. The caller has claimed it (done = false).
func (rc *RowCursor) reset(env *Env) error {
	rc.forget()
	rc.limit = rc.limit0
	return rc.rows.(rewinder).reset(env)
}

// forget drops the rows a closed cursor emitted — its DISTINCT set —
// and its destination.
func (rc *RowCursor) forget() {
	rc.dst = nil
	if rc.dedup != nil {
		clear(rc.dedup.seen)
	}
}

// rewinder is an operator that a pipeline kept across records
// (PreparedEnrich) rewinds for each record instead of rebuilding: reset,
// called on a closed pipeline, makes it what opening it over the base
// env env would make it.
type rewinder interface {
	reset(env *Env) error
}

// rewindable reports whether every operator of rows is a rewinder. A
// dataset scan leaf, the hash aggregate and the top-k heap are not: they
// own snapshots, workers or buffers that an open builds.
func rewindable(rows rowSrc) bool {
	t, ok := rows.(*tupleRows)
	if !ok {
		return false
	}
	for cur := t.inner; ; {
		switch c := cur.(type) {
		case *singleCursor:
			return true
		case *accessCursor:
			if c.outer == nil {
				return true
			}
			cur = c.outer
		case *fromCursor:
			cur = c.outer
		case *letCursor:
			cur = c.inner
		case *filterCursor:
			cur = c.inner
		default:
			return false
		}
	}
}

// Plan describes the operator pipeline this cursor executes, e.g.
// "iscan(Events.by_grp on grp)→filter→project→limit(4)". Tests assert
// planner decisions (index use, parallelism) against it rather than
// inferring them from timing. Opening a cursor formats nothing: the
// string is read off the operators it was opened with, on demand.
func (rc *RowCursor) Plan() string {
	rows := rc.rows
	order, _ := rows.(*topkRows)
	if order != nil {
		rows = order.inner
	}
	var steps []string
	keyOrdered := false
	switch r := rows.(type) {
	case *tupleRows:
		steps, keyOrdered = rc.tupleSteps(steps, r.inner)
	case *aggRows:
		steps, _ = rc.tupleSteps(steps, r.inner)
		steps = append(steps, fmt.Sprintf("aggregate(%dkeys,%daggs)", len(r.keys), len(r.calls)))
	}
	switch {
	case keyOrdered:
		steps = append(steps, "ordered-by-key")
	case order != nil && order.k >= 0:
		steps = append(steps, fmt.Sprintf("topk(%d)", order.k))
	case order != nil:
		steps = append(steps, "sort")
	}
	steps = append(steps, "project")
	if rc.dedup != nil {
		steps = append(steps, "distinct")
	}
	if rc.limit0 >= 0 {
		steps = append(steps, fmt.Sprintf("limit(%d)", rc.limit0))
	}
	return strings.Join(steps, "→")
}

// tupleSteps appends the plan steps of a tuple pipeline, leaf first,
// and reports whether its leaf merges partitions in key order (the
// ORDER BY it answers then has no operator of its own).
func (rc *RowCursor) tupleSteps(steps []string, cur tupleCursor) ([]string, bool) {
	keyOrdered := false
	switch c := cur.(type) {
	case *scanFromCursor:
		// The planned leaf always covers the first FROM clause, a
		// dataset named by an identifier (planScanLeaf).
		ds := rc.sel.From[0].Source.(*sqlpp.Ident).Name
		switch leaf := c.leaf.(type) {
		case *indexScanColl:
			steps = append(steps, fmt.Sprintf("iscan(%s.%s on %s)", ds, leaf.index, leaf.field))
		case *parallelColl:
			mark := ""
			if leaf.filtered {
				mark = "+filter"
			}
			steps = append(steps, fmt.Sprintf("pscan(%s,%s,%d)%s", ds, orderName(leaf.order), leaf.parts, mark))
			keyOrdered = leaf.order == lsm.KeyOrder
		default:
			steps = append(steps, fmt.Sprintf("scan(%s)", ds))
		}
	case *fromCursor:
		steps, keyOrdered = rc.tupleSteps(steps, c.outer)
		steps = append(steps, "from("+c.alias+")")
	case *letCursor:
		steps, keyOrdered = rc.tupleSteps(steps, c.inner)
		steps = append(steps, "let")
	case *filterCursor:
		steps, keyOrdered = rc.tupleSteps(steps, c.inner)
		steps = append(steps, "filter")
	}
	return steps, keyOrdered
}

// drain pulls the cursor to exhaustion: the collection a SELECT in
// expression position evaluates to, of copies of its transient rows.
// While a record is enriched, the array is carved from the record's
// scratch (recordScratch.carver) instead of allocated.
func (rc *RowCursor) drain() (adm.Value, error) {
	c := rc.st.scratch.carver()
	if c == nil {
		c = new(carver)
	}
	start, n := len(c.vals), 0
	for {
		v, ok, err := rc.Next()
		if err != nil {
			return adm.Value{}, err
		}
		if !ok {
			return c.array(start, n), nil
		}
		if rc.Transient() {
			v = v.Detached()
		}
		start = c.add(start, n, v)
		n++
	}
}

// carver is what drained arrays are carved from: values appended, never
// rewritten. A drain outside a record appends to a carver of its own,
// the growing slice an array always was; while a record is enriched, its
// drains share the record's (recordScratch.rows).
type carver struct{ vals []adm.Value }

// add appends v, the row after the n rows of an array drained into c
// from start, and returns where the array starts now. A subquery drained
// between two of its rows (one in the projection or in a filter) appended
// its own array after the rows so far; they are then moved past it, so
// an array carved before is never written again.
func (c *carver) add(start, n int, v adm.Value) int {
	if len(c.vals) != start+n {
		c.vals = append(c.vals, c.vals[start:start+n]...)
		start = len(c.vals) - n
	}
	c.vals = append(c.vals, v)
	return start
}

// array is the array of the n rows drained into c from start.
func (c *carver) array(start, n int) adm.Value {
	if n == 0 {
		return adm.Array(nil)
	}
	return adm.Array(c.vals[start : start+n : start+n])
}

// --- row operators (post-FROM exchange) ---

// rowT is one output row candidate: its binding environment plus, for
// grouped rows, the pre-accumulated aggregate values keyed by the
// aggregate call sites they answer.
type rowT struct {
	env     *Env
	agg     map[*sqlpp.Call]adm.Value
	grouped bool
}

// rowSrc yields row candidates to the projection stage.
type rowSrc interface {
	next() (rowT, bool, error)
	close()
}

// tupleRows adapts the tuple pipeline to the row exchange for
// ungrouped queries.
type tupleRows struct{ inner tupleCursor }

func (t *tupleRows) next() (rowT, bool, error) {
	tu, ok, err := t.inner.next()
	if err != nil || !ok {
		return rowT{}, false, err
	}
	return rowT{env: tu}, true, nil
}

func (t *tupleRows) close() { t.inner.close() }

func (t *tupleRows) reset(env *Env) error { return t.inner.(rewinder).reset(env) }

// rowsTransient reports whether the row rows last yielded may be
// transient: the aggregate and the heap yield copies.
func rowsTransient(rows rowSrc) bool {
	t, ok := rows.(*tupleRows)
	return ok && t.inner.transient()
}

// --- streaming hash aggregation ---

// aggAcc incrementally folds one aggregate call; it is where the
// semantics of count/sum/avg/min/max are written: unknown values are
// skipped, sum/avg go NULL on a non-numeric, integer-only sums stay
// integer, avg is always double, min/max use adm.Compare. Grouped
// queries fold tuples into it (add); the scalar form over an array
// folds the elements (fold).
type aggAcc struct {
	name string // lowercased
	star bool
	arg  sqlpp.Expr

	count   int64
	sum     float64
	allInt  bool
	n       int
	sumNull bool
	best    adm.Value
	has     bool
}

func newAggAcc(call *sqlpp.Call) (aggAcc, error) {
	name := strings.ToLower(call.Name)
	if call.Star {
		if name != "count" {
			return aggAcc{}, fmt.Errorf("query: %s(*) is not a valid aggregate", call.Name)
		}
		return aggAcc{name: name, star: true}, nil
	}
	if len(call.Args) != 1 {
		return aggAcc{}, fmt.Errorf("query: aggregate %s expects 1 argument", call.Name)
	}
	return aggAcc{name: name, allInt: true, arg: call.Args[0]}, nil
}

// add folds tu in.
func (a *aggAcc) add(st evalState, tu *Env) error {
	if a.star {
		a.count++
		return nil
	}
	v, err := eval(st, tu, a.arg)
	if err != nil {
		return err
	}
	a.fold(v)
	return nil
}

// fold folds v in; min/max keep a copy (adm.Value.Detached), as v may
// lie in bytes that are recycled once the next row is pulled.
func (a *aggAcc) fold(v adm.Value) {
	if v.IsUnknown() {
		return
	}
	switch a.name {
	case "count":
		a.count++
	case "sum", "avg":
		if a.sumNull {
			return
		}
		f, ok := v.AsDouble()
		if !ok {
			a.sumNull = true
			return
		}
		if v.Kind() != adm.KindInt64 {
			a.allInt = false
		}
		a.sum += f
		a.n++
	case "min", "max":
		if a.has {
			c := adm.Compare(v, a.best)
			if (a.name == "min" && c >= 0) || (a.name == "max" && c <= 0) {
				return
			}
		}
		a.best, a.has = v.Detached(), true
	}
}

func (a *aggAcc) final() (adm.Value, error) {
	switch a.name {
	case "count":
		return adm.Int(a.count), nil
	case "sum":
		if a.sumNull || a.n == 0 {
			return adm.Null(), nil
		}
		if a.allInt {
			return adm.Int(int64(a.sum)), nil
		}
		return adm.Double(a.sum), nil
	case "avg":
		if a.sumNull || a.n == 0 {
			return adm.Null(), nil
		}
		return adm.Double(a.sum / float64(a.n)), nil
	case "min", "max":
		if !a.has {
			return adm.Null(), nil
		}
		return a.best, nil
	}
	return adm.Value{}, fmt.Errorf("query: unknown aggregate %q", a.name)
}

type aggGroup struct {
	rep  *Env
	kv   []adm.Value
	accs []aggAcc
}

// aggRows is the streaming hash aggregate: tuples fold into per-group
// accumulators as they arrive (groups come out in first-seen order),
// and only the group table — representative env, key values,
// accumulators — is retained. Raw tuples are never buffered.
type aggRows struct {
	st    evalState
	inner tupleCursor
	base  *Env // the env the pipeline's tuples extend
	keys  []sqlpp.GroupKey
	calls []*sqlpp.Call

	built bool
	out   []rowT
	pos   int
}

func (a *aggRows) next() (rowT, bool, error) {
	if !a.built {
		a.built = true
		if err := a.build(); err != nil {
			return rowT{}, false, err
		}
	}
	if a.pos >= len(a.out) {
		return rowT{}, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

func (a *aggRows) close() { a.inner.close() }

func (a *aggRows) build() error {
	var groups []*aggGroup
	hidx := make(map[uint64][]int)
	kv := make([]adm.Value, len(a.keys))
	inner := a.st.noGroup() // aggregate args evaluate outside the group context
	for {
		if err := a.st.ctx.Err(); err != nil {
			return err
		}
		tu, ok, err := a.inner.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var g *aggGroup
		if len(a.keys) == 0 {
			if len(groups) == 0 {
				ng, err := a.newGroup(tu, nil)
				if err != nil {
					return err
				}
				groups = append(groups, ng)
			}
			g = groups[0]
		} else {
			for i, k := range a.keys {
				v, err := eval(a.st, tu, k.Expr)
				if err != nil {
					return err
				}
				kv[i] = v
			}
			h := adm.Hash(adm.Array(kv))
			found := -1
			for _, gi := range hidx[h] {
				if sameKeys(groups[gi].kv, kv) {
					found = gi
					break
				}
			}
			if found < 0 {
				ng, err := a.newGroup(tu, kv)
				if err != nil {
					return err
				}
				groups = append(groups, ng)
				found = len(groups) - 1
				hidx[h] = append(hidx[h], found)
			}
			g = groups[found]
		}
		for i := range g.accs {
			if err := g.accs[i].add(inner, tu); err != nil {
				return err
			}
		}
	}
	a.inner.close()
	// An aggregate query without GROUP BY has exactly one group, even
	// over empty input (COUNT(*) of nothing is 0, not no-rows).
	if len(a.keys) == 0 && len(groups) == 0 {
		ng, err := a.newGroup(nil, nil)
		if err != nil {
			return err
		}
		groups = append(groups, ng)
	}
	a.out = make([]rowT, 0, len(groups))
	for _, g := range groups {
		vals := make(map[*sqlpp.Call]adm.Value, len(a.calls))
		for i, call := range a.calls {
			v, err := g.accs[i].final()
			if err != nil {
				return err
			}
			vals[call] = v
		}
		a.out = append(a.out, rowT{env: g.rep, agg: vals, grouped: true})
	}
	return nil
}

// newGroup starts a group represented by tu under the key values kv,
// keeping copies of both (detachEnv): tu may be the scan leaf's reused
// box (envReuse), and its records may lie in bytes that are recycled
// once the next row is pulled.
func (a *aggRows) newGroup(tu *Env, kv []adm.Value) (*aggGroup, error) {
	g := &aggGroup{rep: detachEnv(tu, a.base)}
	if kv != nil {
		g.kv = make([]adm.Value, len(kv))
		for i, k := range kv {
			g.kv[i] = k.Detached()
		}
		for i, k := range a.keys {
			if k.Alias != "" {
				g.rep = Bind(g.rep, k.Alias, g.kv[i])
			}
		}
	}
	g.accs = make([]aggAcc, len(a.calls))
	for i, call := range a.calls {
		acc, err := newAggAcc(call)
		if err != nil {
			return nil, err
		}
		g.accs[i] = acc
	}
	return g, nil
}

func sameKeys(a, b []adm.Value) bool {
	for i := range a {
		if !adm.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// collectSelectAggs gathers the aggregate call sites a grouped query
// evaluates — SELECT list/value and ORDER BY keys (the clauses that run
// under the group context). Calls nested inside another aggregate's
// argument are excluded: they evaluate as scalar collection functions
// during accumulation. Nested SELECT blocks are not entered (their
// aggregates are theirs).
func collectSelectAggs(sel *sqlpp.SelectExpr) []*sqlpp.Call {
	var out []*sqlpp.Call
	collectAggCalls(sel.SelectValue, &out)
	for _, p := range sel.Projections {
		collectAggCalls(p.Expr, &out)
	}
	for _, ob := range sel.OrderBy {
		collectAggCalls(ob.Expr, &out)
	}
	return out
}

func collectAggCalls(e sqlpp.Expr, out *[]*sqlpp.Call) {
	sqlpp.Inspect(e, func(e sqlpp.Expr) bool {
		switch n := e.(type) {
		case *sqlpp.Call:
			if n.Ns == "" && IsAggregate(strings.ToLower(n.Name)) {
				*out = append(*out, n)
				return false
			}
		case *sqlpp.Exists, *sqlpp.SubqueryExpr, *sqlpp.SelectExpr:
			return false
		}
		return true
	})
}

// --- bounded top-k ordering ---

type topkEntry struct {
	row    rowT
	keys   []adm.Value
	seq    int
	envBox Env    // copyEnv mode: stable home for a reused scan env
	buf    []byte // copyEnv mode: the bytes of envBox's record, when copied
}

// topkRows implements ORDER BY [+ LIMIT k] as a bounded selection: a
// size-k max-heap keeps the k best rows seen (worst at the root), so a
// LIMIT-k sort costs O(n log k) time and O(k) memory. With k < 0 (no
// LIMIT, or DISTINCT under the limit) every row is retained and sorted
// — the graceful degeneration to a full sort. Ties preserve arrival
// order (a stable sort).
type topkRows struct {
	st      evalState
	inner   rowSrc
	base    *Env // the env the pipeline's tuples extend
	orderBy []sqlpp.OrderKey
	k       int64 // -1 = retain everything
	copyEnv bool  // input env is a reused box; copy on acceptance

	built   bool
	heap    []*topkEntry
	out     []*topkEntry
	pos     int
	scratch []adm.Value
	seq     int
}

func (t *topkRows) next() (rowT, bool, error) {
	if !t.built {
		t.built = true
		if err := t.build(); err != nil {
			return rowT{}, false, err
		}
	}
	if t.pos >= len(t.out) {
		return rowT{}, false, nil
	}
	r := t.out[t.pos].row
	t.pos++
	return r, true, nil
}

func (t *topkRows) close() { t.inner.close() }

func (t *topkRows) build() error {
	t.scratch = make([]adm.Value, len(t.orderBy))
	for {
		if err := t.st.ctx.Err(); err != nil {
			return err
		}
		r, ok, err := t.inner.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		st := t.st.noGroup()
		if r.grouped {
			st = t.st.withAggVals(r.agg)
		}
		for j, ob := range t.orderBy {
			v, err := eval(st, r.env, ob.Expr)
			if err != nil {
				return err
			}
			t.scratch[j] = v
		}
		t.offer(r)
	}
	t.inner.close()
	sort.Slice(t.heap, func(i, j int) bool { return t.before(t.heap[i], t.heap[j]) })
	t.out = t.heap
	return nil
}

// offer considers one row whose order keys sit in t.scratch. The
// bounded path is allocation-free once the heap is full: a winning
// candidate swaps its key slice with the evicted root's and overwrites
// it in place.
func (t *topkRows) offer(r rowT) {
	seq := t.seq
	t.seq++
	if t.k == 0 {
		return
	}
	if t.k < 0 || int64(len(t.heap)) < t.k {
		e := &topkEntry{keys: append([]adm.Value(nil), t.scratch...), seq: seq}
		t.take(e, r)
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	root := t.heap[0]
	// The candidate arrived after everything in the heap, so on equal
	// keys it is the worse row (stability): strict improvement only.
	if t.compareKeys(t.scratch, root.keys) >= 0 {
		return
	}
	root.keys, t.scratch = t.scratch, root.keys
	root.seq = seq
	t.take(root, r)
	t.siftDown(0)
}

// take makes e keep r and copies of its order keys, which e.keys already
// holds: a copy of the scan's reused box in copyEnv mode, and of its
// records when they are transient.
func (t *topkRows) take(e *topkEntry, r rowT) {
	e.row = r
	for j := range e.keys {
		e.keys[j] = e.keys[j].Detached()
	}
	switch transient := rowsTransient(t.inner); {
	case t.copyEnv && r.env != nil:
		e.envBox = *r.env
		if transient { // into the bytes of the winner it replaced, if any
			e.envBox.val, e.buf = e.envBox.val.DetachedInto(e.buf)
		}
		e.row.env = &e.envBox
	case transient:
		e.row.env = detachEnv(r.env, t.base)
	}
}

func (t *topkRows) compareKeys(a, b []adm.Value) int {
	for j, ob := range t.orderBy {
		c := adm.Compare(a[j], b[j])
		if c != 0 {
			if ob.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// before is the output order: keys ascending per the ORDER BY spec,
// ties by arrival.
func (t *topkRows) before(a, b *topkEntry) bool {
	if c := t.compareKeys(a.keys, b.keys); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// worse is the heap order (max-heap on badness).
func (t *topkRows) worse(a, b *topkEntry) bool {
	if c := t.compareKeys(a.keys, b.keys); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (t *topkRows) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[p]) {
			return
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *topkRows) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(t.heap) && t.worse(t.heap[l], t.heap[w]) {
			w = l
		}
		if r < len(t.heap) && t.worse(t.heap[r], t.heap[w]) {
			w = r
		}
		if w == i {
			return
		}
		t.heap[i], t.heap[w] = t.heap[w], t.heap[i]
		i = w
	}
}

// --- streaming DISTINCT ---

// valueDedup is the projected-row hash set behind SELECT DISTINCT.
type valueDedup struct{ seen map[uint64][]adm.Value }

func newValueDedup() *valueDedup {
	return &valueDedup{seen: make(map[uint64][]adm.Value)}
}

// add reports whether v is new, recording a copy of it if so.
func (d *valueDedup) add(v adm.Value) bool {
	h := adm.Hash(v)
	for _, prev := range d.seen[h] {
		if adm.Equal(prev, v) {
			return false
		}
	}
	d.seen[h] = append(d.seen[h], v.Detached())
	return true
}

// --- tuple operators ---

// tupleCursor is the operator contract: each next call yields one
// binding environment (a row of the FROM product). close releases
// whatever the pipeline holds (parallel scan workers in particular)
// and must be idempotent. transient reports whether the tuple last
// yielded holds a record a storage leaf read from a run: it lies in a
// block the leaf pins only until the leaf is pulled again
// (lsm.Cursor.Transient). A prepared access's records are copies, or
// stay valid while the record is enriched (recordScratch.probeLeases).
type tupleCursor interface {
	next() (*Env, bool, error)
	close()
	transient() bool
}

// singleCursor yields the base environment exactly once — the seed of
// the FROM product (and the whole product for FROM-less selects).
type singleCursor struct {
	env  *Env
	used bool
}

func (s *singleCursor) next() (*Env, bool, error) {
	if s.used {
		return nil, false, nil
	}
	s.used = true
	return s.env, true, nil
}

func (s *singleCursor) close() {}

func (s *singleCursor) transient() bool { return false }

func (s *singleCursor) reset(env *Env) error {
	s.env, s.used = env, false
	return nil
}

// scanFromCursor is the planned leaf: it binds the first FROM clause's
// alias over a pre-built record stream (serial scan, index range scan,
// or parallel partition scan). In reuse mode it mutates one env box in
// place per record instead of allocating a binding — valid only when
// the planner proved no downstream operator retains the env without
// copying it (envReuse). detach makes it bind copies of transient
// records (planSelect).
type scanFromCursor struct {
	base   *Env
	alias  string
	leaf   collCursor
	reuse  bool
	detach bool
	box    Env
	init   bool
}

func (s *scanFromCursor) next() (*Env, bool, error) {
	rec, ok, err := nextRecord(s.leaf, s.detach)
	if err != nil || !ok {
		return nil, false, err
	}
	if s.reuse {
		if !s.init {
			s.box = Env{parent: s.base, name: s.alias}
			s.init = true
		}
		s.box.val = rec
		return &s.box, true, nil
	}
	return Bind(s.base, s.alias, rec), true, nil
}

func (s *scanFromCursor) close() { s.leaf.Close() }

func (s *scanFromCursor) transient() bool { return s.leaf.Transient() }

// fromCursor streams one FROM clause: for every outer tuple it opens a
// collection cursor over the source and yields one extended tuple per
// record. Dataset sources stream straight from the LSM scan cursor;
// detach makes it bind copies of their transient records.
type fromCursor struct {
	st     evalState
	outer  tupleCursor
	src    sqlpp.Expr
	alias  string
	detach bool

	cur    collCursor
	curEnv *Env
}

func (f *fromCursor) next() (*Env, bool, error) {
	for {
		if f.cur == nil {
			oe, ok, err := f.outer.next()
			if err != nil || !ok {
				return nil, false, err
			}
			cc, err := openFromSource(f.st, oe, f.src)
			if err != nil {
				return nil, false, err
			}
			f.cur = cc
			f.curEnv = oe
		}
		rec, ok, err := nextRecord(f.cur, f.detach)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return Bind(f.curEnv, f.alias, rec), true, nil
		}
		f.cur.Close()
		f.cur = nil
	}
}

func (f *fromCursor) close() {
	if f.cur != nil {
		f.cur.Close()
		f.cur = nil
	}
	f.curEnv = nil
	f.outer.close()
}

func (f *fromCursor) reset(env *Env) error { return f.outer.(rewinder).reset(env) }

func (f *fromCursor) transient() bool {
	return f.cur != nil && f.cur.Transient() || f.outer.transient()
}

// letCursor binds FROM-position LETs on each tuple as it flows past.
type letCursor struct {
	st    evalState
	inner tupleCursor
	lets  []sqlpp.LetBinding
}

func (l *letCursor) next() (*Env, bool, error) {
	tu, ok, err := l.inner.next()
	if err != nil || !ok {
		return nil, false, err
	}
	for _, b := range l.lets {
		v, err := eval(l.st, tu, b.Expr)
		if err != nil {
			return nil, false, err
		}
		tu = Bind(tu, b.Name, v)
	}
	return tu, true, nil
}

func (l *letCursor) close() { l.inner.close() }

func (l *letCursor) transient() bool { return l.inner.transient() }

func (l *letCursor) reset(env *Env) error { return l.inner.(rewinder).reset(env) }

// filterCursor drops tuples whose predicate is not TRUE. It polls for
// cancellation per candidate so a filter that rejects a long stretch
// still notices a dead context.
type filterCursor struct {
	st    evalState
	inner tupleCursor
	pred  sqlpp.Expr
}

func (f *filterCursor) next() (*Env, bool, error) {
	for {
		if err := f.st.ctx.Err(); err != nil {
			return nil, false, err
		}
		tu, ok, err := f.inner.next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := eval(f.st, tu, f.pred)
		if err != nil {
			return nil, false, err
		}
		if Truthy(v) {
			return tu, true, nil
		}
	}
}

func (f *filterCursor) close() { f.inner.close() }

func (f *filterCursor) transient() bool { return f.inner.transient() }

func (f *filterCursor) reset(env *Env) error { return f.inner.(rewinder).reset(env) }

// detachEnv copies the bindings tu adds to base, each value detached:
// what a keeper keeps of a transient tuple.
func detachEnv(tu, base *Env) *Env {
	if tu == base || tu == nil {
		return tu
	}
	return &Env{parent: detachEnv(tu.parent, base), name: tu.name, val: tu.val.Detached()}
}

// --- collection cursors (FROM sources) ---

// collCursor streams the records of one FROM source instance; only a
// dataset's may be transient.
type collCursor interface {
	next() (adm.Value, bool, error)
	Close()
	Transient() bool
}

// nextRecord pulls c's next record, a copy of it when detach is set and
// it is transient.
func nextRecord(c collCursor, detach bool) (adm.Value, bool, error) {
	rec, ok, err := c.next()
	if ok && detach && c.Transient() {
		rec = rec.Detached()
	}
	return rec, ok, err
}

type sliceCursor struct {
	elems []adm.Value
	pos   int
}

func (s *sliceCursor) next() (adm.Value, bool, error) {
	if s.pos >= len(s.elems) {
		return adm.Value{}, false, nil
	}
	v := s.elems[s.pos]
	s.pos++
	return v, true, nil
}

func (s *sliceCursor) Close() {}

func (s *sliceCursor) Transient() bool { return false }

// The three dataset leaves below end with their lsm cursor's read fault
// (I/O, CRC), if one stopped it, so a faulted scan never passes for a
// short result. An early-out consumer (LIMIT, EXISTS) that stops before
// the end read every row it used successfully. Each is its lsm cursor,
// whose Close and Transient it keeps.

// datasetCursor adapts an LSM scan cursor (which walks the pinned
// snapshots' memtable trees and sorted runs in place) to a collection
// cursor.
type datasetCursor struct{ *lsm.ScanCursor }

func (d *datasetCursor) next() (adm.Value, bool, error) {
	_, rec, ok := d.Next()
	if !ok {
		return adm.Value{}, false, d.Err()
	}
	return rec, true, nil
}

// indexScanColl adapts a secondary-index range scan of the index
// named index, on field.
type indexScanColl struct {
	*lsm.IndexScanCursor
	index string
	field string
}

func (c *indexScanColl) next() (adm.Value, bool, error) {
	_, rec, ok := c.Next()
	if !ok {
		return adm.Value{}, false, c.Err()
	}
	return rec, true, nil
}

// parallelColl adapts a parallel scan of parts partitions; close stops
// and joins the workers. filtered says the workers evaluate the WHERE
// clause.
type parallelColl struct {
	*lsm.ParallelScanCursor
	parts    int
	order    lsm.ScanOrder
	filtered bool
}

func (c *parallelColl) next() (adm.Value, bool, error) {
	_, rec, ok, err := c.Next()
	return rec, ok, err
}

// openFromSource resolves one FROM source into a streaming cursor: an
// in-scope binding, a dataset scan over the pinned snapshots, or any
// collection-valued expression. A dataset is never copied into a slice.
func openFromSource(st evalState, env *Env, src sqlpp.Expr) (collCursor, error) {
	if id, ok := src.(*sqlpp.Ident); ok {
		if v, bound := env.Lookup(id.Name); bound {
			return collectionCursor(v)
		}
		if st.ctx.Catalog != nil {
			if _, isDS := st.ctx.Catalog.Dataset(id.Name); isDS {
				snaps, err := st.ctx.Pin(id.Name)
				if err != nil {
					return nil, err
				}
				return &datasetCursor{lsm.NewScanCursor(snaps)}, nil
			}
		}
		return nil, fmt.Errorf("%w: FROM source %q is neither a binding nor a dataset", ErrUnknownDataset, id.Name)
	}
	v, err := eval(st, env, src)
	if err != nil {
		return nil, err
	}
	return collectionCursor(v)
}

func collectionCursor(v adm.Value) (collCursor, error) {
	switch v.Kind() {
	case adm.KindArray:
		return &sliceCursor{elems: v.ArrayVal()}, nil
	case adm.KindMissing, adm.KindNull:
		return &sliceCursor{}, nil
	default:
		// A single object iterates as a one-element collection, matching
		// SQL++'s forgiving FROM semantics for non-arrays.
		return &sliceCursor{elems: []adm.Value{v}}, nil
	}
}
