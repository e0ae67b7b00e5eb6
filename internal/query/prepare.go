package query

import (
	"fmt"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// PreparedEnrich is the enrichment state of a plan: the paper's
// "intermediate states" — const-subquery results, hash tables, transient
// R-trees, scan shards — together with the Context whose pins they were
// built from. It is read-only once built (EvalRecord is safe for
// parallel use by every evaluator in a job; only the Context's lazy
// pins grow, under its lock).
//
// Model 2 requires that a batch observe every reference write
// acknowledged before the batch began. A state meets that for as long
// as every dataset its Context pinned is still the same object at the
// same mutation epoch, so a predeployed feed keeps it across
// invocations and calls Refresh at the start of each: unchanged, the
// state is reused whole — no snapshot, no memtable freeze, no scan, no
// build; changed, a successor is prepared that carries over the pins
// and structures of the datasets that did not change and rebuilds only
// the rest. Datasets pinned lazily at eval time (uncompiled subqueries)
// carry stamps like any other and invalidate reuse the same way.
// Prepare always builds everything afresh; the RecompilePerBatch
// ablation and the static pipeline use only that.
type PreparedEnrich struct {
	plan   *EnrichPlan
	ctx    *Context
	consts map[*sqlpp.SelectExpr]*preparedConst
	probes map[*sqlpp.SelectExpr]*preparedSub
	// built counts the const results and access structures built for
	// this state rather than carried over from its predecessor.
	built int
}

// preparedConst is a const subquery's result and the datasets its
// evaluation read.
type preparedConst struct {
	val  adm.Value
	deps []string
}

type preparedSub struct {
	plan     *subPlan
	accesses []*preparedAccess
}

// hashEntry is one build-side record of a hash access. Entries are
// stored in chunks that never move, so the table chains entries of one
// key hash in place (next, in scan order) instead of copying each into a
// per-key slice.
type hashEntry struct {
	key  adm.Value
	rec  adm.Value
	next *hashEntry
}

// hashChunk is the most entries per storage chunk. A shard grows by
// whole chunks, never by copying, so a build allocates its entries once
// however many there are: what a rebuild after a reference update costs
// is the table, not the growth of the slices that fed it.
const hashChunk = 512

func appendHashEntry(chunks [][]hashEntry, e hashEntry) [][]hashEntry {
	if n := len(chunks); n == 0 || len(chunks[n-1]) == cap(chunks[n-1]) {
		size := 16
		if n > 0 {
			size = min(2*cap(chunks[n-1]), hashChunk)
		}
		chunks = append(chunks, make([]hashEntry, 0, size))
	}
	last := &chunks[len(chunks)-1]
	*last = append(*last, e)
	return chunks
}

type preparedAccess struct {
	plan *accessPlan
	// deps are the datasets the build read: the access's own, plus any a
	// build filter reached through a subquery or UDF. Empty for
	// accessIndexNLJ, which keeps no copy of the data.
	deps []string

	hash map[uint64]*hashEntry // accessHash: key hash → chain of entries

	rtrees []*index.RTree // accessRTree, sharded per partition

	shards [][]adm.Value // accessScan

	liveIndexes []*lsm.RTreeIndex // accessIndexNLJ
	liveDataset *lsm.Dataset      // accessIndexNLJ (fresh point reads)
}

// reusable reports whether pa still answers probes as a fresh build
// would, given the pins that are unchanged since it was built.
func (pa *preparedAccess) reusable(cat Catalog, unchanged map[string]*pin) bool {
	if pa.plan.kind == accessIndexNLJ {
		// Probes read the live index and dataset; only identity can go
		// stale.
		ds, ok := cat.Dataset(pa.plan.dataset)
		return ok && ds == pa.liveDataset
	}
	return allUnchanged(pa.deps, unchanged)
}

func allUnchanged(deps []string, unchanged map[string]*pin) bool {
	for _, name := range deps {
		if unchanged[name] == nil {
			return false
		}
	}
	return true
}

// Prepare builds the whole state from fresh snapshots, parallelizing the
// reference scans across partitions (the cluster's computing job runs
// one build worker per node). It is the rebuild cost the paper's
// batch-size experiments measure.
func (plan *EnrichPlan) Prepare(cat Catalog) (*PreparedEnrich, error) {
	return plan.prepare(cat, nil, nil)
}

// Refresh returns the state the next invocation must use: pe itself
// when nothing it read has changed, otherwise a successor that shares
// what is still current and rebuilds the rest. Call it between
// invocations, never while pe is evaluating.
func (pe *PreparedEnrich) Refresh() (*PreparedEnrich, error) {
	cat := pe.ctx.Catalog
	pe.ctx.mu.Lock()
	unchanged := make(map[string]*pin, len(pe.ctx.pins))
	for name, p := range pe.ctx.pins {
		if p.current(cat, name) {
			unchanged[name] = p
		}
	}
	whole := len(unchanged) == len(pe.ctx.pins)
	pe.ctx.mu.Unlock()
	for _, ps := range pe.probes {
		for _, pa := range ps.accesses {
			whole = whole && pa.reusable(cat, unchanged)
		}
	}
	if whole {
		return pe, nil
	}
	return pe.plan.prepare(cat, pe, unchanged)
}

// Built reports how many const results and access structures were built
// for this state, as opposed to carried over by Refresh.
func (pe *PreparedEnrich) Built() int { return pe.built }

// prepare builds a state, taking from prev (nil for a full build) every
// pin in unchanged and every const result and access structure that
// read nothing else.
func (plan *EnrichPlan) prepare(cat Catalog, prev *PreparedEnrich, unchanged map[string]*pin) (*PreparedEnrich, error) {
	pe := &PreparedEnrich{
		plan:   plan,
		ctx:    NewContext(cat),
		consts: make(map[*sqlpp.SelectExpr]*preparedConst),
		probes: make(map[*sqlpp.SelectExpr]*preparedSub),
	}
	for name, p := range unchanged {
		pe.ctx.pins[name] = p
	}
	for _, sel := range plan.order {
		sp := plan.subs[sel]
		switch sp.kind {
		case constSub:
			if prev != nil && allUnchanged(prev.consts[sel].deps, unchanged) {
				pe.consts[sel] = prev.consts[sel]
				continue
			}
			var val adm.Value
			deps, err := pe.ctx.traced(func() (err error) {
				val, err = ExecuteSelect(pe.ctx, nil, sel)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("query: %s: const subquery: %w", plan.Name, err)
			}
			pe.consts[sel] = &preparedConst{val: val, deps: deps}
			pe.built++
		case probeSub:
			ps := &preparedSub{plan: sp}
			for i := range sp.accesses {
				if prev != nil {
					if pa := prev.probes[sel].accesses[i]; pa.reusable(cat, unchanged) {
						ps.accesses = append(ps.accesses, pa)
						continue
					}
				}
				var pa *preparedAccess
				deps, err := pe.ctx.traced(func() (err error) {
					pa, err = pe.buildAccess(&sp.accesses[i])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("query: %s: build %s: %w", plan.Name, sp.accesses[i].dataset, err)
				}
				pa.deps = deps
				ps.accesses = append(ps.accesses, pa)
				pe.built++
			}
			pe.probes[sel] = ps
		}
	}
	return pe, nil
}

func (pe *PreparedEnrich) buildAccess(acc *accessPlan) (*preparedAccess, error) {
	pa := &preparedAccess{plan: acc}
	if acc.kind == accessIndexNLJ {
		ds, err := datasetFor(pe.ctx.Catalog, acc.dataset)
		if err != nil {
			return nil, err
		}
		idx := ds.RTreeIndexForField(acc.indexField)
		if idx == nil {
			return nil, fmt.Errorf("index on %s.%s vanished", acc.dataset, acc.indexField)
		}
		pa.liveIndexes = idx
		pa.liveDataset = ds
		return pa, nil
	}

	snaps, err := pe.ctx.Pin(acc.dataset)
	if err != nil {
		return nil, err
	}

	// Scan partitions in parallel; each worker produces its shard.
	type shardResult struct {
		entries [][]hashEntry // accessHash, in chunks
		tree    *index.RTree  // accessRTree
		recs    []adm.Value   // accessScan
		err     error
	}
	results := make([]shardResult, len(snaps))
	var wg sync.WaitGroup
	for i, snap := range snaps {
		wg.Add(1)
		go func(i int, snap *lsm.Snapshot) {
			defer wg.Done()
			res := &results[i]
			if acc.kind == accessRTree {
				res.tree = index.NewRTree()
			}
			// depth 1, as in EvalRecord: a filter's subquery runs once per
			// reference record and is no outermost SELECT.
			st := evalState{ctx: pe.ctx, depth: 1}
			// One binding, rebound per record: eval returns values, and
			// no value refers to the environment it was computed in.
			env := Bind(nil, acc.alias, adm.Value{})
			snap.Scan(func(_, rec adm.Value) bool {
				env.val = rec
				for _, f := range acc.filters {
					v, err := eval(st, env, f)
					if err != nil {
						res.err = err
						return false
					}
					if !Truthy(v) {
						return true
					}
				}
				switch acc.kind {
				case accessHash:
					key, err := eval(st, env, acc.buildKey)
					if err != nil {
						res.err = err
						return false
					}
					if key.IsUnknown() {
						return true
					}
					res.entries = appendHashEntry(res.entries, hashEntry{key: key, rec: rec})
				case accessRTree:
					g, err := eval(st, env, acc.buildRect)
					if err != nil {
						res.err = err
						return false
					}
					rect, ok := GeometryBounds(g)
					if !ok {
						return true
					}
					res.tree.Insert(rect, rec)
				default: // accessScan
					res.recs = append(res.recs, rec)
				}
				return true
			})
			// A run-file read error ends the scan early without a word;
			// a partial shard must fail the build, all the more now that
			// the structure may serve many batches.
			if res.err == nil {
				res.err = snap.Err()
			}
		}(i, snap)
	}
	wg.Wait()

	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
	}
	switch acc.kind {
	case accessHash:
		total := 0
		for i := range results {
			for _, chunk := range results[i].entries {
				total += len(chunk)
			}
		}
		// Link back to front, each entry ahead of its chain, so a chain
		// reads in scan order: shard by shard, key order within a shard.
		pa.hash = make(map[uint64]*hashEntry, total)
		for i := len(results) - 1; i >= 0; i-- {
			chunks := results[i].entries
			for c := len(chunks) - 1; c >= 0; c-- {
				for j := len(chunks[c]) - 1; j >= 0; j-- {
					e := &chunks[c][j]
					h := adm.Hash(e.key)
					e.next = pa.hash[h]
					pa.hash[h] = e
				}
			}
		}
	case accessRTree:
		pa.rtrees = make([]*index.RTree, len(results))
		for i := range results {
			pa.rtrees[i] = results[i].tree
		}
	default:
		pa.shards = make([][]adm.Value, len(results))
		for i := range results {
			pa.shards[i] = results[i].recs
		}
	}
	return pa, nil
}

// EvalRecord enriches one record: the probe phase. A body that is a
// query block is pulled row by row: one row is the result — the record
// the feed pipeline stores — no rows an empty array, several an array of
// them. Any other body's value is the result, a one-element array
// unwrapped to its element.
//
// dst, when given and non-nil, is where the body's projection writes a
// row it splices from encodings (adm.AppendRow): in *dst's spare
// capacity, *dst extended over it, when the row fits, and nowhere in
// *dst otherwise; *dst is never regrown, and a SELECT nested in the body
// never writes to it. The caller finds what was written past the length
// it passed. dst is variadic only so that EvalRecord(rec) still builds
// every row apart.
func (pe *PreparedEnrich) EvalRecord(rec adm.Value, dst ...*[]byte) (adm.Value, error) {
	// depth 1: the feed's per-record loop is the outer query here, so no
	// SELECT below it — the UDF body included — is outermost (and none
	// starts a parallel scan per ingested record).
	st := evalState{ctx: pe.ctx, prepared: pe, depth: 1}
	env := Bind(nil, pe.plan.param, rec)
	rc, err := pe.openBody(st, env)
	if err != nil {
		return adm.Value{}, err
	}
	if rc == nil {
		v, err := eval(st, env, pe.plan.body)
		if err != nil {
			return adm.Value{}, err
		}
		if v.Kind() == adm.KindArray && len(v.ArrayVal()) == 1 {
			return v.Index(0), nil
		}
		return v, nil
	}
	if len(dst) > 0 {
		rc.dst = dst[0]
	}
	var first adm.Value
	var rows []adm.Value // from the second row on
	n := 0
	for ; ; n++ {
		v, ok, err := rc.Next()
		if err != nil {
			return adm.Value{}, err
		}
		if !ok {
			break
		}
		switch n {
		case 0:
			first = v
		case 1:
			rows = append(rows, first, v)
		default:
			rows = append(rows, v)
		}
	}
	if n == 1 {
		return first, nil
	}
	return adm.Array(rows), nil
}

// openBody opens the cursor of a UDF body that is a query block — over
// the candidates its prepared probe yields when it was compiled into one
// — or returns nil for any other body, a constant one included.
func (pe *PreparedEnrich) openBody(st evalState, env *Env) (*RowCursor, error) {
	sel, ok := pe.plan.body.(*sqlpp.SelectExpr)
	if !ok || pe.consts[sel] != nil {
		return nil, nil
	}
	if rc, ok, err := pe.openCompiled(st, env, sel); ok || err != nil {
		return rc, err
	}
	return openSelect(st, env, sel, nil)
}

// Context exposes the pinned evaluation context (tests inspect it).
func (pe *PreparedEnrich) Context() *Context { return pe.ctx }

// evalCompiled intercepts a compiled subquery during expression
// evaluation. ok=false means the subquery was not compiled and the
// caller should use the generic path.
func (pe *PreparedEnrich) evalCompiled(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, bool, error) {
	if pc, isConst := pe.consts[sel]; isConst {
		return pc.val, true, nil
	}
	rc, ok, err := pe.openCompiled(st, env, sel)
	if !ok || err != nil {
		return adm.Value{}, ok, err
	}
	v, err := rc.drain()
	return v, true, err
}

// openCompiled opens the pipeline of a compiled probe subquery over the
// candidate tuples its prepared accesses yield. ok=false means sel was
// not compiled into a probe.
func (pe *PreparedEnrich) openCompiled(st evalState, env *Env, sel *sqlpp.SelectExpr) (rc *RowCursor, ok bool, err error) {
	ps, isProbe := pe.probes[sel]
	if !isProbe {
		return nil, false, nil
	}
	var tuples []*Env
	err = ps.forEachTuple(st, env, func(tu *Env) bool {
		tuples = append(tuples, tu)
		return true
	})
	if err != nil {
		return nil, true, err
	}
	// From here on a compiled subquery is a SELECT like any other: the
	// candidates replace FROM and WHERE, the shared pipeline aggregates,
	// orders, projects, dedupes and limits them.
	rc, err = openPipeline(st.noGroup(), nil, sel, &sliceTuples{envs: tuples}, false, nil)
	return rc, true, err
}

// evalCompiledExists intercepts EXISTS over a compiled subquery with
// early termination at the first qualifying tuple.
func (pe *PreparedEnrich) evalCompiledExists(st evalState, env *Env, sel *sqlpp.SelectExpr) (bool, bool, error) {
	if pc, isConst := pe.consts[sel]; isConst {
		return len(pc.val.ArrayVal()) > 0, true, nil
	}
	ps, isProbe := pe.probes[sel]
	if !isProbe {
		return false, false, nil
	}
	found := false
	err := ps.forEachTuple(st, env, func(*Env) bool {
		found = true
		return false
	})
	return found, true, err
}

// forEachTuple streams candidate tuples: anchor probe, join expansion,
// FROM-LET binding, then residual filtering. fn returning false stops
// the enumeration (EXISTS early-out).
func (ps *preparedSub) forEachTuple(st evalState, env *Env, fn func(*Env) bool) error {
	st = st.noGroup()
	var expand func(level int, tu *Env) (bool, error)
	expand = func(level int, tu *Env) (bool, error) {
		if level == len(ps.accesses) {
			for _, l := range ps.plan.sel.FromLets {
				v, err := eval(st, tu, l.Expr)
				if err != nil {
					return false, err
				}
				tu = Bind(tu, l.Name, v)
			}
			for _, r := range ps.plan.residuals {
				v, err := eval(st, tu, r)
				if err != nil {
					return false, err
				}
				if !Truthy(v) {
					return true, nil
				}
			}
			return fn(tu), nil
		}
		pa := ps.accesses[level]
		cont := true
		var inner error
		err := pa.probe(st, tu, func(rec adm.Value) bool {
			keepGoing, perr := expand(level+1, Bind(tu, pa.plan.alias, rec))
			if perr != nil {
				inner = perr
				cont = false
				return false
			}
			if !keepGoing {
				cont = false
				return false
			}
			return true
		})
		if err != nil {
			return false, err
		}
		if inner != nil {
			return false, inner
		}
		return cont, nil
	}
	_, err := expand(0, env)
	return err
}

// probe enumerates the records this access yields for the current outer
// bindings.
func (pa *preparedAccess) probe(st evalState, env *Env, fn func(adm.Value) bool) error {
	acc := pa.plan
	switch acc.kind {
	case accessHash:
		key, err := eval(st, env, acc.probeKey)
		if err != nil {
			return err
		}
		if key.IsUnknown() {
			return nil
		}
		for e := pa.hash[adm.Hash(key)]; e != nil; e = e.next {
			if adm.Equal(e.key, key) {
				if !fn(e.rec) {
					return nil
				}
			}
		}
	case accessRTree:
		g, err := eval(st, env, acc.probeRect)
		if err != nil {
			return err
		}
		rect, ok := GeometryBounds(g)
		if !ok {
			return nil
		}
		for _, tree := range pa.rtrees {
			stopped := false
			tree.Search(rect, func(e index.RTreeEntry) bool {
				if !fn(e.Data.(adm.Value)) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
	case accessIndexNLJ:
		g, err := eval(st, env, acc.probeRect)
		if err != nil {
			return err
		}
		rect, ok := GeometryBounds(g)
		if !ok {
			return nil
		}
		if acc.expand > 0 {
			rect = rect.Expand(acc.expand)
		}
		for _, ix := range pa.liveIndexes {
			for _, pk := range ix.Search(rect) {
				rec, found := pa.liveDataset.Get(pk) // fresh read, per paper
				if !found {
					continue
				}
				if keep, err := pa.passesFilters(st, rec); err != nil {
					return err
				} else if !keep {
					continue
				}
				if !fn(rec) {
					return nil
				}
			}
		}
	default: // accessScan
		for _, shard := range pa.shards {
			for _, rec := range shard {
				if !fn(rec) {
					return nil
				}
			}
		}
	}
	return nil
}

// passesFilters applies alias-only filters at probe time (index-NLJ
// cannot pre-filter its index).
func (pa *preparedAccess) passesFilters(st evalState, rec adm.Value) (bool, error) {
	if len(pa.plan.filters) == 0 {
		return true, nil
	}
	env := Bind(nil, pa.plan.alias, rec)
	for _, f := range pa.plan.filters {
		v, err := eval(st, env, f)
		if err != nil {
			return false, err
		}
		if !Truthy(v) {
			return false, nil
		}
	}
	return true, nil
}
