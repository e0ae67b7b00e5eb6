package query

import (
	"fmt"
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// PreparedEnrich is the enrichment state of a plan: the paper's
// "intermediate states" — const-subquery results, hash tables, transient
// R-trees, scanned records — together with the Context whose pins they were
// built from. It is read-only from when it is built until Refresh
// consumes it (EvalRecord is safe for parallel use by every evaluator
// in a job; only the Context's lazy pins grow, under its lock).
//
// Model 2 requires that a batch observe every reference write
// acknowledged before the batch began. A state meets that for as long
// as every dataset its Context pinned is still the same object at the
// same mutation epoch, so a predeployed feed keeps it across
// invocations and calls Refresh at the start of each: unchanged, the
// state is reused whole — no snapshot, no memtable freeze, no scan, no
// build; changed, a successor is prepared that carries over the pins
// and structures of the datasets that did not change and brings the
// rest up to date. Datasets pinned lazily at eval time (uncompiled
// subqueries) carry stamps like any other and invalidate reuse the same
// way. Prepare always builds everything afresh; the RecompilePerBatch
// ablation and the static pipeline use only that.
//
// A changed hash access is patched in place rather than rebuilt, so a
// refresh costs what was written, not the size of the reference data.
// Four rules govern a patch (patchHash):
//
//   - When. Only a hash access whose other deps are unchanged and whose
//     dataset is the same *lsm.Dataset object, and only when every
//     partition can enumerate its writes since the old stamp
//     (lsm.Snapshot.Changes, asked of all partitions before the table
//     is touched). Otherwise — and always for R-tree, scan and const
//     state — the access is rebuilt. A primary-key access holds no
//     structure: it probes the snapshots its state pinned, so a changed
//     dataset is only pinned again.
//   - Order. A patched chain reads exactly as a fresh build's does:
//     partition by partition (Dataset.Route of the primary key), in
//     primary-key order within one, so an aggregate or ORDER BY … LIMIT
//     over a multi-entry chain sees what it would after Prepare.
//   - Garbage. New entries go into chunks the access owns; unlinked
//     ones stay in theirs. Once unlinked entries outnumber live ones the
//     access is rebuilt instead, which keeps a patch amortised O(1) per
//     change and the table within twice a fresh build's entries.
//   - Retention. The entries a build or a patch keeps are detached
//     copies (adm.Value.Detached) of the key and record it read: a row
//     read from a run is valid only until its cursor moves on, and a
//     memtable's view or an aliased string would keep the whole batch
//     buffer alive for as long as the table lives, long after a flush
//     and a compaction have retired the component it belonged to.
//   - Poison. A patch moves the table from the old access to the new
//     one: the old access is spent as soon as the patch touches the
//     table, so a patch that fails part-way (a filter or key error, a
//     read fault) leaves an access that only a rebuild may serve, and
//     the next Refresh rebuilds it.
//
// Refresh therefore consumes its receiver: once it has returned a
// successor, the old state must not be evaluated (the feed drops it),
// and once it has failed, only another Refresh of it may follow.
//
// The probe phase is compiled once and invoked per record too: each
// EvalRecord borrows a recordScratch from the state's pool, and the
// scratch keeps the operator pipeline of the body and of every compiled
// probe, rewinding it for the next record (RowCursor.reset) instead of
// building it again. Four rules make that safe:
//
//  1. Lifetime. The arrays the record's subqueries drain are carved from
//     the scratch (recordScratch.carver) and stay as they are for the
//     whole record — no pipeline's open or rewind rewinds them — until
//     putScratch clears them. So no value EvalRecord returns points into
//     the scratch, whose pool every collector shares: a row spliced into
//     the caller's slab is bytes already, and any other result that may
//     hold an array — an array, an Object row holding a LET's — is
//     detached (recordScratch.detach). A body that calls a library
//     function or a catalog UDF, which may keep its arguments, carves
//     nothing. Values never refer to a binding.
//  2. Candidate binding. A probe's accessCursor rebinds one box per
//     candidate only where the planner's env-reuse rule (envReuse)
//     allows it — the one rule every FROM leaf follows. Every other
//     candidate is a new binding.
//  3. Re-entry. A kept pipeline is busy while it is open, and serves
//     only the evaluation depth it was first opened at. A block opened
//     again while busy — a UDF that reaches its own body through
//     CallFunction, whose AST the plan shares — or at another depth is
//     opened fresh, as every block is outside EvalRecord.
//  4. Pinning. A scratch goes back to the pool with its boxes, the
//     probes' candidates, the DISTINCT sets and the destination
//     cleared and its block pins released (probeLeases), so a pooled
//     scratch pins no record, frame slab or block.
type PreparedEnrich struct {
	plan   *EnrichPlan
	ctx    *Context
	consts map[*sqlpp.SelectExpr]*preparedConst
	probes map[*sqlpp.SelectExpr]*preparedSub
	// built counts the const results and access structures built for
	// this state rather than carried over from its predecessor, and
	// patched the hash accesses patched from it.
	built, patched int
	// scratch pools the *recordScratch each EvalRecord borrows.
	scratch sync.Pool
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
	slot     int // its pipeline's index in recordScratch.kept
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

	pin *pin // accessPK: the snapshots every probe looks its key up in

	hash map[uint64]*hashEntry // accessHash: key hash → chain of entries
	// extra holds the entries patches added (the build's stay in its
	// shards' chunks); live counts the entries the chains link, dead
	// those patches unlinked since the build.
	extra      [][]hashEntry
	live, dead int
	// spent marks an access whose table a patch took over: only a
	// rebuild may serve it again.
	spent bool

	rtrees []*index.RTree // accessRTree, sharded per partition

	recs []adm.Value // accessScan: every record, partition by partition

	liveIndexes []*lsm.RTreeIndex // accessIndexNLJ
	liveDataset *lsm.Dataset      // accessIndexNLJ (fresh point reads)
}

// reusable reports whether pa still answers probes as a fresh build
// would, given the pins that are unchanged since it was built.
func (pa *preparedAccess) reusable(cat Catalog, unchanged map[string]*pin) bool {
	if pa.spent {
		return false
	}
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
// what is still current, patches the hash tables it can and rebuilds
// the rest. Call it between invocations, never while pe is evaluating;
// it consumes pe (see PreparedEnrich).
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
// for this state, as opposed to carried over or patched by Refresh.
func (pe *PreparedEnrich) Built() int { return pe.built }

// Patched reports how many hash accesses Refresh patched in place for
// this state rather than rebuilt.
func (pe *PreparedEnrich) Patched() int { return pe.patched }

// prepare builds a state, taking from prev (nil for a full build) every
// pin in unchanged and every const result and access structure that
// read nothing else, and patching from prev what it can.
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
			// Carried into successors while its deps are unchanged: it
			// keeps no block its strings were read from.
			pe.consts[sel] = &preparedConst{val: val.Detached(), deps: deps}
			pe.built++
		case probeSub:
			ps := &preparedSub{plan: sp, slot: len(pe.probes) + 1}
			for i := range sp.accesses {
				var old *preparedAccess
				if prev != nil {
					if old = prev.probes[sel].accesses[i]; old.reusable(cat, unchanged) {
						ps.accesses = append(ps.accesses, old)
						continue
					}
				}
				var pa *preparedAccess
				patched := false
				deps, err := pe.ctx.traced(func() (err error) {
					if old != nil {
						pa, err = pe.patchHash(prev, old, unchanged)
						if patched = pa != nil; patched || err != nil {
							return err
						}
					}
					pa, err = pe.buildAccess(&sp.accesses[i])
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("query: %s: build %s: %w", plan.Name, sp.accesses[i].dataset, err)
				}
				if patched {
					// What the build read, plus whatever the patch's filters
					// reached on records the build never saw.
					pa.deps = slices.Clip(old.deps)
					for _, name := range deps {
						if !slices.Contains(pa.deps, name) {
							pa.deps = append(pa.deps, name)
						}
					}
					pe.patched++
				} else {
					pa.deps = deps
					if pa.plan.kind != accessPK { // it pinned, and built nothing
						pe.built++
					}
				}
				ps.accesses = append(ps.accesses, pa)
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
	if acc.kind == accessPK {
		p, _, err := pe.ctx.pin(acc.dataset)
		if err != nil {
			return nil, err
		}
		if p.ds.PrimaryKey() != acc.indexField {
			return nil, fmt.Errorf("primary key of %s is no longer %s", acc.dataset, acc.indexField)
		}
		pa.pin = p
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
			// no value refers to the environment it was computed in. What
			// the structure keeps of a record is a copy: the scan's rows
			// are valid only until its next row.
			env := Bind(nil, acc.alias, adm.Value{})
			err := snap.Scan(func(_, rec adm.Value) bool {
				env.val = rec
				if acc.kind == accessHash {
					key, ok, err := acc.hashKey(st, env)
					if ok {
						res.entries = appendHashEntry(res.entries, hashEntry{key: key.Detached(), rec: rec.Detached()})
					}
					res.err = err
					return err == nil
				}
				keep, err := acc.admits(st, env)
				if err != nil || !keep {
					res.err = err
					return err == nil
				}
				switch acc.kind {
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
					res.tree.Insert(rect, rec.Detached())
				default: // accessScan
					res.recs = append(res.recs, rec.Detached())
				}
				return true
			})
			// A partial shard must fail the build, all the more now that
			// the structure may serve many batches.
			if res.err == nil {
				res.err = err
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
		pa.hash, pa.live = make(map[uint64]*hashEntry, total), total
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
		total := 0
		for i := range results {
			total += len(results[i].recs)
		}
		pa.recs = make([]adm.Value, 0, total)
		for i := range results {
			pa.recs = append(pa.recs, results[i].recs...)
		}
	}
	return pa, nil
}

// admits applies the access's alias-only filters to the record env
// binds.
func (acc *accessPlan) admits(st evalState, env *Env) (bool, error) {
	for _, f := range acc.filters {
		v, err := eval(st, env, f)
		if err != nil || !Truthy(v) {
			return false, err
		}
	}
	return true, nil
}

// hashKey is what a hash build makes of the record env binds: its build
// key, or ok=false when a filter drops the record or the key is unknown.
func (acc *accessPlan) hashKey(st evalState, env *Env) (key adm.Value, ok bool, err error) {
	if ok, err = acc.admits(st, env); !ok {
		return key, false, err
	}
	key, err = eval(st, env, acc.buildKey)
	return key, err == nil && !key.IsUnknown(), err
}

// patchHash brings the hash table of old, an access of prev, up to the
// pin this state takes of its dataset, in place, and returns the access
// that now owns the table (the rules are PreparedEnrich's). It reads
// only the keys written since prev's stamp: for each, the version prev's
// snapshot held leaves the table and the version the new snapshot holds
// enters it, each as a build would see it. A key whose version did not
// change — a write that raced prev's stamp — is unlinked and linked
// again, to the same place. It returns nil and no error when the access
// must be rebuilt instead.
func (pe *PreparedEnrich) patchHash(prev *PreparedEnrich, old *preparedAccess, unchanged map[string]*pin) (*preparedAccess, error) {
	acc := old.plan
	if acc.kind != accessHash || old.spent {
		return nil, nil
	}
	for _, name := range old.deps {
		if name != acc.dataset && unchanged[name] == nil {
			return nil, nil
		}
	}
	prev.ctx.mu.Lock()
	was := prev.ctx.pins[acc.dataset]
	prev.ctx.mu.Unlock()
	now, _, err := pe.ctx.pin(acc.dataset)
	if err != nil || was == nil || now.ds != was.ds {
		return nil, err
	}
	changes := make([]*lsm.ChangeCursor, len(now.snaps))
	for i, snap := range now.snaps {
		var ok bool
		if changes[i], ok = snap.Changes(was.epoch[i]); !ok {
			return nil, nil
		}
	}
	old.spent = true
	pa := &preparedAccess{plan: acc, hash: old.hash, extra: old.extra, live: old.live, dead: old.dead}
	st := evalState{ctx: pe.ctx, depth: 1} // as in buildAccess
	env := Bind(nil, acc.alias, adm.Value{})
	for part, cc := range changes {
		for {
			pk, rec, more := cc.Next()
			if !more {
				break
			}
			prior, ok, err := was.snaps[part].Get(pk)
			if err != nil {
				return nil, err
			}
			if ok {
				env.val = prior
				key, in, err := acc.hashKey(st, env)
				if err != nil {
					return nil, err
				}
				if in {
					pa.unlink(key, pk, now.ds)
				}
			}
			if !rec.IsMissing() {
				env.val = rec
				key, in, err := acc.hashKey(st, env)
				if err != nil {
					return nil, err
				}
				if in {
					pa.link(hashEntry{key: key.Detached(), rec: rec.Detached()}, part, pk, now.ds)
				}
			}
			if pa.dead > pa.live {
				return nil, nil
			}
		}
		if err := cc.Err(); err != nil {
			return nil, err
		}
	}
	return pa, nil
}

// unlink takes the entry of primary key pk out of key's chain, if the
// chain holds one, and clears it so it pins nothing of its record.
func (pa *preparedAccess) unlink(key, pk adm.Value, ds *lsm.Dataset) {
	h := adm.Hash(key)
	var before *hashEntry
	for e := pa.hash[h]; e != nil; before, e = e, e.next {
		if adm.Compare(e.rec.Field(ds.PrimaryKey()), pk) != 0 {
			continue
		}
		switch {
		case before != nil:
			before.next = e.next
		case e.next != nil:
			pa.hash[h] = e.next
		default:
			delete(pa.hash, h)
		}
		*e = hashEntry{}
		pa.live--
		pa.dead++
		return
	}
}

// link adds e, the entry of primary key pk from partition part, to its
// chain where a fresh build would have put it: partition by partition,
// in primary-key order within one.
func (pa *preparedAccess) link(e hashEntry, part int, pk adm.Value, ds *lsm.Dataset) {
	pa.extra = appendHashEntry(pa.extra, e)
	chunk := pa.extra[len(pa.extra)-1]
	ne := &chunk[len(chunk)-1]
	h := adm.Hash(e.key)
	var before *hashEntry
	next := pa.hash[h]
	for ; next != nil; before, next = next, next.next {
		npk := next.rec.Field(ds.PrimaryKey())
		if np := ds.Route(npk); np > part || np == part && adm.Compare(npk, pk) > 0 {
			break
		}
	}
	ne.next = next
	if before == nil {
		pa.hash[h] = ne
	} else {
		before.next = ne
	}
	pa.live++
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
	s, _ := pe.scratch.Get().(*recordScratch)
	if s == nil {
		s = pe.newScratch()
	}
	defer pe.putScratch(s)
	// depth 1: the feed's per-record loop is the outer query here, so no
	// SELECT below it — the UDF body included — is outermost (and none
	// starts a parallel scan per ingested record).
	st := evalState{ctx: pe.ctx, prepared: pe, scratch: s, depth: 1}
	s.param.val = rec
	env := &s.param
	rc, err := pe.openBody(st, env)
	if err != nil {
		return adm.Value{}, err
	}
	if rc == nil {
		v, err := eval(st, env, pe.plan.body)
		if err != nil {
			return adm.Value{}, err
		}
		if s.detach(v) {
			v = v.Detached()
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
		written := -1
		if rc.dst != nil {
			written = len(*rc.dst)
		}
		v, ok, err := rc.Next()
		if err != nil {
			return adm.Value{}, err
		}
		if !ok {
			break
		}
		if (rc.Transient() || s.detach(v)) && (rc.dst == nil || len(*rc.dst) == written) {
			v = v.Detached() // a row spliced into *dst is a copy already
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

// openBody opens the cursor of a UDF body that is a query block, or
// returns nil for any other body, a constant one included. A body
// compiled into a probe is opened like any other (openSelect knows it).
func (pe *PreparedEnrich) openBody(st evalState, env *Env) (*RowCursor, error) {
	sel, ok := pe.plan.body.(*sqlpp.SelectExpr)
	if !ok || pe.consts[sel] != nil {
		return nil, nil
	}
	return openSelect(st, env, sel)
}

// recordScratch is what one EvalRecord call borrows from its state: the
// parameter's binding box, the pipelines kept across records, the
// body's at kept[0] and each compiled probe's at its slot, and the pins
// of the blocks its primary-key hits lie in (probeLeases).
type recordScratch struct {
	param Env
	body  *sqlpp.SelectExpr // the body, when it is a query block
	kept  []keptPipeline
	// local is set when the body calls only builtins
	// (EnrichPlan.KeepsNoInput): nothing it runs keeps a value past the
	// record, so its probes lease their hits' blocks and its drained
	// arrays are carved from rows.
	local  bool
	leases lsm.Leases
	rows   carver
}

// carvedKept is the most values a pooled scratch keeps room for: a
// record that drained more leaves the array to the garbage collector.
const carvedKept = 1024

func (pe *PreparedEnrich) newScratch() *recordScratch {
	s := &recordScratch{param: Env{name: pe.plan.param}, kept: make([]keptPipeline, len(pe.probes)+1), local: pe.plan.KeepsNoInput()}
	s.body, _ = pe.plan.body.(*sqlpp.SelectExpr)
	return s
}

// probeLeases is where a primary-key probe leaves the pin of its hit's
// block while a record is enriched: the scratch's, released once
// EvalRecord's row is spliced or copied. A body that calls a library
// function or a catalog UDF could keep a hit longer: its probes copy.
func (s *recordScratch) probeLeases() *lsm.Leases {
	if s == nil || !s.local {
		return nil
	}
	return &s.leases
}

// carver is what a subquery drained while a record is enriched carves
// its array from: the scratch's, whose arrays stay as they are until the
// record is done (rule 1), or nil — allocate — when no record is, or the
// body could keep an array past its record.
func (s *recordScratch) carver() *carver {
	if s == nil || !s.local {
		return nil
	}
	return &s.rows
}

// detach reports whether v, a result EvalRecord is about to return, must
// be copied first: when it may lie in a block a probe leased, or may hold
// an array carved from the scratch — an array or an object built field
// by field may; a view is bytes, and a scalar a word.
func (s *recordScratch) detach(v adm.Value) bool {
	if s.leases.Holds() {
		return true
	}
	k := v.Kind()
	return len(s.rows.vals) > 0 && (k == adm.KindArray || k == adm.KindObject && !v.IsView())
}

// putScratch returns s to the pool holding no record, candidate, row,
// carved array or destination (rule 4).
func (pe *PreparedEnrich) putScratch(s *recordScratch) {
	s.param.val = adm.Value{}
	s.leases.Release()
	if cap(s.rows.vals) > carvedKept {
		s.rows.vals = nil
	}
	clear(s.rows.vals)
	s.rows.vals = s.rows.vals[:0]
	for i := range s.kept {
		kp := &s.kept[i]
		clear(kp.lets)
		if kp.rc != nil {
			kp.rc.Close()
			kp.rc.forget()
		}
	}
	pe.scratch.Put(s)
}

// pipeline returns the kept pipeline of sel — the body, or the compiled
// probe ps — or nil when no record is being enriched or sel is neither.
func (s *recordScratch) pipeline(sel *sqlpp.SelectExpr, ps *preparedSub) *keptPipeline {
	switch {
	case s == nil:
		return nil
	case ps != nil:
		return &s.kept[ps.slot]
	case sel == s.body:
		return &s.kept[0]
	}
	return nil
}

// keptPipeline is one query block's operator pipeline, kept so that the
// next record rewinds it instead of building it (rule 3 says when).
// Whether it can be kept is decided once, at its first open: a pipeline
// with a dataset scan leaf, a hash aggregate or a top-k heap cannot
// (rewindable), and that block is opened fresh for every record.
type keptPipeline struct {
	rc    *RowCursor
	depth int   // the evaluation depth rc serves
	lets  []Env // the block's leading LETs, rebound per record
	never bool  // the first open was not rewindable
}

func (kp *keptPipeline) open(st evalState, env *Env, sel *sqlpp.SelectExpr, ps *preparedSub) (*RowCursor, error) {
	rc := kp.rc
	if rc == nil || !rc.done || kp.depth != st.depth {
		fresh, err := openBlock(st, env, sel, ps)
		if err == nil && rc == nil && !kp.never {
			if kp.never = !rewindable(fresh.rows); !kp.never {
				kp.rc, kp.depth, kp.lets = fresh, st.depth, make([]Env, len(sel.Lets))
			}
		}
		return fresh, err
	}
	rc.done = false // busy until Close
	for i, l := range sel.Lets {
		v, err := eval(rc.st, env, l.Expr)
		if err != nil {
			rc.Close()
			return nil, err
		}
		kp.lets[i] = Env{parent: env, name: l.Name, val: v}
		env = &kp.lets[i]
	}
	if err := rc.reset(env); err != nil {
		rc.Close()
		return nil, err
	}
	return rc, nil
}

// open chains the FROM product of a compiled probe over one outer
// binding: an accessCursor per access — the anchor probed here, for env
// — then the FROM-LETs and a filter per residual. It stands in for the
// FROM, LET and WHERE operators of the subquery's pipeline. reuse lets
// each accessCursor rebind one box per candidate (rule 2).
func (ps *preparedSub) open(st evalState, env *Env, reuse bool) (tupleCursor, error) {
	anchor := &accessCursor{st: st, pa: ps.accesses[0], reuse: reuse}
	if err := anchor.probe(env); err != nil {
		return nil, err
	}
	var cur tupleCursor = anchor
	for _, pa := range ps.accesses[1:] {
		cur = &accessCursor{st: st, outer: cur, pa: pa, reuse: reuse}
	}
	if lets := ps.plan.sel.FromLets; len(lets) > 0 {
		cur = &letCursor{st: st, inner: cur, lets: lets}
	}
	for _, r := range ps.plan.residuals {
		cur = &filterCursor{st: st, inner: cur, pred: r}
	}
	return cur, nil
}

// accessCursor streams one prepared access, the twin of fromCursor: for
// every outer tuple it probes the hash chain, the pinned primary index,
// the transient R-trees, the live spatial index or the scan records, and
// yields one extended tuple per record. A chain entry is compared, and a
// live record read, only when it is pulled, so a consumer that stops
// early (EXISTS, LIMIT) touches nothing past its last row.
type accessCursor struct {
	st    evalState
	outer tupleCursor // nil for the anchor, whose one outer tuple open probed
	pa    *preparedAccess
	reuse bool // yield every candidate in box (rule 2)
	box   Env

	env   *Env       // the outer tuple being probed; nil = draw the next
	key   adm.Value  // accessHash: the probe key
	chain *hashEntry // accessHash: the rest of its chain
	// recs are the candidates of the other kinds — the primary-key hit,
	// R-tree hits, the live index's primary keys, the scan records — and
	// pos the next of them.
	recs []adm.Value
	pos  int
}

func (a *accessCursor) next() (*Env, bool, error) {
	for {
		for a.env == nil {
			if a.outer == nil {
				return nil, false, nil
			}
			oe, ok, err := a.outer.next()
			if err != nil || !ok {
				return nil, false, err
			}
			if err := a.probe(oe); err != nil {
				return nil, false, err
			}
		}
		rec, ok, err := a.draw()
		if err != nil {
			return nil, false, err
		}
		if ok {
			if a.reuse {
				a.box = Env{parent: a.env, name: a.pa.plan.alias, val: rec}
				return &a.box, true, nil
			}
			return Bind(a.env, a.pa.plan.alias, rec), true, nil
		}
		a.env = nil
	}
}

func (a *accessCursor) transient() bool { return a.outer != nil && a.outer.transient() }

// close drops what the last probe held — its outer tuple, key and
// candidates — so a kept pipeline pins no record between records.
func (a *accessCursor) close() {
	a.env, a.key, a.chain, a.box.val = nil, adm.Value{}, nil, adm.Value{}
	if a.pa.plan.kind == accessScan {
		a.recs = nil // the prepared records themselves
	} else {
		clear(a.recs[:cap(a.recs)])
		a.recs = a.recs[:0]
	}
	if a.outer != nil {
		a.outer.close()
	}
}

// reset probes env again (the anchor) or lets the next pull draw the
// outer chain's first tuple.
func (a *accessCursor) reset(env *Env) error {
	if a.outer != nil {
		return a.outer.(rewinder).reset(env)
	}
	return a.probe(env)
}

// probe starts probing for the outer tuple env. A probe that matches
// nothing — an unknown key, a geometry with no bounds — leaves env nil,
// so next draws the following outer tuple.
func (a *accessCursor) probe(env *Env) error {
	pa := a.pa
	acc := pa.plan
	a.env, a.chain, a.pos = nil, nil, 0
	switch acc.kind {
	case accessHash:
		key, _, err := probeKey(a.st, env, acc.probeKey)
		if err != nil || key.IsUnknown() {
			return err
		}
		a.key, a.chain = key, pa.hash[adm.Hash(key)]
	case accessPK:
		// At most one candidate, read at the pin (Model 2 by construction);
		// the build filters run on it, as index-NLJ runs them.
		key, enc, err := probeKey(a.st, env, acc.probeKey)
		if err != nil || key.IsUnknown() {
			return err
		}
		snap, leases := pa.pin.snaps[pa.pin.ds.Route(key)], a.st.scratch.probeLeases()
		var rec adm.Value
		var found bool
		if enc != nil {
			rec, found, err = snap.GetEncodedLeased(enc, leases)
		} else {
			rec, found, err = snap.GetLeased(key, leases)
		}
		if err != nil || !found {
			return err
		}
		if keep, err := pa.passesFilters(a.st, rec); !keep {
			return err
		}
		a.recs = append(a.recs[:0], rec)
	case accessRTree, accessIndexNLJ:
		g, err := eval(a.st, env, acc.probeRect)
		if err != nil {
			return err
		}
		rect, ok := GeometryBounds(g)
		if !ok {
			return nil
		}
		a.recs = a.recs[:0]
		if acc.kind == accessRTree {
			for _, tree := range pa.rtrees {
				tree.Search(rect, func(e index.RTreeEntry) bool {
					a.recs = append(a.recs, e.Data.(adm.Value))
					return true
				})
			}
			break
		}
		if acc.expand > 0 {
			rect = rect.Expand(acc.expand)
		}
		for _, ix := range pa.liveIndexes {
			a.recs = append(a.recs, ix.Search(rect)...)
		}
	default: // accessScan
		a.recs = pa.recs
	}
	a.env = env
	return nil
}

// probeKey evaluates the key a hash or primary-key access probes with.
// A field of a view — the record being enriched arrives as one — is read
// where it lies: enc is its encoding, for a point lookup to probe with as
// it is, and key aliases it (adm.ViewAlias), so no string is copied out
// even of a view over reused bytes (adm.View). Neither outlives the
// probe: the record's bytes stay as they are while it is enriched, and a
// probe keeps its key only until its cursor closes (accessCursor.close).
func probeKey(st evalState, env *Env, e sqlpp.Expr) (key adm.Value, enc []byte, err error) {
	fa, ok := e.(*sqlpp.FieldAccess)
	if !ok {
		key, err = eval(st, env, e)
		return key, nil, err
	}
	base, err := eval(st, env, fa.Base)
	if err != nil {
		return adm.Value{}, nil, err
	}
	if enc = base.FieldEncoding(fa.Field); enc != nil {
		return adm.ViewAlias(enc), enc, nil
	}
	return base.Field(fa.Field), nil, nil
}

// draw returns the next record the current probe yields.
func (a *accessCursor) draw() (adm.Value, bool, error) {
	pa := a.pa
	if pa.plan.kind == accessHash {
		for e := a.chain; e != nil; e = e.next {
			if adm.Equal(e.key, a.key) {
				a.chain = e.next
				return e.rec, true, nil
			}
		}
		a.chain = nil
		return adm.Value{}, false, nil
	}
	for a.pos < len(a.recs) {
		v := a.recs[a.pos]
		a.pos++
		if pa.plan.kind != accessIndexNLJ {
			return v, true, nil
		}
		ds := pa.liveDataset
		rec, found, err := ds.Partition(ds.Route(v)).Get(v) // fresh read, per paper
		if err != nil {
			return adm.Value{}, false, err
		}
		if !found {
			continue
		}
		if keep, err := pa.passesFilters(a.st, rec); err != nil || keep {
			return rec, keep, err
		}
	}
	return adm.Value{}, false, nil
}

// passesFilters applies alias-only filters at probe time (an index —
// spatial or primary — cannot be pre-filtered).
func (pa *preparedAccess) passesFilters(st evalState, rec adm.Value) (bool, error) {
	if len(pa.plan.filters) == 0 {
		return true, nil
	}
	return pa.plan.admits(st, Bind(nil, pa.plan.alias, rec))
}
