// Package query implements SQL++ evaluation: a scalar expression
// evaluator with the paper's builtin function library, one pull-based
// SELECT executor (scan → join → filter → group → order → project →
// distinct → limit; stream.go, plan_select.go) that serves top-level
// statements, subqueries and UDF bodies alike, and the enrichment
// planner that compiles a stateful UDF into the per-batch build phase /
// per-record probe phase split described in Section 4.3 of the paper.
// The probe is that executor too: a compiled subquery's FROM product is
// a chain of accessCursors over the prepared structures (prepare.go),
// pulled by the same LET, filter, aggregate, order and project
// operators as any other.
package query

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// Env is an immutable binding environment: a persistent linked chain of
// name→value pairs. Binding returns a child env, so tuple fan-out during
// joins shares structure.
type Env struct {
	parent *Env
	name   string
	val    adm.Value
}

// Bind returns a child environment with one extra binding. parent may be
// nil.
func Bind(parent *Env, name string, val adm.Value) *Env {
	return &Env{parent: parent, name: name, val: val}
}

// Lookup resolves a name, innermost binding first.
func (e *Env) Lookup(name string) (adm.Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return adm.Value{}, false
}

// Function is a catalog-registered SQL++ UDF. Native Go functions are
// reached as library calls (ns#name) through Catalog.Native, or attached
// to a feed from its udf.Registry.
type Function struct {
	Name   string
	Params []string
	Body   sqlpp.Expr
}

// Catalog resolves names during evaluation. The cluster's metadata node
// implements it; tests use lightweight fakes.
type Catalog interface {
	// Dataset resolves a dataset name.
	Dataset(name string) (*lsm.Dataset, bool)
	// Function resolves a UDF name.
	Function(name string) (*Function, bool)
	// Native resolves a namespaced library function (testlib#removeSpecial).
	Native(ns, name string) (func([]adm.Value) (adm.Value, error), bool)
}

// Params binds statement parameters by slot: Values[i] is the argument
// for $Names[i]. Names is typically the referenced-parameter list of a
// parsed statement, shared by every call that runs it, so binding one
// call fills a slice and builds no map. Neither slice is written after
// the Context that carries it is built.
type Params struct {
	Names  []string
	Values []adm.Value
}

// Get returns the argument bound to $name.
func (p Params) Get(name string) (adm.Value, bool) {
	for i, n := range p.Names {
		if n == name {
			return p.Values[i], true
		}
	}
	return adm.Value{}, false
}

// Context carries evaluation state shared across one logical evaluation
// scope (one query, or the enrichment state of a feed's computing job).
// Dataset snapshots are pinned on first access, which implements the
// paper's record-level consistency rule: the scope sees updates made
// before it first accesses the dataset, and later updates wait for the
// next scope. Each pin carries the stamp (dataset identity + mutation
// epoch) that lets an enrichment state outlive one invocation for as
// long as its datasets do not change — see PreparedEnrich.
type Context struct {
	Catalog Catalog

	// Params are the statement parameters bound for this evaluation:
	// $name references resolve here (positional $1, $2, ... bind under
	// "1", "2", ...). The zero value means the statement was bound
	// without arguments; referencing a parameter then fails at
	// evaluation.
	Params Params

	// Std is the caller's cancellation context. Row-producing loops poll
	// it via Err so a cancelled statement stops between rows rather than
	// running to completion. Nil means "never cancelled".
	Std context.Context

	// DisableIndexScan and DisableParallelScan switch off the
	// corresponding planner rewrites (see plan_select.go). They exist so
	// benchmarks and plan tests can compare strategies on one dataset;
	// production callers leave them false.
	DisableIndexScan    bool
	DisableParallelScan bool

	mu   sync.Mutex
	pins map[string]*pin
	// trace, while non-nil, collects every name passed to Pin (see
	// traced).
	trace map[string]struct{}
}

// pin is one dataset a Context has pinned: the snapshots every read in
// the scope goes through, stamped with the dataset's identity and the
// mutation epoch read just BEFORE the snapshots were taken. A write
// racing the two lands in the snapshots but not in the stamp, so the
// stamp can only look older than the data — a needless rebuild later,
// never a stale reuse (lsm.Partition.Epoch has the full argument).
type pin struct {
	ds    *lsm.Dataset
	epoch []uint64
	snaps []*lsm.Snapshot
}

// current reports whether pinning name now would observe exactly the
// data p holds: the catalog still resolves the name to the same dataset
// object (DROP + CREATE makes a new one whose epochs may coincide) and
// no partition has logged a write since the stamp.
func (p *pin) current(cat Catalog, name string) bool {
	ds, ok := cat.Dataset(name)
	return ok && ds == p.ds && slices.Equal(ds.Epoch(), p.epoch)
}

// NewContext returns a fresh evaluation context over the catalog.
func NewContext(cat Catalog) *Context {
	return &Context{Catalog: cat, pins: make(map[string]*pin)}
}

// Err reports the cancellation state of the caller's context.
func (c *Context) Err() error {
	if c.Std == nil {
		return nil
	}
	return c.Std.Err()
}

// Pin returns the pinned per-partition snapshots of the named dataset,
// taking them on first access.
func (c *Context) Pin(name string) ([]*lsm.Snapshot, error) {
	p, _, err := c.pin(name)
	if err != nil {
		return nil, err
	}
	return p.snaps, nil
}

// pin is Pin returning the pin itself, also reporting whether this call
// took the snapshots — the only moment the dataset's live secondary
// indexes are known to agree with them.
func (c *Context) pin(name string) (p *pin, took bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trace != nil {
		c.trace[name] = struct{}{}
	}
	if p, ok := c.pins[name]; ok {
		return p, false, nil
	}
	ds, ok := c.Catalog.Dataset(name)
	if !ok {
		return nil, false, fmt.Errorf("query: unknown dataset %q", name)
	}
	p = &pin{ds: ds, epoch: ds.Epoch()} // stamp first, then snapshot
	p.snaps = ds.SnapshotAll()
	c.pins[name] = p
	return p, true, nil
}

// traced runs build and returns the datasets it read through c — the
// names it passed to Pin, whether or not they were pinned already. That
// is what the state build produced depends on. Calls must not overlap;
// build may fan out into goroutines that share c.
func (c *Context) traced(build func() error) ([]string, error) {
	c.mu.Lock()
	c.trace = make(map[string]struct{})
	c.mu.Unlock()
	err := build()
	c.mu.Lock()
	defer c.mu.Unlock()
	deps := make([]string, 0, len(c.trace))
	for name := range c.trace {
		deps = append(deps, name)
	}
	c.trace = nil
	return deps, err
}

// evalState threads per-evaluation context through the evaluator without
// mutating shared state: st.aggVals is the group context of a grouped
// row (aggregate calls resolve to the values the hash aggregate folded;
// nil outside one, where an aggregate call is a scalar function over an
// array); st.prepared is the enrichment state whose const results and
// probes answer its compiled subqueries; st.scratch, set only while
// EvalRecord enriches a record, keeps the pipelines of the body and the
// probes across records; st.depth counts nested SELECT blocks and UDF
// calls.
// evalState is passed by value.
type evalState struct {
	ctx      *Context
	aggVals  map[*sqlpp.Call]adm.Value
	prepared *PreparedEnrich
	scratch  *recordScratch
	depth    int
}

// withAggVals enters the group context of one grouped row.
func (st evalState) withAggVals(vals map[*sqlpp.Call]adm.Value) evalState {
	st.aggVals = vals
	return st
}

func (st evalState) noGroup() evalState {
	st.aggVals = nil
	return st
}

func (st evalState) deeper() (evalState, error) {
	st.depth++
	if st.depth > 64 {
		return st, fmt.Errorf("query: expression nesting too deep (recursive UDF?)")
	}
	return st, nil
}
