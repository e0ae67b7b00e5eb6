package idea

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
)

// NamedArg binds a value to a named statement parameter: pass
// idea.Named("country", "US") for a query referencing $country.
// Non-NamedArg arguments bind positionally to $1, $2, ...
type NamedArg struct {
	// Name is the parameter name, without the leading "$" (a leading
	// "$" is tolerated and stripped).
	Name string
	// Value converts like the Obj/Arr builders: Value, string, int,
	// int64, float64, bool, time.Time, nil, or []byte (JSON).
	Value any
}

// Named builds a NamedArg.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// Result describes one executed statement of a script.
type Result struct {
	// Kind labels the statement ("CREATE TYPE", "INSERT", "START FEED",
	// ...).
	Kind string
	// Pos is the statement's byte offset in the script.
	Pos int
	// RowsAffected counts records written by DML (INSERT/UPSERT); 0 for
	// DDL and feed control.
	RowsAffected int
	// Feed is the handle started by a START FEED statement, nil
	// otherwise.
	Feed *Feed
}

// Results is the per-statement outcome of one Execute call.
type Results []Result

// Feeds returns the feed handles started by the script, in statement
// order — one per START FEED.
func (rs Results) Feeds() []*Feed {
	var out []*Feed
	for _, r := range rs {
		if r.Feed != nil {
			out = append(out, r.Feed)
		}
	}
	return out
}

// RowsAffected totals records written across the script's DML
// statements.
func (rs Results) RowsAffected() int {
	n := 0
	for _, r := range rs {
		n += r.RowsAffected
	}
	return n
}

// Execute runs a sequence of semicolon-separated SQL++ statements: DDL
// (CREATE TYPE / DATASET / INDEX / FUNCTION / FEED, CONNECT FEED,
// START/STOP FEED) and DML (INSERT / UPSERT, with $param binding). Use
// Query for SELECTs.
//
// Execution is statement by statement; ctx is checked between
// statements (a statement already evaluating runs to completion). A
// started feed is NOT bound to ctx — feeds outlive the call and are
// stopped via their handle or STOP FEED.
//
// On a mid-script failure Execute returns the Results of every
// statement that already ran — including the Feed handles of feeds the
// script already started, so callers can stop them — alongside a
// *StatementError locating the failure (index, byte offset, snippet,
// and the unwrapped cause).
func (c *Cluster) Execute(ctx context.Context, script string, args ...any) (Results, error) {
	parsed, err := c.stmts.parse(script)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(parsed.params, args)
	if err != nil {
		return nil, err
	}
	var results Results
	for i, stmt := range parsed.stmts {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		res, err := c.executeStmt(ctx, stmt, params)
		if err != nil {
			return results, &StatementError{
				Index:   i,
				Pos:     stmt.Pos(),
				Snippet: snippetAt(script, stmt.Pos()),
				Err:     err,
			}
		}
		res.Pos = stmt.Pos()
		results = append(results, res)
	}
	return results, nil
}

// Close shuts the cluster's storage down cleanly: every partition drains
// its background flusher, flushes its memtable into a run file, and
// deletes its WAL once the manifest covers it, so the next NewCluster
// has no log to replay. A cluster with a DataDir that is closed (or killed) reopens
// to exactly the committed state on the next NewCluster with the same
// DataDir. The cluster must not execute statements or run feeds after
// Close.
func (c *Cluster) Close() error {
	return c.inner.Close()
}

// Ping is a cheap liveness check: it reports nil while the cluster can
// serve statements, ctx.Err() when the caller's context is done, and
// ErrClusterClosed (wrapped) after Close. The wire server's admin ping
// and the database/sql driver's Pinger are built on it.
func (c *Cluster) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.inner.Closed() {
		return fmt.Errorf("%w", ErrClusterClosed)
	}
	return nil
}

// MustExecute is Execute that panics on error (setup scripts in
// examples and tests), with context.Background.
func (c *Cluster) MustExecute(script string, args ...any) Results {
	results, err := c.Execute(context.Background(), script, args...)
	if err != nil {
		panic(err)
	}
	return results
}

// queryContext builds a fresh evaluation context carrying the bound
// parameters and the caller's cancellation context. Each statement gets
// its own context so snapshot pinning never lets one statement observe
// pre-script data after an earlier statement wrote.
func (c *Cluster) queryContext(ctx context.Context, params query.Params) *query.Context {
	qctx := query.NewContext(c.inner)
	qctx.Params = params
	qctx.Std = ctx
	return qctx
}

func (c *Cluster) executeStmt(ctx context.Context, stmt sqlpp.Statement, params query.Params) (Result, error) {
	switch s := stmt.(type) {
	case *sqlpp.CreateType:
		dt, err := adm.NewDatatype(s.Name, s.Open, s.Fields)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "CREATE TYPE"}, c.inner.CreateDatatype(dt)
	case *sqlpp.CreateDataset:
		_, err := c.inner.CreateDataset(s.Name, s.TypeName, s.PrimaryKey)
		return Result{Kind: "CREATE DATASET"}, err
	case *sqlpp.CreateIndex:
		return Result{Kind: "CREATE INDEX"}, c.inner.CreateIndex(s.Name, s.Dataset, s.Field, s.Kind)
	case *sqlpp.CreateFunction:
		// A stored body outlives this call, so a $param bound now could
		// not be resolved at call time — reject rather than let the
		// reference float and capture whatever a future query binds.
		if ps := sqlpp.CollectExprParams(s.Body); len(ps) > 0 {
			return Result{}, fmt.Errorf("idea: CREATE FUNCTION %s: statement parameter $%s is not allowed in a stored function body (use a function parameter)", s.Name, ps[0])
		}
		return Result{Kind: "CREATE FUNCTION"}, c.inner.CreateFunction(&query.Function{
			Name: s.Name, Params: s.Params, Body: s.Body,
		})
	case *sqlpp.CreateFeed:
		return Result{Kind: "CREATE FEED"}, c.mgr.CreateFeed(s.Name, s.Config)
	case *sqlpp.ConnectFeed:
		return Result{Kind: "CONNECT FEED"}, c.mgr.ConnectFeed(s.Feed, s.Dataset, s.Function)
	case *sqlpp.StartFeed:
		// Feeds run on the cluster's lifetime context, not the Execute
		// ctx: the pipeline outlives this call.
		if _, err := c.mgr.StartFeed(c.ctx, s.Name); err != nil {
			return Result{}, err
		}
		return Result{Kind: "START FEED", Feed: &Feed{name: s.Name, c: c}}, nil
	case *sqlpp.StopFeed:
		return Result{Kind: "STOP FEED"}, c.mgr.StopFeed(s.Name)
	case *sqlpp.Insert:
		kind := "INSERT"
		if s.Upsert {
			kind = "UPSERT"
		}
		n, err := c.executeInsert(ctx, s, params)
		return Result{Kind: kind, RowsAffected: n}, err
	case *sqlpp.Query:
		return Result{}, fmt.Errorf("idea: use Query for SELECT statements")
	}
	return Result{}, fmt.Errorf("idea: unsupported statement %T", stmt)
}

// executeInsert evaluates the source expression (a literal array or a
// query) and inserts/upserts each record, returning the record count.
func (c *Cluster) executeInsert(ctx context.Context, ins *sqlpp.Insert, params query.Params) (int, error) {
	ds, ok := c.inner.Dataset(ins.Dataset)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownDataset, ins.Dataset)
	}
	src, err := query.Eval(c.queryContext(ctx, params), nil, ins.Source)
	if err != nil {
		return 0, err
	}
	records := src.ArrayVal()
	if records == nil && src.Kind() == adm.KindObject {
		records = []adm.Value{src}
	}
	if ins.Upsert {
		// The whole statement lands as one batch per touched partition
		// (one WAL append+commit, one lock, one bulk memtable insert),
		// and validation runs before anything is written.
		if err := ds.UpsertBatch(records); err != nil {
			return 0, err
		}
		return len(records), nil
	}
	for i, rec := range records {
		// INSERT keeps per-record statement semantics — duplicate-key
		// rejection is checked against records earlier in the same
		// statement too — by storing one batch of one per record.
		if err := ds.Insert(rec); err != nil {
			return i, err
		}
	}
	return len(records), nil
}

// Query runs a SQL++ SELECT and returns a streaming cursor over its
// result. Statement parameters — $name bound by idea.Named args, $1,
// $2, ... bound by positional args — are parsed by sqlpp and bound at
// execution, so query text never needs value splicing. UDFs in the
// query evaluate against current data — the paper's Option 1,
// enrich-during-querying.
//
// A text is parsed once: the cluster keeps recently run texts parsed
// (Execute shares the cache), and a repeat binds its arguments into the
// cached statement. Planning and snapshot pinning still happen on every
// call, so each call sees the data and the indexes as of its start.
//
// The returned Rows pulls rows on demand (see Rows for lifetime and
// cancellation semantics); Close it when done. For small results,
// Rows.Collect materializes a slice.
func (c *Cluster) Query(ctx context.Context, q string, args ...any) (*Rows, error) {
	parsed, err := c.stmts.parse(q)
	if err != nil {
		return nil, err
	}
	stmts := parsed.stmts
	if len(stmts) != 1 {
		return nil, fmt.Errorf("idea: Query expects exactly one statement")
	}
	qs, ok := stmts[0].(*sqlpp.Query)
	if !ok {
		return nil, fmt.Errorf("idea: Query expects a SELECT, got %T (use Execute)", stmts[0])
	}
	params, err := bindArgs(parsed.params, args)
	if err != nil {
		return nil, err
	}
	cur, err := query.ExecuteSelectCursor(c.queryContext(ctx, params), nil, qs.Sel)
	if err != nil {
		return nil, err
	}
	return &Rows{ctx: ctx, cur: cur}, nil
}

// bindArgs converts the caller's arguments into slots aligned with the
// statement's referenced parameter names and validates the binding set
// both ways: every referenced $name needs an argument, and every
// argument must be referenced (a stray argument is almost always a
// typo'd name or a forgotten edit). Arguments are checked in order —
// name, duplicate, conversion — before either direction; of several
// stray arguments, the first is named.
func bindArgs(referenced []string, args []any) (query.Params, error) {
	if len(args) == 0 && len(referenced) == 0 {
		return query.Params{}, nil
	}
	values := make([]adm.Value, len(referenced))
	var small [8]bool // which slots are bound; on the stack for short lists
	filled := small[:min(len(referenced), len(small))]
	if len(referenced) > len(small) {
		filled = make([]bool, len(referenced))
	}
	var strays []string // bound names the statement never references
	pos := 0
	for _, a := range args {
		name := ""
		value := a
		if na, isNamed := a.(NamedArg); isNamed {
			name = strings.TrimPrefix(na.Name, "$")
			value = na.Value
			if name == "" {
				return query.Params{}, fmt.Errorf("idea: NamedArg with empty name")
			}
		} else {
			pos++
			name = strconv.Itoa(pos)
		}
		slot := slices.Index(referenced, name)
		if slot >= 0 && filled[slot] || slot < 0 && slices.Contains(strays, name) {
			return query.Params{}, fmt.Errorf("idea: parameter $%s bound twice", name)
		}
		v, err := valueFromAny(value)
		if err != nil {
			return query.Params{}, fmt.Errorf("idea: argument $%s: %w", name, err)
		}
		if slot < 0 {
			strays = append(strays, name)
			continue
		}
		values[slot], filled[slot] = v, true
	}
	if len(strays) > 0 {
		return query.Params{}, fmt.Errorf("idea: argument $%s is not referenced by the statement", strays[0])
	}
	for i, n := range referenced {
		if !filled[i] {
			return query.Params{}, fmt.Errorf("idea: missing argument for parameter $%s", n)
		}
	}
	return query.Params{Names: referenced, Values: values}, nil
}
