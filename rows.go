package idea

import (
	"context"
	"iter"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/query"
)

// Rows is a pull cursor over a SELECT's result: the streaming face of
// Cluster.Query. Rows follows the database/sql idiom —
//
//	rows, err := c.Query(ctx, `SELECT VALUE t.id FROM Tweets t WHERE t.score > $min LIMIT 10`, 5)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Value())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// — or, with Go 1.23 range-over-func, All:
//
//	for v, err := range rows.All() { ... }
//
// Execution is lazy: each Next pulls one row through the engine's
// operator pipeline, which draws records straight from the storage
// layer's scan cursors. A query abandoned after k rows has touched only
// k rows' worth of data; `SELECT ... LIMIT k` over an n-record dataset
// costs O(k) memory, not O(n). Blocking clauses (GROUP BY, aggregates,
// ORDER BY, DISTINCT) inherently buffer before the first row; Rows
// then streams the buffered result.
//
// Lifetime: the snapshots of every dataset named in FROM position are
// pinned before Query returns, so a long-lived Rows observes the data
// as of the call even while feeds keep ingesting (the paper's
// record-level consistency; a dataset touched only inside a subquery
// or UDF pins at its first access during iteration).
// Values yielded by Value, All and Collect are safe to retain after
// Close: a row read from a run file lies in a block the cursor pins
// only until its next Next, and Value hands out a copy of such a row;
// any other row is a freshly projected object or a view of bytes that
// are never rewritten. They never alias recycled frame arenas or blocks
// (see docs/ARCHITECTURE.md, "Rows lifetime"). AppendADM encodes the
// current row without that copy.
//
// Rows is not safe for concurrent use.
type Rows struct {
	ctx context.Context
	cur *query.RowCursor
	val Value
	// transient says val may lie in a block the cursor holds only until
	// its next Next or Close (query.RowCursor.Transient): Value copies it
	// first.
	transient bool
	err       error
	done      bool
}

// Next advances to the next row, reporting whether one is available.
// It returns false at exhaustion, on error (see Err), or after the
// query's context is canceled.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			r.close()
			return false
		}
	}
	if r.transient {
		// The row no Value call copied goes with the block it lies in.
		r.val, r.transient = Value{}, false
	}
	v, ok, err := r.cur.Next()
	if err != nil {
		r.err = err
		r.close()
		return false
	}
	if !ok {
		r.close()
		return false
	}
	r.val, r.transient = Value{v}, r.cur.Transient()
	return true
}

// Value returns the row the last successful Next produced, safe to
// retain: a row that lies in a block the cursor holds is copied here,
// once. Call it before the next Next — such a row that Value did not
// copy is gone once the cursor moves on.
func (r *Rows) Value() Value {
	if r.transient {
		r.val, r.transient = Value{r.val.v.Detached()}, false
	}
	return r.val
}

// AppendADM appends the ADM binary encoding of the row the last
// successful Next produced to dst and returns the extended buffer: the
// bytes a reply carries for the row, written from wherever the row lies,
// with no copy of the row kept.
func (r *Rows) AppendADM(dst []byte) []byte { return adm.AppendBinary(dst, r.val.v) }

// Err returns the error that terminated iteration, if any. It is nil
// after a clean exhaustion; Close never clears it, so the idiomatic
// post-loop check works with a deferred Close.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is idempotent and safe after
// exhaustion; iterating past Close yields no rows. Close never
// overwrites an earlier iteration error.
func (r *Rows) Close() error {
	r.close()
	return nil
}

func (r *Rows) close() {
	if !r.done {
		r.done = true
		r.Value() // a transient row is copied before its block goes
		r.cur.Close()
	}
}

// All adapts the cursor to a Go 1.23 iterator. The sequence yields
// (value, nil) per row and, if iteration fails, one final (zero, err)
// pair. The cursor is closed when the loop ends, including on break.
func (r *Rows) All() iter.Seq2[Value, error] {
	return func(yield func(Value, error) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Value(), nil) {
				return
			}
		}
		if r.err != nil {
			yield(Value{}, r.err)
		}
	}
}

// Collect drains the cursor into a slice and closes it — the
// materializing convenience for small results (and the migration path
// from the old Query signature).
func (r *Rows) Collect() ([]Value, error) {
	defer r.Close()
	var out []Value
	for r.Next() {
		out = append(out, r.Value())
	}
	return out, r.err
}
