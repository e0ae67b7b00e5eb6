package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/wire"
)

// conn is one wire session. database/sql serializes use of a Conn, so
// the request/response exchanges here never interleave; the only
// cross-goroutine touches are the ctx guard (which closes the
// transport) and the bad flag.
type conn struct {
	nc  net.Conn
	wc  *wire.Conn
	bad atomic.Bool
	// json holds the current composite row's JSON for whichever result
	// set the conn is streaming (rows.value): database/sql runs one at a
	// time on a conn, and the bytes it hands out live only until the
	// next Next or Close, so every statement reuses what the first grew.
	json []byte
	// batch holds the current RowBatch frame's raw body, decoded from
	// its coded body (wire.DecodeRowBatch), for the same result set: the
	// rows it yields alias it until the next frame, and it grows,
	// doubling, only when a batch does not fit, so every statement
	// reuses what the earlier ones grew.
	batch []byte
}

var errTxUnsupported = errors.New("idea: transactions are not supported (statements are the unit of atomicity)")

// guard watches ctx for the duration of one exchange: on cancellation
// it closes the transport, which fails the blocked read or write
// immediately and poisons the connection (the pool discards it via
// IsValid). The returned release stops the watch.
func (c *conn) guard(ctx context.Context) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			c.bad.Store(true)
			c.nc.Close()
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func (c *conn) broken(err error) error {
	c.bad.Store(true)
	return err
}

// readReply reads one response frame, translating Error frames into
// *Error values (which keep the session usable) and transport failures
// into a poisoned connection.
func (c *conn) readReply() (wire.Type, []byte, error) {
	t, body, err := c.wc.ReadFrame(wire.MaxFrame)
	if err != nil {
		return 0, nil, c.broken(err)
	}
	return t, body, nil
}

func (c *conn) request(t wire.Type, body []byte) error {
	if c.bad.Load() {
		return driver.ErrBadConn
	}
	if err := c.wc.WriteFrame(t, body); err != nil {
		return c.broken(err)
	}
	if err := c.wc.Flush(); err != nil {
		return c.broken(err)
	}
	return nil
}

// Prepare implements driver.Conn. Statements are client-side: the text
// travels with every execution, parameter count is unknown until the
// server parses it (NumInput -1).
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, text: query}, nil
}

// Close implements driver.Conn.
func (c *conn) Close() error { return c.nc.Close() }

// Begin implements driver.Conn; the engine has no transactions.
func (c *conn) Begin() (driver.Tx, error) { return nil, errTxUnsupported }

// IsValid implements driver.Validator: a connection whose transport
// was poisoned (ctx cancel, protocol error) is dropped from the pool.
func (c *conn) IsValid() bool { return !c.bad.Load() }

// ResetSession implements driver.SessionResetter.
func (c *conn) ResetSession(ctx context.Context) error {
	if c.bad.Load() {
		return driver.ErrBadConn
	}
	return nil
}

// Ping implements driver.Pinger: a wire round trip answered by
// idea.Cluster.Ping on the server. A closed cluster reports
// idea.ErrClusterClosed through the typed error frame.
func (c *conn) Ping(ctx context.Context) error {
	release := c.guard(ctx)
	defer release()
	if err := c.request(wire.TypePing, nil); err != nil {
		return err
	}
	t, body, err := c.readReply()
	if err != nil {
		return err
	}
	switch t {
	case wire.TypePong:
		return nil
	case wire.TypeError:
		return c.parseErrorFrame(body)
	default:
		return c.broken(fmt.Errorf("idea driver: unexpected %v frame to Ping", t))
	}
}

// QueryContext implements driver.QueryerContext: it ships the SELECT
// and its bindings, reads the result-set header, and hands back a
// streaming driver.Rows — batches are decoded as the server flushes
// them, nothing is buffered ahead.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	params, err := wireParams(args)
	if err != nil {
		return nil, err
	}
	release := c.guard(ctx)
	body := wire.AppendRequest(nil, wire.Request{Text: query, Params: params})
	if err := c.request(wire.TypeQuery, body); err != nil {
		release()
		return nil, err
	}
	t, reply, err := c.readReply()
	if err != nil {
		release()
		return nil, err
	}
	switch t {
	case wire.TypeHeader:
		h, perr := wire.ParseHeader(reply)
		if perr != nil {
			release()
			return nil, c.broken(perr)
		}
		// The guard stays armed for the whole stream: database/sql
		// closes Rows when ctx is canceled, but a Next blocked on a
		// stalled server needs the transport cut to wake up.
		return &rows{c: c, cols: h.Columns, release: release}, nil
	case wire.TypeError:
		release()
		return nil, c.parseErrorFrame(reply)
	default:
		release()
		return nil, c.broken(fmt.Errorf("idea driver: unexpected %v frame to Query", t))
	}
}

// ExecContext implements driver.ExecerContext: DDL, DML, and feed
// control scripts. RowsAffected totals the script's DML counts.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	params, err := wireParams(args)
	if err != nil {
		return nil, err
	}
	release := c.guard(ctx)
	defer release()
	body := wire.AppendRequest(nil, wire.Request{Text: query, Params: params})
	if err := c.request(wire.TypeExecute, body); err != nil {
		return nil, err
	}
	t, reply, err := c.readReply()
	if err != nil {
		return nil, err
	}
	switch t {
	case wire.TypeExecResult:
		results, perr := wire.ParseExecResults(reply)
		if perr != nil {
			return nil, c.broken(perr)
		}
		total := int64(0)
		for _, r := range results {
			total += int64(r.RowsAffected)
		}
		return execResult{rows: total}, nil
	case wire.TypeError:
		return nil, c.parseErrorFrame(reply)
	default:
		return nil, c.broken(fmt.Errorf("idea driver: unexpected %v frame to Exec", t))
	}
}

// serverStats runs the STATS admin verb (see ServerStats).
func (c *conn) serverStats(ctx context.Context) (idea.Value, error) {
	release := c.guard(ctx)
	defer release()
	if err := c.request(wire.TypeStats, nil); err != nil {
		return idea.Value{}, err
	}
	t, reply, err := c.readReply()
	if err != nil {
		return idea.Value{}, err
	}
	switch t {
	case wire.TypeStatsReply:
		v, perr := wire.ParseValue(reply)
		if perr != nil {
			return idea.Value{}, c.broken(perr)
		}
		return idea.WrapADM(v), nil
	case wire.TypeError:
		return idea.Value{}, c.parseErrorFrame(reply)
	default:
		return idea.Value{}, c.broken(fmt.Errorf("idea driver: unexpected %v frame to Stats", t))
	}
}

func (c *conn) parseErrorFrame(body []byte) error {
	msg, perr := wire.ParseError(body)
	if perr != nil {
		return c.broken(perr)
	}
	return wireError(msg)
}

// ServerStats fetches the server's admin counters (the STATS verb)
// over an open pool connection:
//
//	sc, _ := db.Conn(ctx)
//	stats, err := driver.ServerStats(ctx, sc)
//	fmt.Println(stats.Field("rows_sent").Int())
func ServerStats(ctx context.Context, sc *sql.Conn) (idea.Value, error) {
	var out idea.Value
	err := sc.Raw(func(dc any) error {
		c, ok := dc.(*conn)
		if !ok {
			return fmt.Errorf("idea driver: ServerStats on a non-idea connection (%T)", dc)
		}
		v, err := c.serverStats(ctx)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out, err
}

// wireParams converts database/sql bindings to wire parameters:
// sql.Named names bind $name, positional ordinals bind $1, $2, ....
// []byte is treated as JSON — the inverse of adm.Value.DriverValue, so
// composite values round-trip through parameters.
func wireParams(args []driver.NamedValue) ([]wire.Param, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make([]wire.Param, 0, len(args))
	for _, a := range args {
		name := a.Name
		if name == "" {
			name = strconv.Itoa(a.Ordinal)
		}
		v, err := adm.FromGo(a.Value)
		if err != nil {
			return nil, fmt.Errorf("idea driver: argument $%s: %w", name, err)
		}
		params = append(params, wire.Param{Name: name, Value: v})
	}
	return params, nil
}

// execResult implements driver.Result.
type execResult struct{ rows int64 }

func (r execResult) LastInsertId() (int64, error) {
	return 0, errors.New("idea: LastInsertId is not supported (keys are declared, not generated)")
}

func (r execResult) RowsAffected() (int64, error) { return r.rows, nil }

// stmt is a client-side prepared statement: just the text, re-shipped
// per execution (the tinydb-driver pattern — the server keeps no
// per-session statement state; its cluster's statement cache finds the
// repeated text already parsed).
type stmt struct {
	c    *conn
	text string
}

func (s *stmt) Close() error { return nil }

// NumInput reports -1: the parameter count is the server's to know;
// binding mismatches come back as typed errors.
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.ExecContext(context.Background(), s.text, namedValues(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.QueryContext(context.Background(), s.text, namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.c.ExecContext(ctx, s.text, args)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.c.QueryContext(ctx, s.text, args)
}

func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

var (
	_ driver.Conn             = (*conn)(nil)
	_ driver.QueryerContext   = (*conn)(nil)
	_ driver.ExecerContext    = (*conn)(nil)
	_ driver.Pinger           = (*conn)(nil)
	_ driver.Validator        = (*conn)(nil)
	_ driver.SessionResetter  = (*conn)(nil)
	_ driver.StmtQueryContext = (*stmt)(nil)
	_ driver.StmtExecContext  = (*stmt)(nil)
)
