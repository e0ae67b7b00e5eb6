package server

import (
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/wire"
)

// pollEvery is how often a streaming query checks its client for
// CloseRows or death; pollWait is how long each check lets the peek
// block. The ratio bounds the poll's throughput cost at ~1%.
const (
	pollEvery = 5 * time.Millisecond
	pollWait  = 50 * time.Microsecond
)

// conn is one client session: the wire connection plus its statement
// loop state. The protocol keeps at most one statement in flight per
// connection, so everything here is touched by the session goroutine
// only — except busy/closeAfter, which Shutdown's drain reads.
type conn struct {
	srv *Server
	wc  *wire.Conn

	// busy is true while a statement is being served; beginDrain closes
	// an idle connection immediately and lets a busy one finish.
	busy atomic.Bool
	// closeAfter asks the session loop to exit before reading another
	// request.
	closeAfter atomic.Bool

	// body is per-session scratch reused across responses.
	body []byte
	// enc codes the session's row batches: 32 KiB, made at its first
	// batch and kept for every later one.
	enc *frame.Encoder
}

// beginDrain is Shutdown's per-connection half: no more requests will
// be served; an idle connection is cut now, a busy one exits after its
// statement. The order (flag, then busy check) pairs with the session
// loop's (busy clear, then flag check), so a connection going idle
// cannot miss the drain.
func (c *conn) beginDrain() {
	c.closeAfter.Store(true)
	if !c.busy.Load() {
		c.wc.Close()
	}
}

func (s *Server) serveConn(nc net.Conn) {
	wc := wire.NewConn(nc)
	c := &conn{srv: s, wc: wc}
	defer wc.Close()
	// unregister folds the connection's bytes into the server totals, a
	// refused connection's included.
	defer s.unregister(c)
	if !s.register(c) {
		s.add(&s.stats.ConnsRejected, 1)
		c.refuse(wire.CodeTooManySessions,
			fmt.Sprintf("server at its %d-session limit", s.cfg.MaxSessions))
		return
	}
	if !c.handshake() {
		s.add(&s.stats.ConnsRejected, 1)
		return
	}
	s.mu.Lock()
	s.stats.ConnsAccepted++
	s.stats.SessionsActive++
	s.mu.Unlock()
	defer s.add(&s.stats.SessionsActive, -1)
	for {
		if c.closeAfter.Load() {
			return
		}
		// The idle deadline covers the whole frame read; a request
		// arriving is never larger than one statement + params, so the
		// distinction between idle and read timeouts does not matter
		// here in practice.
		nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		t, reqBody, err := wc.ReadFrame(wire.MaxFrame)
		if err != nil {
			// Client went away, idle timeout, or drain closed us.
			return
		}
		nc.SetReadDeadline(time.Time{})
		c.busy.Store(true)
		err = c.dispatch(t, reqBody)
		c.busy.Store(false)
		if err != nil {
			s.logf("server: session ended: %v", err)
			return
		}
	}
}

// handshake validates the Hello frame (magic, version, auth token) and
// answers Welcome. The pre-auth frame is size-capped so an
// unauthenticated peer cannot make the server allocate.
func (c *conn) handshake() bool {
	nc := c.wc.NetConn()
	nc.SetReadDeadline(time.Now().Add(c.srv.frameTimeout))
	t, body, err := c.wc.ReadFrame(wire.MaxHandshakeFrame)
	nc.SetReadDeadline(time.Time{})
	if err != nil {
		return false
	}
	if t != wire.TypeHello {
		c.refuse(wire.CodeProtocol, fmt.Sprintf("expected Hello, got %v", t))
		return false
	}
	h, err := wire.ParseHello(body)
	if err != nil {
		c.refuse(wire.CodeProtocol, err.Error())
		return false
	}
	if h.Version != wire.Version {
		c.refuse(wire.CodeProtocol,
			fmt.Sprintf("wire version %d not supported (server speaks %d)", h.Version, wire.Version))
		return false
	}
	if len(c.srv.tokens) > 0 {
		if _, ok := c.srv.tokens[h.Token]; !ok {
			c.srv.add(&c.srv.stats.AuthFailures, 1)
			c.refuse(wire.CodeAuth, "bad or missing auth token")
			return false
		}
	}
	c.body = wire.AppendWelcome(c.body[:0], wire.Welcome{
		Version: wire.Version,
		Server:  serverName,
	})
	if err := c.wc.WriteFrame(wire.TypeWelcome, c.body); err != nil {
		return false
	}
	return c.flush() == nil
}

// dispatch serves one request frame. A nil return keeps the session; a
// non-nil return closes the connection (protocol violations, broken
// pipes). Statement failures are answered with an Error frame and keep
// the session — they are the client's problem, not the connection's.
func (c *conn) dispatch(t wire.Type, body []byte) error {
	switch t {
	case wire.TypePing:
		if err := c.srv.cluster.Ping(c.srv.baseCtx); err != nil {
			return c.writeError(err)
		}
		if err := c.wc.WriteFrame(wire.TypePong, nil); err != nil {
			return err
		}
		return c.flush()
	case wire.TypeStats:
		return c.statsReply()
	case wire.TypeExecute:
		return c.handleExecute(body)
	case wire.TypeQuery:
		return c.handleQuery(body)
	case wire.TypeCloseRows:
		// A CloseRows that raced with the natural end of a stream: the
		// Trailer the client wants is already in flight. Ignore.
		return nil
	default:
		c.refuse(wire.CodeProtocol, fmt.Sprintf("unexpected %v frame", t))
		return fmt.Errorf("%w: unexpected %v frame", errProtocol, t)
	}
}

// handleExecute runs a statement script and answers with per-statement
// result summaries (feeds by name) or a typed, positioned error.
func (c *conn) handleExecute(body []byte) error {
	req, perr := wire.ParseRequest(body)
	if perr != nil {
		c.refuse(wire.CodeProtocol, perr.Error())
		return fmt.Errorf("%w: %v", errProtocol, perr)
	}
	c.srv.add(&c.srv.stats.Statements, 1)
	results, err := c.srv.cluster.Execute(c.srv.baseCtx, req.Text, requestArgs(req)...)
	if err != nil {
		return c.writeError(err)
	}
	out := make([]wire.StmtResult, 0, len(results))
	for _, res := range results {
		sr := wire.StmtResult{
			Kind:         res.Kind,
			Pos:          res.Pos,
			RowsAffected: res.RowsAffected,
		}
		if res.Feed != nil {
			sr.Feed = res.Feed.Name()
		}
		out = append(out, sr)
	}
	c.body = wire.AppendExecResults(c.body[:0], out)
	if err := c.wc.WriteFrame(wire.TypeExecResult, c.body); err != nil {
		return err
	}
	return c.flush()
}

// handleQuery streams one SELECT: header, row batches pulled straight
// from the engine's cursor with a flush per batch, then a trailer. A
// batch is coded as it is written, by the session's one encoder.
// Each row is encoded into the batch body as it is pulled, before the
// next one (Rows.AppendADM): a row an index probe read where it lies in
// a full block cache is valid only until then, and is copied once, into
// the reply. Between batches it polls the client so a CloseRows (or a
// dead peer) tears the cursor down promptly — a mid-stream disconnect
// never leaks a server-side cursor or its partition scans.
func (c *conn) handleQuery(body []byte) error {
	req, perr := wire.ParseRequest(body)
	if perr != nil {
		c.refuse(wire.CodeProtocol, perr.Error())
		return fmt.Errorf("%w: %v", errProtocol, perr)
	}
	c.srv.add(&c.srv.stats.Queries, 1)
	rows, err := c.srv.cluster.Query(c.srv.baseCtx, req.Text, requestArgs(req)...)
	if err != nil {
		return c.writeError(err)
	}
	c.srv.add(&c.srv.stats.OpenCursors, 1)
	defer func() {
		rows.Close()
		c.srv.add(&c.srv.stats.OpenCursors, -1)
	}()
	c.body = wire.AppendHeader(c.body[:0], wire.Header{Columns: []string{"value"}})
	if err := c.wc.WriteFrame(wire.TypeHeader, c.body); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	sent := uint64(0)
	lastPoll := time.Now()
	for {
		// Poll for CloseRows / client death between batches, but only
		// every pollEvery: the peek briefly blocks on an idle peer (the
		// common case mid-stream), and paying that per batch would
		// throttle the stream.
		if c.wc.Buffered() > 0 || time.Since(lastPoll) >= pollEvery {
			lastPoll = time.Now()
			t, _, got, err := c.wc.PollFrame(wire.MaxFrame, pollWait, c.srv.frameTimeout)
			if err != nil {
				// Client died mid-stream; the deferred Close unwinds the
				// cursor and its partition scans.
				return err
			}
			if got {
				if t != wire.TypeCloseRows {
					c.refuse(wire.CodeProtocol, fmt.Sprintf("unexpected %v frame during result stream", t))
					return fmt.Errorf("%w: %v during stream", errProtocol, t)
				}
				return c.writeTrailer(sent)
			}
		}
		c.body = wire.BeginRowBatch(c.body)
		n := 0
		exhausted := false
		for n < c.srv.cfg.BatchRows {
			if !rows.Next() {
				exhausted = true
				break
			}
			c.body = rows.AppendADM(c.body)
			n++
		}
		if n > 0 {
			raw := wire.EndRowBatch(c.body, n)
			if c.enc == nil {
				c.enc = new(frame.Encoder)
			}
			if err := c.wc.WriteRowBatch(c.enc, raw); err != nil {
				return err
			}
			if err := c.flush(); err != nil {
				return err
			}
			sent += uint64(n)
			c.srv.mu.Lock()
			c.srv.stats.RowsSent += int64(n)
			c.srv.stats.RowBytes += int64(len(raw))
			c.srv.mu.Unlock()
		}
		if exhausted {
			if err := rows.Err(); err != nil {
				return c.writeError(err)
			}
			return c.writeTrailer(sent)
		}
	}
}

func (c *conn) writeTrailer(rows uint64) error {
	c.body = wire.AppendTrailer(c.body[:0], wire.Trailer{Rows: rows})
	if err := c.wc.WriteFrame(wire.TypeTrailer, c.body); err != nil {
		return err
	}
	return c.flush()
}

// statsReply serializes the server's snapshot as one adm object.
func (c *conn) statsReply() error {
	c.body = wire.AppendValue(c.body[:0], statsValue(reflect.ValueOf(c.srv.Stats())))
	if err := c.wc.WriteFrame(wire.TypeStatsReply, c.body); err != nil {
		return err
	}
	return c.flush()
}

// writeError answers a statement failure with a typed error frame and
// keeps the session alive.
func (c *conn) writeError(err error) error {
	c.srv.add(&c.srv.stats.Errors, 1)
	c.body = wire.AppendError(c.body[:0], errorMsg(err))
	if werr := c.wc.WriteFrame(wire.TypeError, c.body); werr != nil {
		return werr
	}
	return c.flush()
}

// refuse sends a one-shot error frame on a connection that is about to
// close (handshake failures, protocol violations); best-effort.
func (c *conn) refuse(code, msg string) {
	c.srv.add(&c.srv.stats.Errors, 1)
	body := wire.AppendError(nil, wire.ErrorMsg{Code: code, Message: msg})
	if c.wc.WriteFrame(wire.TypeError, body) == nil {
		c.flush()
	}
}

// flush pushes buffered frames under the write deadline, so a client
// that stops draining cannot wedge the session goroutine.
func (c *conn) flush() error {
	nc := c.wc.NetConn()
	nc.SetWriteDeadline(time.Now().Add(c.srv.frameTimeout))
	err := c.wc.Flush()
	nc.SetWriteDeadline(time.Time{})
	return err
}

// requestArgs converts wire parameters into public-API arguments: each
// adm value travels as an idea.Value, so named binding and validation
// run exactly as they do in-process.
func requestArgs(req wire.Request) []any {
	if len(req.Params) == 0 {
		return nil
	}
	args := make([]any, 0, len(req.Params))
	for _, p := range req.Params {
		args = append(args, idea.Named(p.Name, idea.WrapADM(p.Value)))
	}
	return args
}
