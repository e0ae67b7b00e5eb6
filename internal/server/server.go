// Package server is the network front door: it serves the ideaserver
// wire protocol (internal/wire) over TCP (or any net.Listener — tests
// use net.Pipe, cmd/ideaserver optionally wraps the listener in TLS)
// on top of a public idea.Cluster. One goroutine per connection, one
// statement in flight per connection, streamed result sets that map
// 1:1 onto the engine's pull cursor, prompt teardown of server-side
// cursors when a client disappears mid-stream, and graceful drain:
// Shutdown stops accepting, lets in-flight statements finish, then
// force-closes stragglers when its context expires.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/wire"
)

// Config tunes a Server. The zero value is usable: no auth, default
// limits.
type Config struct {
	// AuthTokens, when non-empty, requires every handshake to present
	// one of these tokens; an empty list disables authentication.
	AuthTokens []string
	// MaxSessions bounds concurrent connections (default 256). A
	// connection over the limit is refused with a too_many_sessions
	// error frame.
	MaxSessions int
	// IdleTimeout closes a connection that sends no request for this
	// long (default 5m).
	IdleTimeout time.Duration
	// BatchRows is the number of result rows per RowBatch frame
	// (default 256). Each batch is flushed as soon as it is full, so
	// the first rows reach a slow-consuming client immediately.
	BatchRows int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxSessions <= 0 {
		out.MaxSessions = 256
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 5 * time.Minute
	}
	if out.BatchRows <= 0 {
		out.BatchRows = 256
	}
	return out
}

// serverName is announced in the Welcome frame and the STATS reply.
const serverName = "ideaserver"

// Stats is the server's snapshot. The STATS admin verb is generated from
// this declaration (see statsValue): every field below, of the storage
// snapshot and of each feed's, is on the wire under its snake_case name.
// The server's own counters are a Stats too, bumped in place under the
// server's lock, so a counter is one field here and the statement that
// bumps it.
type Stats struct {
	// Server is the announced server name; UptimeMs the milliseconds
	// since New; Nodes the cluster size.
	Server   string
	UptimeMs int64
	Nodes    int
	// ConnsAccepted counts connections that completed the handshake.
	ConnsAccepted int64
	// ConnsRejected counts connections refused (session limit, bad
	// handshake, auth failure).
	ConnsRejected int64
	// AuthFailures counts handshakes with a bad token.
	AuthFailures int64
	// SessionsActive is the current live-connection gauge.
	SessionsActive int64
	// Queries / Statements count Query and Execute requests served.
	Queries    int64
	Statements int64
	// RowsSent counts result rows streamed to clients; RowBytes their
	// row batches' raw bodies before coding, so RowBytes / BytesSent is
	// about the wire's compression ratio.
	RowsSent int64
	RowBytes int64
	// BytesSent / BytesReceived count framed wire bytes.
	BytesSent     int64
	BytesReceived int64
	// Errors counts error frames sent.
	Errors int64
	// OpenCursors is the gauge of server-side result cursors currently
	// open — the leak detector: it must return to zero when no query is
	// streaming, including after abrupt client death.
	OpenCursors int64
	// StatementCacheStats counts the cluster's parsed-statement cache: a
	// repeated statement text is a hit and skips parsing.
	idea.StatementCacheStats
	// Storage holds the cluster's storage counters (block cache,
	// bloom/fence skips, block reads, flushes, merges, ...); its fields
	// sit beside the server's own in the reply.
	Storage idea.StorageStats
	// Feeds holds one snapshot per declared feed, sorted by name; a feed
	// that was never started reports zeros.
	Feeds []idea.FeedStats
}

// Server serves the wire protocol over an idea.Cluster. Create with
// New, feed it listeners with Serve (or single connections with
// ServeConn), stop it with Shutdown.
type Server struct {
	cluster *idea.Cluster
	cfg     Config
	tokens  map[string]struct{}
	start   time.Time
	// frameTimeout bounds moving one frame once it has begun: reading
	// the handshake or a frame whose first byte has arrived, and writing
	// one response batch — a client that stops draining a stream cannot
	// wedge its session. Not configuration; a field so that a test can
	// shorten it before Serve.
	frameTimeout time.Duration

	baseCtx context.Context
	cancel  context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool
	// stats holds the server's own counters, under mu; the bytes of a
	// live connection join them when it is unregistered.
	stats Stats

	wg sync.WaitGroup
}

// New builds a Server over cluster.
func New(cluster *idea.Cluster, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cluster:      cluster,
		cfg:          cfg.withDefaults(),
		tokens:       make(map[string]struct{}, len(cfg.AuthTokens)),
		start:        time.Now(),
		frameTimeout: 30 * time.Second,
		baseCtx:      ctx,
		cancel:       cancel,
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[*conn]struct{}),
	}
	for _, tok := range cfg.AuthTokens {
		s.tokens[tok] = struct{}{}
	}
	return s
}

// Stats snapshots the server, its cluster's storage and its feeds. Byte
// totals include live connections (unregister folds a connection's
// bytes into the server's in the critical section that ends it).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	for c := range s.conns {
		st.BytesSent += c.wc.BytesWritten()
		st.BytesReceived += c.wc.BytesRead()
	}
	s.mu.Unlock()
	st.Server = serverName
	st.UptimeMs = time.Since(s.start).Milliseconds()
	st.Nodes = s.cluster.Nodes()
	st.StatementCacheStats = s.cluster.StatementCacheStats()
	st.Storage = s.cluster.StorageStats()
	for _, f := range s.cluster.Feeds() {
		// A declared feed that never started has no counters yet: the
		// error says so, and its entry is its name and zeros.
		fs, _ := f.Stats()
		st.Feeds = append(st.Feeds, fs)
	}
	return st
}

// add bumps one of the server's counters by n.
func (s *Server) add(counter *int64, n int64) {
	s.mu.Lock()
	*counter += n
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections from l until the listener fails or
// Shutdown closes it. It always returns a non-nil error; after
// Shutdown the error is net.ErrClosed (reported as nil-equivalent by
// callers that test with errors.Is).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// ServeConn serves one already-established connection synchronously
// (the net.Pipe test path). It returns when the connection is done.
func (s *Server) ServeConn(nc net.Conn) {
	s.wg.Add(1)
	defer s.wg.Done()
	s.serveConn(nc)
}

// Shutdown drains the server: stop accepting, close idle connections,
// let in-flight statements run to completion, and force-close whatever
// remains when ctx expires (in-flight query contexts are canceled so
// stuck cursors unwind). It returns ctx.Err() when the deadline forced
// the drain, nil on a clean one. The cluster is NOT closed — the owner
// does that after Shutdown returns, so acknowledged writes commit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel in-flight statement contexts and cut the
	// remaining connections.
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		c.wc.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxSessions {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// unregister ends c's part in the live set: it leaves s.conns and its
// byte counters join the server's totals in one critical section, so
// Stats counts them exactly once. A connection register refused is
// folded the same way.
func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.stats.BytesSent += c.wc.BytesWritten()
	s.stats.BytesReceived += c.wc.BytesRead()
	s.mu.Unlock()
}

// errorMsg maps an engine error onto a wire error frame: a typed code
// for the public sentinels, statement position when the failure came
// from inside a script.
func errorMsg(err error) wire.ErrorMsg {
	msg := wire.ErrorMsg{Code: wire.CodeInternal, Message: err.Error()}
	var se *idea.StatementError
	if errors.As(err, &se) {
		msg.HasStmt = true
		msg.Index = se.Index
		msg.Pos = se.Pos
		msg.Snippet = se.Snippet
	}
	switch {
	case errors.Is(err, idea.ErrUnknownDataset):
		msg.Code = wire.CodeUnknownDataset
	case errors.Is(err, idea.ErrUnknownFunction):
		msg.Code = wire.CodeUnknownFunction
	case errors.Is(err, idea.ErrUnknownFeed):
		msg.Code = wire.CodeUnknownFeed
	case errors.Is(err, idea.ErrFeedNotRunning):
		msg.Code = wire.CodeFeedNotRunning
	case errors.Is(err, idea.ErrFeedOverloaded):
		msg.Code = wire.CodeFeedOverloaded
	case errors.Is(err, idea.ErrPartitionDown):
		msg.Code = wire.CodePartitionDown
	case errors.Is(err, idea.ErrClusterClosed):
		msg.Code = wire.CodeClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		msg.Code = wire.CodeCanceled
	}
	return msg
}

var errProtocol = fmt.Errorf("wire protocol violation")
