package server

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"database/sql"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/driver"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/wire"
)

const testSchema = `
CREATE TYPE T AS OPEN { id: int64 };
CREATE DATASET D(T) PRIMARY KEY id;
`

func newCluster(t *testing.T, cfg idea.Config) *idea.Cluster {
	t.Helper()
	c, err := idea.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startServer boots a Server on a loopback TCP port and returns it
// with its address.
func startServer(t *testing.T, c *idea.Cluster, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(c, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, l.Addr().String()
}

// wireDial connects and completes the handshake, failing the test on
// refusal.
func wireDial(t *testing.T, addr, token string) *wire.Conn {
	t.Helper()
	wc, msg, err := tryDial(addr, token)
	if err != nil {
		t.Fatal(err)
	}
	if msg != nil {
		t.Fatalf("handshake refused: %+v", *msg)
	}
	t.Cleanup(func() { wc.Close() })
	return wc
}

// tryDial connects and attempts the handshake; a server refusal comes
// back as the parsed error frame.
func tryDial(addr, token string) (*wire.Conn, *wire.ErrorMsg, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	wc := wire.NewConn(nc)
	if err := handshake(wc, wire.Hello{Version: wire.Version, Token: token}); err != nil {
		nc.Close()
		return nil, nil, err
	}
	typ, body, err := wc.ReadFrame(wire.MaxHandshakeFrame)
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("handshake reply: %w", err)
	}
	switch typ {
	case wire.TypeWelcome:
		if _, err := wire.ParseWelcome(body); err != nil {
			nc.Close()
			return nil, nil, err
		}
		return wc, nil, nil
	case wire.TypeError:
		defer nc.Close()
		msg, perr := wire.ParseError(body)
		if perr != nil {
			return nil, nil, perr
		}
		return nil, &msg, nil
	default:
		nc.Close()
		return nil, nil, fmt.Errorf("unexpected %v frame", typ)
	}
}

func handshake(wc *wire.Conn, h wire.Hello) error {
	if err := wc.WriteFrame(wire.TypeHello, wire.AppendHello(nil, h)); err != nil {
		return err
	}
	return wc.Flush()
}

// call sends one request frame and returns the first response frame.
func call(t *testing.T, wc *wire.Conn, typ wire.Type, body []byte) (wire.Type, []byte) {
	t.Helper()
	if err := wc.WriteFrame(typ, body); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	rt, rb, err := wc.ReadFrame(wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rb
}

func mustExec(t *testing.T, wc *wire.Conn, script string, params ...wire.Param) []wire.StmtResult {
	t.Helper()
	body := wire.AppendRequest(nil, wire.Request{Text: script, Params: params})
	rt, rb := call(t, wc, wire.TypeExecute, body)
	if rt == wire.TypeError {
		msg, _ := wire.ParseError(rb)
		t.Fatalf("execute failed: %+v", msg)
	}
	if rt != wire.TypeExecResult {
		t.Fatalf("execute answered %v", rt)
	}
	results, err := wire.ParseExecResults(rb)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// drainQuery reads a full result stream (header already consumed) and
// returns the rows, each a copy: a row batch is decoded into one buffer
// that the next batch reuses.
func drainQuery(t *testing.T, wc *wire.Conn) []adm.Value {
	t.Helper()
	var rows []adm.Value
	var raw []byte
	for {
		rt, rb, err := wc.ReadFrame(wire.MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		switch rt {
		case wire.TypeRowBatch:
			if raw, err = wire.DecodeRowBatch(raw, rb); err != nil {
				t.Fatal(err)
			}
			br, err := wire.NewBatchReader(raw)
			if err != nil {
				t.Fatal(err)
			}
			for {
				v, ok, err := br.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows = append(rows, v.Detached())
			}
		case wire.TypeTrailer:
			tr, err := wire.ParseTrailer(rb)
			if err != nil {
				t.Fatal(err)
			}
			if int(tr.Rows) != len(rows) {
				t.Fatalf("trailer says %d rows, stream carried %d", tr.Rows, len(rows))
			}
			return rows
		case wire.TypeError:
			msg, _ := wire.ParseError(rb)
			t.Fatalf("stream error: %+v", msg)
		default:
			t.Fatalf("unexpected %v frame in stream", rt)
		}
	}
}

func insertScript(n int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO D ([")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id": %d, "pad": "%060d"}`, i, i)
	}
	b.WriteString("]);")
	return b.String()
}

func TestPingAndStats(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{})
	wc := wireDial(t, addr, "")

	rt, _ := call(t, wc, wire.TypePing, nil)
	if rt != wire.TypePong {
		t.Fatalf("ping answered %v", rt)
	}

	rt, rb := call(t, wc, wire.TypeStats, nil)
	if rt != wire.TypeStatsReply {
		t.Fatalf("stats answered %v", rt)
	}
	v, err := wire.ParseValue(rb)
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("server").StringVal() != "ideaserver" {
		t.Fatalf("stats = %v", v)
	}
	if v.Field("sessions_active").IntVal() != 1 {
		t.Fatalf("sessions_active = %v", v.Field("sessions_active"))
	}
	// The storage read-path counters ride next to open_cursors; an
	// in-memory cluster reports them all zero, but they must be present.
	for _, f := range []string{"block_cache_hits", "block_cache_misses", "block_cache_bytes", "bloom_skips", "fence_skips", "block_reads", "open_run_files"} {
		fv := v.Field(f)
		if fv.IsMissing() {
			t.Fatalf("stats missing %q: %v", f, v)
		}
		if fv.IntVal() != 0 {
			t.Fatalf("in-memory cluster reports %s = %v", f, fv)
		}
	}
	if got := srv.Stats().ConnsAccepted; got != 1 {
		t.Fatalf("ConnsAccepted = %d", got)
	}
}

func TestAuth(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{AuthTokens: []string{"good"}})

	_, msg, err := tryDial(addr, "bad")
	if err != nil {
		t.Fatal(err)
	}
	if msg == nil || msg.Code != wire.CodeAuth {
		t.Fatalf("bad token: %+v", msg)
	}
	_, msg, err = tryDial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	if msg == nil || msg.Code != wire.CodeAuth {
		t.Fatalf("missing token: %+v", msg)
	}
	wc := wireDial(t, addr, "good")
	if rt, _ := call(t, wc, wire.TypePing, nil); rt != wire.TypePong {
		t.Fatal("authed ping failed")
	}
	if got := srv.Stats().AuthFailures; got != 2 {
		t.Fatalf("AuthFailures = %d, want 2", got)
	}
}

func TestHandshakeRefusals(t *testing.T) {
	c := newCluster(t, idea.Config{})
	_, addr := startServer(t, c, Config{})

	// Wrong wire version.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wc := wire.NewConn(nc)
	if err := handshake(wc, wire.Hello{Version: 99}); err != nil {
		t.Fatal(err)
	}
	rt, rb, err := wc.ReadFrame(wire.MaxHandshakeFrame)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := wire.ParseError(rb)
	if rt != wire.TypeError || msg.Code != wire.CodeProtocol {
		t.Fatalf("version mismatch: %v %+v", rt, msg)
	}

	// Not speaking the protocol at all: first frame is not Hello.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	wc2 := wire.NewConn(nc2)
	wc2.WriteFrame(wire.TypePing, nil)
	wc2.Flush()
	rt, rb, err = wc2.ReadFrame(wire.MaxHandshakeFrame)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ = wire.ParseError(rb)
	if rt != wire.TypeError || msg.Code != wire.CodeProtocol {
		t.Fatalf("non-hello open: %v %+v", rt, msg)
	}
}

func TestSessionLimit(t *testing.T) {
	c := newCluster(t, idea.Config{})
	_, addr := startServer(t, c, Config{MaxSessions: 1})

	wireDial(t, addr, "") // occupies the only slot
	_, msg, err := tryDial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	if msg == nil || msg.Code != wire.CodeTooManySessions {
		t.Fatalf("over-limit dial: %+v", msg)
	}
}

func TestExecuteAndQueryStream(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{BatchRows: 4})
	wc := wireDial(t, addr, "")

	results := mustExec(t, wc, testSchema)
	if len(results) != 2 || results[1].Kind != "CREATE DATASET" {
		t.Fatalf("schema results: %+v", results)
	}
	results = mustExec(t, wc, insertScript(25))
	if len(results) != 1 || results[0].RowsAffected != 25 {
		t.Fatalf("insert results: %+v", results)
	}

	body := wire.AppendRequest(nil, wire.Request{
		Text:   `SELECT VALUE d.id FROM D d WHERE d.id >= $min`,
		Params: []wire.Param{{Name: "min", Value: adm.Int(20)}},
	})
	rt, rb := call(t, wc, wire.TypeQuery, body)
	if rt != wire.TypeHeader {
		t.Fatalf("query answered %v", rt)
	}
	h, err := wire.ParseHeader(rb)
	if err != nil || len(h.Columns) != 1 || h.Columns[0] != "value" {
		t.Fatalf("header %+v, %v", h, err)
	}
	rows := drainQuery(t, wc)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}

	// The session survives a statement error and maps the sentinel.
	// The engine resolves datasets lazily, so the failure arrives in
	// the stream after the Header.
	rt, rb = call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE x FROM Nope x`}))
	if rt != wire.TypeHeader {
		t.Fatalf("bad query answered %v", rt)
	}
	var msg wire.ErrorMsg
	for {
		rt, rb, err = wc.ReadFrame(wire.MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if rt == wire.TypeRowBatch {
			continue
		}
		if rt != wire.TypeError {
			t.Fatalf("bad query stream ended with %v", rt)
		}
		if msg, err = wire.ParseError(rb); err != nil {
			t.Fatal(err)
		}
		break
	}
	if msg.Code != wire.CodeUnknownDataset {
		t.Fatalf("bad query error: %+v", msg)
	}
	if rt, _ := call(t, wc, wire.TypePing, nil); rt != wire.TypePong {
		t.Fatal("session did not survive the statement error")
	}

	st := srv.Stats()
	if st.Queries != 2 || st.RowsSent != 5 || st.OpenCursors != 0 {
		t.Fatalf("stats after stream: %+v", st)
	}
}

func TestStatementErrorPosition(t *testing.T) {
	c := newCluster(t, idea.Config{})
	_, addr := startServer(t, c, Config{})
	wc := wireDial(t, addr, "")
	mustExec(t, wc, testSchema)

	script := `INSERT INTO D ([{"id": 1}]); INSERT INTO Nope ([{"id": 2}]);`
	rt, rb := call(t, wc, wire.TypeExecute, wire.AppendRequest(nil, wire.Request{Text: script}))
	if rt != wire.TypeError {
		t.Fatalf("bad script answered %v", rt)
	}
	msg, err := wire.ParseError(rb)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Code != wire.CodeUnknownDataset || !msg.HasStmt || msg.Index != 1 || msg.Snippet == "" {
		t.Fatalf("statement error not positioned: %+v", msg)
	}
}

// TestCloseRowsMidStream interrupts a stream with CloseRows and checks
// the server answers with a prompt Trailer and a clean cursor gauge.
func TestCloseRowsMidStream(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{BatchRows: 2})
	wc := wireDial(t, addr, "")
	mustExec(t, wc, testSchema)
	mustExec(t, wc, insertScript(500))

	rt, _ := call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`}))
	if rt != wire.TypeHeader {
		t.Fatalf("query answered %v", rt)
	}
	if err := wc.WriteFrame(wire.TypeCloseRows, nil); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Discard in-flight batches until the Trailer acknowledges the
	// close.
	sawTrailer := false
	for !sawTrailer {
		rt, _, err := wc.ReadFrame(wire.MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		switch rt {
		case wire.TypeRowBatch:
		case wire.TypeTrailer:
			sawTrailer = true
		default:
			t.Fatalf("unexpected %v frame while closing", rt)
		}
	}
	if rt, _ := call(t, wc, wire.TypePing, nil); rt != wire.TypePong {
		t.Fatal("session unusable after CloseRows")
	}
	if got := srv.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d after CloseRows", got)
	}
}

// TestClientDeathMidStream kills the client socket mid-stream (RST via
// SetLinger 0) and asserts the server notices and unwinds the cursor —
// the leak assertion from the issue.
func TestClientDeathMidStream(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{BatchRows: 2})

	setup := wireDial(t, addr, "")
	mustExec(t, setup, testSchema)
	mustExec(t, setup, insertScript(2000))

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(nc)
	if err := handshake(wc, wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if rt, _, err := wc.ReadFrame(wire.MaxHandshakeFrame); err != nil || rt != wire.TypeWelcome {
		t.Fatalf("handshake: %v %v", rt, err)
	}
	if err := wc.WriteFrame(wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`})); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	if rt, _, err := wc.ReadFrame(wire.MaxFrame); err != nil || rt != wire.TypeHeader {
		t.Fatalf("header: %v %v", rt, err)
	}
	// Die abruptly without reading the stream.
	nc.(*net.TCPConn).SetLinger(0)
	nc.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Stats().OpenCursors == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor leaked after client death: OpenCursors = %d", srv.Stats().OpenCursors)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulDrainDurable checks the acceptance scenario: writes
// acknowledged over the wire survive a graceful drain, cluster close,
// and reopen from the same data directory.
func TestGracefulDrainDurable(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, idea.Config{DataDir: dir})
	srv, addr := startServer(t, c, Config{})
	wc := wireDial(t, addr, "")
	mustExec(t, wc, testSchema)
	results := mustExec(t, wc, insertScript(40))
	if results[0].RowsAffected != 40 {
		t.Fatalf("insert acked %d rows", results[0].RowsAffected)
	}
	wc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the same directory; the catalog is not persisted, so
	// the DDL runs again and the datasets re-attach to their storage.
	c2 := newCluster(t, idea.Config{DataDir: dir})
	_, addr2 := startServer(t, c2, Config{})
	wc2 := wireDial(t, addr2, "")
	mustExec(t, wc2, testSchema)
	rt, _ := call(t, wc2, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d.id FROM D d`}))
	if rt != wire.TypeHeader {
		t.Fatalf("query answered %v", rt)
	}
	rows := drainQuery(t, wc2)
	if len(rows) != 40 {
		t.Fatalf("recovered %d rows, want 40 (acknowledged writes lost)", len(rows))
	}
}

// TestDrainWaitsForInFlight starts a stream, drains the server, and
// checks the stream completes before Shutdown returns.
func TestDrainWaitsForInFlight(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{BatchRows: 8})
	wc := wireDial(t, addr, "")
	mustExec(t, wc, testSchema)
	mustExec(t, wc, insertScript(300))

	rt, _ := call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`}))
	if rt != wire.TypeHeader {
		t.Fatalf("query answered %v", rt)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	rows := drainQuery(t, wc)
	if len(rows) != 300 {
		t.Fatalf("drained %d rows, want 300", len(rows))
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown forced: %v", err)
	}
	// New connections are refused during/after drain.
	if _, _, err := tryDial(addr, ""); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestServeConnPipe drives a session over net.Pipe — no sockets — the
// same seam the driver tests use.
func TestServeConnPipe(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv := New(c, Config{})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(server)
	}()
	wc := wire.NewConn(client)
	if err := handshake(wc, wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if rt, _, err := wc.ReadFrame(wire.MaxHandshakeFrame); err != nil || rt != wire.TypeWelcome {
		t.Fatalf("handshake: %v %v", rt, err)
	}
	if rt, _ := call(t, wc, wire.TypePing, nil); rt != wire.TypePong {
		t.Fatal("ping over pipe failed")
	}
	client.Close()
	<-done
}

// TestTLS serves over a TLS listener with an in-process self-signed
// certificate, the same wrapping cmd/ideaserver applies.
func TestTLS(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv := New(c, Config{})
	cert := selfSigned(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}})
	go srv.Serve(tl)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	nc, err := tls.Dial("tcp", l.Addr().String(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wc := wire.NewConn(nc)
	if err := handshake(wc, wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if rt, _, err := wc.ReadFrame(wire.MaxHandshakeFrame); err != nil || rt != wire.TypeWelcome {
		t.Fatalf("handshake over TLS: %v %v", rt, err)
	}
	if rt, _ := call(t, wc, wire.TypePing, nil); rt != wire.TypePong {
		t.Fatal("ping over TLS failed")
	}
}

func selfSigned(t *testing.T) tls.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "ideaserver-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := tls.X509KeyPair(
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}),
		pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// TestServerConfigKnobs: every field of Config changes something a
// client or operator can observe — each row probes one server under two
// values of one field and states both outcomes. A field that cannot earn
// a row here does not belong in the struct (idea.Config has the same
// table in TestConfigKnobs).
func TestServerConfigKnobs(t *testing.T) {
	// welcomed reports whether a token-less handshake is accepted.
	welcomed := func(t *testing.T, addr string) int {
		wc, msg, err := tryDial(addr, "")
		if err != nil {
			t.Fatal(err)
		}
		if msg != nil {
			return 0
		}
		t.Cleanup(func() { wc.Close() })
		return 1
	}
	var diagnostics atomic.Int64
	for _, row := range []struct {
		field, what  string
		a, b         Config
		probe        func(t *testing.T, addr string) int
		wantA, wantB int
	}{
		{"AuthTokens", "a token-less handshake is welcomed, or refused",
			Config{}, Config{AuthTokens: []string{"good"}}, welcomed, 1, 0},
		{"MaxSessions", "a second session is refused, or welcomed",
			Config{MaxSessions: 1}, Config{MaxSessions: 2},
			func(t *testing.T, addr string) int {
				wireDial(t, addr, "") // holds the first slot
				return welcomed(t, addr)
			}, 0, 1},
		{"IdleTimeout", "a session silent for 300ms is cut, or still answers",
			Config{IdleTimeout: 50 * time.Millisecond}, Config{},
			func(t *testing.T, addr string) int {
				wc := wireDial(t, addr, "")
				time.Sleep(300 * time.Millisecond)
				if wc.WriteFrame(wire.TypePing, nil) != nil || wc.Flush() != nil {
					return 0
				}
				if rt, _, err := wc.ReadFrame(wire.MaxFrame); err != nil || rt != wire.TypePong {
					return 0
				}
				return 1
			}, 0, 1},
		{"BatchRows", "16 rows arrive in 8 frames, or in 2",
			Config{BatchRows: 2}, Config{BatchRows: 8},
			func(t *testing.T, addr string) int {
				wc := wireDial(t, addr, "")
				mustExec(t, wc, testSchema)
				mustExec(t, wc, insertScript(16))
				if rt, _ := call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`})); rt != wire.TypeHeader {
					t.Fatalf("query answered %v", rt)
				}
				frames := 0
				for {
					rt, _, err := wc.ReadFrame(wire.MaxFrame)
					if err != nil {
						t.Fatal(err)
					}
					if rt == wire.TypeTrailer {
						return frames
					}
					frames++
				}
			}, 8, 2},
		{"Logf", "a session ended by a protocol violation is reported, or not",
			Config{Logf: func(string, ...any) { diagnostics.Add(1) }}, Config{},
			func(t *testing.T, addr string) int {
				before := diagnostics.Load()
				wc := wireDial(t, addr, "")
				if rt, _ := call(t, wc, wire.TypeWelcome, nil); rt != wire.TypeError {
					t.Fatalf("a Welcome from the client was answered with %v", rt)
				}
				// The server logs, then closes: EOF means the count is final.
				if _, _, err := wc.ReadFrame(wire.MaxFrame); err == nil {
					t.Fatal("session survived a protocol violation")
				}
				return int(diagnostics.Load() - before)
			}, 1, 0},
	} {
		t.Run(row.field, func(t *testing.T) {
			for i, side := range []struct {
				cfg  Config
				want int
			}{{row.a, row.wantA}, {row.b, row.wantB}} {
				_, addr := startServer(t, newCluster(t, idea.Config{}), side.cfg)
				if got := row.probe(t, addr); got != side.want {
					t.Errorf("%s: value %d observed %d, want %d", row.what, i+1, got, side.want)
				}
			}
		})
	}

	// The write deadline is not a field (nothing ever set it), but it is
	// what keeps a client that stops reading from wedging its session:
	// the stalled write times out, the session ends and its cursor closes.
	t.Run("StalledReader", func(t *testing.T) {
		srv := New(newCluster(t, idea.Config{}), Config{BatchRows: 2})
		srv.frameTimeout = 100 * time.Millisecond
		client, server := net.Pipe() // unbuffered: an unread frame blocks the writer at once
		defer client.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(server)
		}()
		wc := wire.NewConn(client)
		if err := handshake(wc, wire.Hello{Version: wire.Version}); err != nil {
			t.Fatal(err)
		}
		if rt, _, err := wc.ReadFrame(wire.MaxHandshakeFrame); err != nil || rt != wire.TypeWelcome {
			t.Fatalf("handshake: %v %v", rt, err)
		}
		mustExec(t, wc, testSchema)
		mustExec(t, wc, insertScript(200))
		if rt, _ := call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`})); rt != wire.TypeHeader {
			t.Fatalf("query answered %v", rt)
		}
		if got := srv.Stats().OpenCursors; got != 1 {
			t.Fatalf("OpenCursors = %d mid-stream, want 1", got)
		}
		select { // read nothing more
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session still wedged on a client that stopped reading")
		}
		if got := srv.Stats().OpenCursors; got != 0 {
			t.Fatalf("OpenCursors = %d after the stalled session ended", got)
		}
	})
}

// TestFullCacheProbeOverTheWireMatchesQuery: an index probe over a
// dataset three times the size of a full block cache, whose rows the
// server encodes into each batch from the blocks they lie in, answers a
// driver over the wire with the rows Cluster.Query yields, in order, in
// batches of 200 rows (a two-byte count) and fewer, while leased scans
// recycle the cache's blocks between the probes.
func TestFullCacheProbeOverTheWireMatchesQuery(t *testing.T) {
	const n, cats = 24000, 100
	schema := testSchema + `CREATE INDEX by_cat ON D(cat) TYPE BTREE;`
	dir := t.TempDir()
	// A clean Close writes every record to run files; the reopened
	// cluster reads them through a cache of a third of their size.
	load := newCluster(t, idea.Config{Nodes: 2, DataDir: dir})
	load.MustExecute(schema)
	for lo := 0; lo < n; lo += 4000 {
		recs := make([]any, 0, 4000)
		for i := lo; i < lo+4000; i++ {
			recs = append(recs, idea.Obj("id", i, "cat", fmt.Sprintf("c%02d", i%cats), "pad", fmt.Sprintf("%0256d", i)))
		}
		load.MustExecute(`UPSERT INTO D ($1)`, idea.Arr(recs...))
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, idea.Config{Nodes: 2, DataDir: dir, BlockCacheBytes: 2 << 20})
	c.MustExecute(schema)
	_, addr := startServer(t, c, Config{BatchRows: 200})
	conn, err := driver.NewConnector(addr)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(conn)
	defer db.Close()
	ctx := context.Background()
	const probe = `SELECT VALUE t FROM D t WHERE t.cat = $1`
	recycle := func() {
		t.Helper()
		var groups int
		if err := db.QueryRowContext(ctx, `SELECT VALUE count(*) FROM (SELECT t.cat FROM D t GROUP BY t.cat) g`).Scan(&groups); err != nil || groups != cats {
			t.Fatalf("%d groups, want %d: %v", groups, cats, err)
		}
	}
	recycle() // fills the cache
	for cat := range 20 {
		arg := fmt.Sprintf("c%02d", cat)
		vals, err := c.Query(ctx, probe, arg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vals.Collect()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.QueryContext(ctx, probe, arg)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for ; rows.Next(); got++ {
			var js []byte
			if err := rows.Scan(&js); err != nil {
				t.Fatal(err)
			}
			if got >= len(want) || !bytes.Equal(js, want[got].JSON()) {
				t.Fatalf("cat %d row %d over the wire: %s", cat, got, js)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if got != n/cats || len(want) != n/cats {
			t.Fatalf("cat %d: %d rows over the wire, %d from Query; want %d", cat, got, len(want), n/cats)
		}
		recycle()
	}
	if st := c.StorageStats(); st.BlockCacheEvictions == 0 || st.BlockCacheRecycled == 0 {
		t.Fatalf("%d evictions, %d recycled loads: the probes read no full cache", st.BlockCacheEvictions, st.BlockCacheRecycled)
	}
}

// TestSecondCodedReplyAllocatesNothing: a session codes its row batches
// with one encoder, made at its first batch, into the frame scratch its
// wire.Conn keeps, so a second reply of the same size makes neither
// anew. RowBytes counts the raw bodies the client decodes, more than
// the coded bytes that crossed the wire.
func TestSecondCodedReplyAllocatesNothing(t *testing.T) {
	c := newCluster(t, idea.Config{})
	srv, addr := startServer(t, c, Config{BatchRows: 64})
	wc := wireDial(t, addr, "")
	mustExec(t, wc, testSchema)
	mustExec(t, wc, insertScript(200))
	// The encoder of the session's one server-side conn, and the frame
	// scratch of its wire.Conn.
	coder := func() (enc *frame.Encoder, scratch uintptr, room int) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.conns) != 1 {
			t.Fatalf("%d sessions, want 1", len(srv.conns))
		}
		for sc := range srv.conns {
			wbuf := reflect.ValueOf(sc.wc).Elem().FieldByName("wbuf")
			return sc.enc, wbuf.Pointer(), wbuf.Cap()
		}
		return nil, 0, 0
	}
	query := func() (raw, coded int) {
		t.Helper()
		rt, _ := call(t, wc, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{Text: `SELECT VALUE d FROM D d`}))
		if rt != wire.TypeHeader {
			t.Fatalf("query answered %v", rt)
		}
		var buf []byte
		for rows := 0; ; {
			rt, rb, err := wc.ReadFrame(wire.MaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			if rt == wire.TypeTrailer {
				if rows != 200 {
					t.Fatalf("%d rows, want 200", rows)
				}
				return raw, coded
			}
			if rt != wire.TypeRowBatch || rb[0] != frame.CodecLZ {
				t.Fatalf("%v frame, codec %d: want lz-coded row batches", rt, rb[0])
			}
			if buf, err = wire.DecodeRowBatch(buf, rb); err != nil {
				t.Fatal(err)
			}
			br, err := wire.NewBatchReader(buf)
			if err != nil {
				t.Fatal(err)
			}
			rows += br.Len()
			raw, coded = raw+len(buf), coded+len(rb)
		}
	}
	raw, coded := query()
	enc, scratch, room := coder()
	if enc == nil {
		t.Fatal("a session that sent row batches holds no encoder")
	}
	query()
	if enc2, scratch2, room2 := coder(); enc2 != enc || scratch2 != scratch || room2 != room {
		t.Fatalf("the second reply coded with encoder %p into %d bytes at %#x; the first, %p and %d bytes at %#x", enc2, room2, scratch2, enc, room, scratch)
	}
	if st := srv.Stats(); st.RowBytes != 2*int64(raw) || 2*coded > raw {
		t.Fatalf("RowBytes %d for two replies of %d raw bytes, sent as %d coded", st.RowBytes, raw, coded)
	}
}
