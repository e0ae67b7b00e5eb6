package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/server"
)

const testSchema = `
CREATE TYPE T AS OPEN { id: int64 };
CREATE DATASET D(T) PRIMARY KEY id;
`

func insertScript(dataset string, lo, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s ([", dataset)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id": %d}`, lo+i)
	}
	b.WriteString("]);")
	return b.String()
}

// startServer boots a cluster + wire server on loopback TCP.
func startServer(t testing.TB, scfg server.Config) (*server.Server, string) {
	t.Helper()
	c, err := idea.NewCluster(idea.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c, scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		c.Close()
	})
	return srv, l.Addr().String()
}

func openDB(t testing.TB, dsn string, opts ...Option) *sql.DB {
	t.Helper()
	conn, err := NewConnector(dsn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(conn)
	t.Cleanup(func() { db.Close() })
	return db
}

// pipeDB returns a database/sql pool whose connections are net.Pipe
// pairs served in-process — the driver and server exercise the full
// protocol without a socket.
func pipeDB(t testing.TB) (*server.Server, *sql.DB) {
	t.Helper()
	c, err := idea.NewCluster(idea.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c, server.Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		c.Close()
	})
	db := openDB(t, "pipe", WithDialer(func(ctx context.Context) (net.Conn, error) {
		client, srvEnd := net.Pipe()
		go srv.ServeConn(srvEnd)
		return client, nil
	}))
	return srv, db
}

func TestParseDSN(t *testing.T) {
	good := map[string]string{
		"127.0.0.1:7654":              "127.0.0.1:7654",
		"idea://127.0.0.1:7654":       "127.0.0.1:7654",
		"tok@host:1?tls=true":         "host:1",
		"idea://host:1?token=t&tls=1": "host:1",
		"host:1?tls-skip-verify=true": "host:1",
	}
	for dsn, addr := range good {
		c, err := NewConnector(dsn)
		if err != nil {
			t.Fatalf("%q: %v", dsn, err)
		}
		if c.addr != addr {
			t.Fatalf("%q: addr = %q, want %q", dsn, c.addr, addr)
		}
	}
	if c, _ := NewConnector("tok@host:1"); c == nil || c.token != "tok" {
		t.Fatal("userinfo token not parsed")
	}
	for _, dsn := range []string{
		"http://host:1",
		"idea://host:1/path",
		"host:1?bogus=1",
		"host:1?tls=maybe",
		"idea://",
	} {
		if _, err := NewConnector(dsn); err == nil {
			t.Fatalf("%q: accepted", dsn)
		}
	}
}

// TestPipeDriver runs the full driver surface over net.Pipe.
func TestPipeDriver(t *testing.T) {
	srv, db := pipeDB(t)
	ctx := context.Background()

	if err := db.PingContext(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := db.ExecContext(ctx, testSchema+insertScript("D", 0, 30))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 30 {
		t.Fatalf("RowsAffected = %d, want 30", n)
	}

	// Positional $1 binding, streamed rows.
	rows, err := db.QueryContext(ctx, `SELECT VALUE d.id FROM D d WHERE d.id >= $1`, int64(25))
	if err != nil {
		t.Fatal(err)
	}
	cols, err := rows.Columns()
	if err != nil || len(cols) != 1 || cols[0] != "value" {
		t.Fatalf("columns = %v, %v", cols, err)
	}
	got := map[int64]bool{}
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		got[id] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !got[29] {
		t.Fatalf("rows = %v", got)
	}

	// Named binding via sql.Named.
	var one int64
	err = db.QueryRowContext(ctx, `SELECT VALUE d.id FROM D d WHERE d.id = $want`, sql.Named("want", int64(7))).Scan(&one)
	if err != nil || one != 7 {
		t.Fatalf("named arg: %d, %v", one, err)
	}

	// Objects scan into idea.Value through the JSON column encoding.
	var v idea.Value
	err = db.QueryRowContext(ctx, `SELECT VALUE d FROM D d WHERE d.id = $1`, int64(3)).Scan(&v)
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("id").Int() != 3 {
		t.Fatalf("object row = %v", v)
	}

	// Prepared statements re-ship text per execution.
	stmt, err := db.PrepareContext(ctx, `SELECT VALUE d.id FROM D d WHERE d.id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for _, want := range []int64{2, 12, 22} {
		var id int64
		if err := stmt.QueryRowContext(ctx, want).Scan(&id); err != nil || id != want {
			t.Fatalf("stmt(%d): %d, %v", want, id, err)
		}
	}

	// Transactions are refused.
	if _, err := db.BeginTx(ctx, nil); err == nil {
		t.Fatal("BeginTx succeeded")
	}

	// Sentinel identity survives the wire.
	rows, err = db.QueryContext(ctx, `SELECT VALUE x FROM Nope x`)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if !errors.Is(err, idea.ErrUnknownDataset) {
		t.Fatalf("err = %v, want idea.ErrUnknownDataset", err)
	}
	var de *Error
	if !errors.As(err, &de) || de.Code != "unknown_dataset" {
		t.Fatalf("err = %#v", err)
	}

	// The STATS admin verb through a raw pool connection.
	sc, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	stats, err := ServerStats(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Field("server").Str() != "ideaserver" || stats.Field("queries").Int() < 1 {
		t.Fatalf("stats = %v", stats)
	}
	if got := srv.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d", got)
	}
}

// TestTCPDriver covers the acceptance path end to end over a real
// socket: DDL + INSERT, a streamed SELECT with positional params.
// TestDriverArgsUseTheConversionTable: a database/sql argument becomes
// the value the in-process builders make of the same Go value — one
// table behind both — the driver keeps its own error prefix, and a
// composite survives argument → storage → column → Scan.
func TestDriverArgsUseTheConversionTable(t *testing.T) {
	when := time.Date(2019, 8, 26, 12, 0, 0, 0, time.UTC)
	for _, x := range []any{nil, true, int64(-7), 2.5, "text", when, []byte(`{"a":[1,{"b":null}]}`)} {
		params, err := wireParams([]driver.NamedValue{{Ordinal: 1, Value: x}})
		if err != nil {
			t.Fatalf("wireParams(%T): %v", x, err)
		}
		want := idea.UnwrapADM(idea.Arr(x).Index(0))
		if got := params[0].Value; got.Kind() != want.Kind() || adm.Compare(got, want) != 0 {
			t.Errorf("driver argument %T = %v, idea.Arr makes %v", x, got, want)
		}
	}
	for _, bad := range []any{struct{}{}, []byte(`{"unterminated`)} {
		_, err := wireParams([]driver.NamedValue{{Name: "n", Ordinal: 1, Value: bad}})
		if err == nil || !strings.HasPrefix(err.Error(), "idea driver: argument $n: ") {
			t.Errorf("wireParams(%T) error = %v, want the driver's prefix", bad, err)
		}
	}

	_, db := pipeDB(t)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, testSchema); err != nil {
		t.Fatal(err)
	}
	doc := idea.Obj("id", 1, "tags", idea.Arr("x", 2.5, nil), "at", when)
	if _, err := db.ExecContext(ctx, `UPSERT INTO D ([$1]);`, doc); err != nil {
		t.Fatal(err)
	}
	var back idea.Value
	if err := db.QueryRowContext(ctx, `SELECT VALUE d FROM D d WHERE d.id = $1`, int64(1)).Scan(&back); err != nil {
		t.Fatal(err)
	}
	if got := back.Field("tags"); got.Len() != 3 || got.Index(1).Float() != 2.5 || !got.Index(2).IsNull() {
		t.Errorf("composite came back as %v", back)
	}
}

func TestTCPDriver(t *testing.T) {
	_, addr := startServer(t, server.Config{BatchRows: 4})
	db := openDB(t, addr)
	ctx := context.Background()

	if _, err := db.ExecContext(ctx, testSchema+insertScript("D", 0, 100)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(ctx, `SELECT VALUE d.id FROM D d WHERE d.id < $1`, int64(50))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		if id >= 50 {
			t.Fatalf("row %d escaped the predicate", id)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("streamed %d rows, want 50", n)
	}
}

// TestEarlyRowsClose abandons a stream after one row; the server-side
// cursor must unwind (no leaked partition scans) and the pooled
// connection must stay usable.
func TestEarlyRowsClose(t *testing.T) {
	srv, addr := startServer(t, server.Config{BatchRows: 2})
	db := openDB(t, addr)
	db.SetMaxOpenConns(1)
	ctx := context.Background()

	if _, err := db.ExecContext(ctx, testSchema+insertScript("D", 0, 500)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(ctx, `SELECT VALUE d FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// The same (only) connection serves the next query — the session
	// survived the early close.
	var total int64
	if err := db.QueryRowContext(ctx, `SELECT VALUE d.id FROM D d WHERE d.id = $1`, int64(499)).Scan(&total); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().OpenCursors != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cursor leaked: OpenCursors = %d", srv.Stats().OpenCursors)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestContextCancelMidStream cancels the query context while rows are
// streaming: iteration fails, the poisoned connection leaves the pool,
// and the server unwinds its cursor.
func TestContextCancelMidStream(t *testing.T) {
	srv, addr := startServer(t, server.Config{BatchRows: 2})
	db := openDB(t, addr)
	bg := context.Background()

	// Rows are padded so the stream dwarfs the client's read buffer:
	// iteration must go back to the (now severed) transport rather than
	// finish off buffered frames.
	var pad strings.Builder
	pad.WriteString("INSERT INTO D ([")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			pad.WriteByte(',')
		}
		fmt.Fprintf(&pad, `{"id": %d, "pad": "%0200d"}`, i, i)
	}
	pad.WriteString("]);")
	if _, err := db.ExecContext(bg, testSchema+pad.String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	rows, err := db.QueryContext(ctx, `SELECT VALUE d FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	// Let the cancellation guard sever the transport: whatever the
	// client buffered may still decode, but the stream is far larger
	// than those buffers, so iteration must hit the cut.
	time.Sleep(200 * time.Millisecond)
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("iteration survived cancellation")
	}
	rows.Close()
	if err := db.PingContext(bg); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().OpenCursors != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cursor leaked: OpenCursors = %d", srv.Stats().OpenCursors)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolHammer is the issue's -race scenario: N pooled connections
// run mixed Query/Execute traffic concurrently, results must never
// bleed across sessions, and shutdown with streams in flight stays
// clean.
func TestPoolHammer(t *testing.T) {
	srv, addr := startServer(t, server.Config{BatchRows: 8})
	db := openDB(t, addr)
	db.SetMaxOpenConns(8)
	ctx := context.Background()

	const workers = 8
	// Each worker owns a dataset; any cross-session bleed shows up as a
	// foreign id in its result set.
	var ddl strings.Builder
	ddl.WriteString("CREATE TYPE HT AS OPEN { id: int64 };\n")
	for g := 0; g < workers; g++ {
		fmt.Fprintf(&ddl, "CREATE DATASET H%d(HT) PRIMARY KEY id;\n", g)
	}
	if _, err := db.ExecContext(ctx, ddl.String()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ds := fmt.Sprintf("H%d", g)
			base := int64(g * 1_000_000)
			for i := 0; i < 25; i++ {
				res, err := db.ExecContext(ctx, insertScript(ds, int(base)+i*10, 10))
				if err != nil {
					errCh <- fmt.Errorf("worker %d exec %d: %w", g, i, err)
					return
				}
				if n, _ := res.RowsAffected(); n != 10 {
					errCh <- fmt.Errorf("worker %d exec %d acked %d rows", g, i, n)
					return
				}
				rows, err := db.QueryContext(ctx,
					fmt.Sprintf(`SELECT VALUE d.id FROM %s d WHERE d.id >= $1`, ds), base+int64(i*10))
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", g, i, err)
					return
				}
				seen := 0
				for rows.Next() {
					var id int64
					if err := rows.Scan(&id); err != nil {
						errCh <- err
						return
					}
					if id < base || id >= base+1_000_000 {
						errCh <- fmt.Errorf("worker %d saw foreign row %d (cross-session bleed)", g, id)
						return
					}
					seen++
				}
				if err := rows.Err(); err != nil {
					errCh <- fmt.Errorf("worker %d rows %d: %w", g, i, err)
					return
				}
				if seen != 10 {
					errCh <- fmt.Errorf("worker %d query %d saw %d rows, want 10", g, i, seen)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Leave streams in flight, then shut down: the drain must complete
	// without wedging and without leaking cursors.
	var open []*sql.Rows
	for g := 0; g < 3; g++ {
		rows, err := db.QueryContext(ctx, fmt.Sprintf(`SELECT VALUE d FROM H%d d`, g))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("in-flight stream %d empty: %v", g, rows.Err())
		}
		open = append(open, rows)
	}
	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	// Drain keeps in-flight streams alive; finish them.
	for _, rows := range open {
		for rows.Next() {
		}
		rows.Close()
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d after shutdown", got)
	}
}

// TestE2E runs the driver against an externally booted ideaserver (the
// CI e2e-server job): set IDEA_E2E_ADDR to its host:port.
func TestE2E(t *testing.T) {
	addr := os.Getenv("IDEA_E2E_ADDR")
	if addr == "" {
		t.Skip("IDEA_E2E_ADDR not set; run via the e2e-server CI step")
	}
	db, err := sql.Open("idea", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if err := db.PingContext(ctx); err != nil {
		t.Fatalf("ping %s: %v", addr, err)
	}
	// Unique names: the external server outlives the test binary.
	ds := fmt.Sprintf("E2E%d", time.Now().UnixNano())
	script := fmt.Sprintf("CREATE TYPE %sT AS OPEN { id: int64 };\nCREATE DATASET %s(%sT) PRIMARY KEY id;\n", ds, ds, ds)
	if _, err := db.ExecContext(ctx, script+insertScript(ds, 0, 20)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(ctx, fmt.Sprintf(`SELECT VALUE d.id FROM %s d WHERE d.id >= $1`, ds), int64(10))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("e2e streamed %d rows, want 10", n)
	}
}

// BenchmarkWireQueryStream measures rows/s through the whole stack:
// database/sql -> wire -> server -> engine cursor and back.
func BenchmarkWireQueryStream(b *testing.B) {
	_, addr := startServer(b, server.Config{})
	db := openDB(b, addr)
	db.SetMaxOpenConns(1)
	ctx := context.Background()

	const rowsPerQuery = 2000
	if _, err := db.ExecContext(ctx, testSchema+insertScript("D", 0, rowsPerQuery)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryContext(ctx, `SELECT VALUE d.id FROM D d`)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			var id int64
			if err := rows.Scan(&id); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
		if n != rowsPerQuery {
			b.Fatalf("streamed %d rows", n)
		}
		total += n
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "rows/s")
}
