package driver

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"net"
	"testing"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/wire"
)

// TestScanDestinationsSurviveBufferReuse: a composite row's JSON lies in
// a buffer the driver hands database/sql and overwrites with the next
// row, so every destination but sql.RawBytes must hold a copy. Each
// row is scanned into *[]byte, *string, *any and an idea.Value, and
// after the last Next each still holds its own row's value — while the
// RawBytes kept from an earlier row reads the last row's bytes.
func TestScanDestinationsSurviveBufferReuse(t *testing.T) {
	_, db := pipeDB(t)
	ctx := context.Background()
	const n = 50
	// Rows of one length, so that every row's JSON lands in the bytes
	// the first one sized.
	script := testSchema + "INSERT INTO D (["
	for i := 0; i < n; i++ {
		if i > 0 {
			script += ","
		}
		script += fmt.Sprintf(`{"id": %d, "s": "row %02d"}`, 100+i, i)
	}
	if _, err := db.ExecContext(ctx, script+"]);"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(ctx, `SELECT VALUE d FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	type kept struct {
		want string
		raw  sql.RawBytes
		b    []byte
		s    string
		a    any
		v    idea.Value
	}
	var all []kept
	for rows.Next() {
		var k kept
		// RawBytes last: after it, database/sql allows no other Scan.
		for _, dst := range []any{&k.b, &k.s, &k.a, &k.v, &k.raw} {
			if err := rows.Scan(dst); err != nil {
				t.Fatalf("Scan into %T: %v", dst, err)
			}
		}
		k.want = string(k.raw)
		all = append(all, k)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(all) != n {
		t.Fatalf("%d rows, want %d", len(all), n)
	}
	last := all[len(all)-1].want
	for i, k := range all {
		if a, ok := k.a.([]byte); !ok || string(a) != k.want || string(k.b) != k.want || k.s != k.want {
			t.Fatalf("row %d (%s): []byte %s, string %s, any %v", i, k.want, k.b, k.s, k.a)
		}
		if got := k.v.JSON(); string(got) != k.want {
			t.Fatalf("row %d (%s): idea.Value %s", i, k.want, got)
		}
		if i < len(all)-1 && string(k.raw) != last {
			t.Fatalf("row %d's RawBytes reads %s after the last row (%s): rows are not written into one buffer", i, k.raw, last)
		}
	}
}

// cannedDB is a database/sql pool over a stand-in server that answers
// every query with the same stream — batches RowBatch frames of
// perBatch tweet-shaped object rows — written from one precomputed
// buffer, so the server side allocates nothing per row.
func cannedDB(t *testing.T, batches, perBatch int) *sql.DB {
	t.Helper()
	tweet, err := adm.ParseJSON([]byte(`{"id": 7, "text": "lorem ipsum dolor \"sit\" amet", "lang": "en",
		"user": {"screen_name": "someone", "followers_count": 321}, "latitude": 33.64, "longitude": -117.84,
		"retweet_count": 17, "verified": true, "hashtags": ["a", "b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	o := tweet.ObjectVal()
	o.Set("created_at", adm.DateTimeMillis(1_560_000_000_000))
	rows := make([]adm.Value, perBatch)
	for i := range rows {
		rows[i] = adm.ObjectValue(o)
	}
	stream := wire.AppendFrame(nil, wire.TypeHeader, wire.AppendHeader(nil, wire.Header{Columns: []string{"value"}}))
	batch := wire.AppendRowBatch(nil, rows)
	for range batches {
		stream = wire.AppendFrame(stream, wire.TypeRowBatch, batch)
	}
	stream = wire.AppendFrame(stream, wire.TypeTrailer, wire.AppendTrailer(nil, wire.Trailer{Rows: uint64(batches * perBatch)}))
	db := openDB(t, "canned", WithDialer(func(ctx context.Context) (net.Conn, error) {
		client, srvEnd := net.Pipe()
		go func() {
			defer srvEnd.Close()
			wc := wire.NewConn(srvEnd)
			if _, _, err := wc.ReadFrame(wire.MaxHandshakeFrame); err != nil {
				return
			}
			wc.WriteFrame(wire.TypeWelcome, wire.AppendWelcome(nil, wire.Welcome{Version: wire.Version, Server: "canned"}))
			wc.Flush()
			for {
				typ, _, err := wc.ReadFrame(wire.MaxFrame)
				if err != nil {
					return
				}
				if typ == wire.TypeQuery {
					srvEnd.Write(stream)
				}
			}
		}()
		return client, nil
	}))
	db.SetMaxOpenConns(1)
	return db
}

// TestDriverRowAllocations: draining object rows into sql.RawBytes
// allocates per statement and per batch, never per row — a batch of
// 500 rows costs what a batch of 5 does. Each row's JSON is written
// from its wire bytes into one buffer the rows reuse; decoding each
// row into a tree and serializing it into a fresh slice cost tens of
// allocations a row.
func TestDriverRowAllocations(t *testing.T) {
	const batches = 4
	drain := func(db *sql.DB, perBatch int) func() {
		return func() {
			rows, err := db.QueryContext(context.Background(), `SELECT VALUE d FROM D d`)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			var raw sql.RawBytes
			n := 0
			for rows.Next() {
				if err := rows.Scan(&raw); err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(raw, []byte(`{"id":7,`)) {
					t.Fatalf("row %s", raw)
				}
				n++
			}
			if err := rows.Err(); err != nil || n != batches*perBatch {
				t.Fatalf("%d rows, %v", n, err)
			}
		}
	}
	few, many := cannedDB(t, batches, 5), cannedDB(t, batches, 500)
	a := testing.AllocsPerRun(20, drain(few, 5))
	b := testing.AllocsPerRun(20, drain(many, 500))
	t.Logf("%d batches: %v allocations at 5 rows a batch, %v at 500", batches, a, b)
	if b > a+batches {
		t.Fatalf("%d more rows cost %v more allocations: the driver allocates per row", batches*495, b-a)
	}
}
