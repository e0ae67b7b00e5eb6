package idea

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestQueryParamBinding(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64, grp: string };
		CREATE DATASET D(T) PRIMARY KEY id;
		INSERT INTO D ([
			{"id": 1, "grp": "a"}, {"id": 2, "grp": "b"},
			{"id": 3, "grp": "a"}, {"id": 4, "grp": "c"}
		]);
	`)
	ctx := context.Background()

	// Named binding.
	rows := queryVals(t, c, `SELECT VALUE d.id FROM D d WHERE d.grp = $g ORDER BY d.id`, Named("g", "a"))
	if len(rows) != 2 || rows[0].Int() != 1 || rows[1].Int() != 3 {
		t.Fatalf("named binding rows = %v", rows)
	}
	// A leading $ in the arg name is tolerated.
	rows = queryVals(t, c, `SELECT VALUE d.id FROM D d WHERE d.grp = $g`, Named("$g", "c"))
	if len(rows) != 1 || rows[0].Int() != 4 {
		t.Fatalf("$-prefixed named binding rows = %v", rows)
	}

	// Positional binding: $1, $2 in argument order.
	rows = queryVals(t, c, `SELECT VALUE d.id FROM D d WHERE d.grp = $1 AND d.id > $2`, "a", 1)
	if len(rows) != 1 || rows[0].Int() != 3 {
		t.Fatalf("positional binding rows = %v", rows)
	}

	// Mixed named + positional.
	rows = queryVals(t, c, `SELECT VALUE d.id FROM D d WHERE d.grp = $g AND d.id < $1`, Named("g", "a"), 3)
	if len(rows) != 1 || rows[0].Int() != 1 {
		t.Fatalf("mixed binding rows = %v", rows)
	}

	// Missing argument for a referenced parameter fails up front.
	if _, err := c.Query(ctx, `SELECT VALUE d.id FROM D d WHERE d.grp = $g`); err == nil ||
		!strings.Contains(err.Error(), "$g") {
		t.Errorf("missing arg error = %v", err)
	}
	// An argument the statement never references fails up front too.
	if _, err := c.Query(ctx, `SELECT VALUE d.id FROM D d`, Named("g", "a")); err == nil ||
		!strings.Contains(err.Error(), "$g") {
		t.Errorf("extra arg error = %v", err)
	}
	if _, err := c.Query(ctx, `SELECT VALUE d.id FROM D d LIMIT $1`, 1, 2); err == nil {
		t.Error("extra positional arg should fail")
	}
	// $text inside a string literal is text, not a parameter.
	rows = queryVals(t, c, `SELECT VALUE d.id FROM D d WHERE d.grp = "$g" ORDER BY d.id`)
	if len(rows) != 0 {
		t.Errorf("string-literal $ matched rows: %v", rows)
	}
	// Unconvertible argument values are rejected.
	if _, err := c.Query(ctx, `SELECT VALUE d.id FROM D d LIMIT $1`, struct{}{}); err == nil {
		t.Error("unconvertible arg should fail")
	}

	// Every bind error, word for word, on the call that parses the text
	// and on the one that finds it cached.
	for _, tc := range []struct {
		q    string
		args []any
		want string
	}{
		{`SELECT VALUE d.id FROM D d WHERE d.grp = $g OR d.id = 0`, []any{Named("", 1)},
			"idea: NamedArg with empty name"},
		{`SELECT VALUE d.id FROM D d WHERE d.grp = $g OR d.id = 1`, []any{Named("g", "a"), Named("g", "b")},
			"idea: parameter $g bound twice"},
		{`SELECT VALUE d.id FROM D d WHERE d.grp = $1 OR d.id = 2`, []any{Named("1", "a"), "b"},
			"idea: parameter $1 bound twice"},
		{`SELECT VALUE d.id FROM D d WHERE d.id = 3`, []any{Named("g", "a")},
			"idea: argument $g is not referenced by the statement"},
		{`SELECT VALUE d.id FROM D d WHERE d.grp = $g OR d.id = 4`, nil,
			"idea: missing argument for parameter $g"},
		{`SELECT VALUE d.id FROM D d WHERE d.id = 5 LIMIT $1`, []any{struct{}{}},
			"idea: argument $1: cannot convert struct {} to an ADM value"},
	} {
		for _, run := range []string{"miss", "hit"} {
			hits := c.StatementCacheStats().StatementCacheHits
			_, err := c.Query(ctx, tc.q, tc.args...)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (%s): error %v, want %q", tc.q, run, err, tc.want)
			}
			if wantHit := run == "hit"; (c.StatementCacheStats().StatementCacheHits > hits) != wantHit {
				t.Errorf("%s: the %s run was not a cache %s", tc.q, run, run)
			}
		}
	}
}

func TestExecuteParamsInDML(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	results, err := c.Execute(context.Background(),
		`UPSERT INTO D ([{"id": $id, "tag": $tag}]);`,
		Named("id", 7), Named("tag", "bound"))
	if err != nil {
		t.Fatal(err)
	}
	if results.RowsAffected() != 1 {
		t.Fatalf("RowsAffected = %d", results.RowsAffected())
	}
	rec, found, err := c.Get("D", Int64(7))
	if err != nil || !found || rec.Field("tag").Str() != "bound" {
		t.Fatalf("Get = %v %v %v", rec, found, err)
	}
}

// TestInsertSelectFromFlushedDataset: records read out of run files are
// views of their blocks, and INSERT/UPSERT ... SELECT hands those views
// to another dataset's validation and write path. The copy must equal
// the source field for field — including a field the target's datatype
// coerces (a string the source stored as text becomes a datetime), which
// a view cannot be rewritten for in place.
func TestInsertSelectFromFlushedDataset(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE Loose AS OPEN { id: int64 };
		CREATE DATASET Src(Loose) PRIMARY KEY id;
		CREATE TYPE Strict AS OPEN { id: int64, at: datetime };
		CREATE DATASET Dst(Strict) PRIMARY KEY id;
	`)
	const n = 500
	rows := make([]any, n)
	for i := range rows {
		rows[i] = Obj("id", int64(i), "at", "2019-08-26T10:00:00.000Z", "user", Obj("name", fmt.Sprintf("u%d", i)), "pad", strings.Repeat("p", 100))
	}
	ctx := context.Background()
	if _, err := c.Execute(ctx, `UPSERT INTO Src ($rows)`, Named("rows", Arr(rows...))); err != nil {
		t.Fatal(err)
	}
	// Any snapshot freezes the memtables; wait for the flush behind it.
	for deadline := time.Now().Add(10 * time.Second); c.StorageStats().FlushedRuns < 2; {
		if _, err := c.DatasetLen("Src"); err != nil || time.Now().After(deadline) {
			t.Fatalf("Src never flushed: %+v, %v", c.StorageStats(), err)
		}
		time.Sleep(time.Millisecond)
	}
	res, err := c.Execute(ctx, `UPSERT INTO Dst (SELECT VALUE s FROM Src s)`)
	if err != nil || res.RowsAffected() != n {
		t.Fatalf("UPSERT ... SELECT: %d rows, %v", res.RowsAffected(), err)
	}
	for _, id := range []int64{0, 17, n - 1} {
		src, _, _ := c.Get("Src", Int64(id))
		dst, found, err := c.Get("Dst", Int64(id))
		if err != nil || !found {
			t.Fatalf("Dst[%d]: %v %v", id, found, err)
		}
		if got := dst.Field("at").Time(); !got.Equal(time.Date(2019, 8, 26, 10, 0, 0, 0, time.UTC)) {
			t.Errorf("Dst[%d].at = %v: not coerced to the declared datetime", id, dst.Field("at"))
		}
		if src.Field("at").Str() == "" || dst.Field("user").Field("name").Str() != fmt.Sprintf("u%d", id) || dst.Field("pad").Str() != src.Field("pad").Str() || dst.Len() != src.Len() {
			t.Errorf("Dst[%d] = %v, Src = %v", id, dst, src)
		}
	}
	// Copying records onto their own keys changes nothing.
	if res, err = c.Execute(ctx, `UPSERT INTO Src (SELECT VALUE s FROM Src s WHERE s.id < 10)`); err != nil || res.RowsAffected() != 10 {
		t.Fatalf("self-copy: %d rows, %v", res.RowsAffected(), err)
	}
	if got, err := c.DatasetLen("Src"); err != nil || got != n {
		t.Fatalf("Src holds %d records, %v", got, err)
	}
}

// TestExecuteMidScriptErrorReportsStatementAndFeeds is the satellite
// regression: a script that starts a feed and then fails must still
// hand back the started feed handle, and the error must locate the
// failing statement.
func TestExecuteMidScriptErrorReportsStatementAndFeeds(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		CREATE FEED F WITH { "adapter-name": "channel_adapter" };
		CONNECT FEED F TO DATASET D;
	`)
	ch := make(chan []byte)
	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &ChannelSource{C: ch}, nil
	}); err != nil {
		t.Fatal(err)
	}
	script := `START FEED F;
INSERT INTO NoSuchDataset ([{"id": 1}]);`
	results, err := c.Execute(context.Background(), script)
	if err == nil {
		t.Fatal("script should fail at the second statement")
	}
	var se *StatementError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *StatementError", err)
	}
	if se.Index != 1 {
		t.Errorf("failing statement index = %d, want 1", se.Index)
	}
	if want := strings.Index(script, "INSERT"); se.Pos != want {
		t.Errorf("failing statement pos = %d, want %d", se.Pos, want)
	}
	if !strings.Contains(se.Snippet, "INSERT INTO NoSuchDataset") {
		t.Errorf("snippet = %q", se.Snippet)
	}
	if !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("cause should unwrap to ErrUnknownDataset, got %v", err)
	}
	// The feed the script already started is in the partial results —
	// stop it through the returned handle.
	feeds := results.Feeds()
	if len(feeds) != 1 {
		t.Fatalf("partial results carry %d feeds, want 1", len(feeds))
	}
	close(ch)
	if err := feeds[0].Stop(); err != nil {
		t.Fatalf("stopping the orphaned feed: %v", err)
	}
}

// TestFeedStatsAfterStop is the satellite regression for Stats
// silently returning zeros: final counters must survive the stop, and
// unknown handles must report a typed error instead of zeros.
func TestFeedStatsAfterStop(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		CREATE FEED F WITH { "adapter-name": "channel_adapter" };
		CONNECT FEED F TO DATASET D;
	`)
	records := make([][]byte, 120)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &RecordsSource{Records: records}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feed := c.MustExecute(`START FEED F;`).Feeds()[0]
	if err := feed.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := feed.Stop(); err != nil {
		t.Fatal(err)
	}
	stats, err := feed.Stats()
	if err != nil {
		t.Fatalf("Stats after stop: %v", err)
	}
	if stats.Stored != 120 {
		t.Errorf("final stored = %d, want 120", stats.Stored)
	}
	if stats.Running {
		t.Error("stopped feed reports Running")
	}
	// A handle to a feed the manager never saw reports ErrUnknownFeed.
	bogus := &Feed{name: "ghost", c: c}
	if _, err := bogus.Stats(); !errors.Is(err, ErrUnknownFeed) {
		t.Errorf("unknown feed error = %v, want ErrUnknownFeed", err)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	var b strings.Builder
	b.WriteString(`UPSERT INTO D ([`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"id": %d}`, i)
	}
	b.WriteString(`]);`)
	c.MustExecute(b.String())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, `SELECT VALUE d.id FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			cancel()
		}
	}
	if n >= 500 {
		t.Fatalf("cancellation did not stop the stream (pulled %d rows)", n)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

func TestRowsEarlyCloseAndReuse(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		UPSERT INTO D ([{"id": 1}, {"id": 2}, {"id": 3}]);
	`)
	rows, err := c.Query(context.Background(), `SELECT VALUE d.id FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("first Next failed")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("Next after Close should report false")
	}
	if rows.Err() != nil {
		t.Errorf("Err after clean Close = %v", rows.Err())
	}
	// The cluster is fully usable for the next query.
	if got := queryVals(t, c, `SELECT VALUE count(*) FROM D d`); got[0].Int() != 3 {
		t.Errorf("follow-up query = %v", got)
	}
}

// TestExecuteThenCollect covers the paths the removed ExecuteScript and
// QueryAll shims used to exercise: a setup script through Execute (no
// feeds started) and a materialized result through Rows.Collect.
func TestExecuteThenCollect(t *testing.T) {
	c := newTestCluster(t)
	results, err := c.Execute(context.Background(), `
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		UPSERT INTO D ([{"id": 1}, {"id": 2}]);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if feeds := results.Feeds(); len(feeds) != 0 {
		t.Fatalf("feeds = %d", len(feeds))
	}
	rows, err := c.Query(context.Background(), `SELECT VALUE d.id FROM D d ORDER BY d.id`)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0].Int() != 1 {
		t.Fatalf("Collect = %v", vals)
	}
}

// TestRowsCloseMidParallelScan abandons streams partway through every
// parallel plan shape, repeatedly: the scan workers behind the cursor
// must stop and join on Close, leaking no goroutines and (under
// -race) no unsynchronized accesses. The cluster must stay fully
// usable afterwards.
func TestRowsCloseMidParallelScan(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	const n = 8192
	for lo := 0; lo < n; lo += 2048 {
		var b strings.Builder
		b.WriteString(`UPSERT INTO D ([`)
		for i := lo; i < lo+2048; i++ {
			if i > lo {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"id": %d, "grp": %d}`, i, i%7)
		}
		b.WriteString(`]);`)
		c.MustExecute(b.String())
	}
	for _, q := range []string{
		`SELECT VALUE d.id FROM D d`,                       // partition-order scan
		`SELECT VALUE d.id FROM D d ORDER BY d.id LIMIT 5`, // key-order merge
		`SELECT VALUE count(*) FROM D d`,                   // unordered fan-in
		`SELECT VALUE d.id FROM D d WHERE d.grp < 5`,       // pushed worker filter
		`SELECT d.grp AS g, count(*) AS c FROM D d GROUP BY d.grp`,
	} {
		for iter := 0; iter < 3; iter++ {
			rows, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for i := 0; i < 2 && rows.Next(); i++ {
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("%s: close: %v", q, err)
			}
		}
	}
	if got := queryVals(t, c, `SELECT VALUE count(*) FROM D d`); got[0].Int() != n {
		t.Fatalf("cluster disturbed: count = %v", got)
	}
}

// TestQueryStreamBoundedWork asserts the acceptance criterion at the
// public surface: LIMIT-k allocations must not scale with dataset
// size. Allocations for LIMIT 10 over a 40x larger dataset must stay
// within a small constant factor of the small-dataset run.
func TestQueryStreamBoundedWork(t *testing.T) {
	build := func(n int) *Cluster {
		c := newTestCluster(t)
		c.MustExecute(`
			CREATE TYPE T AS OPEN { id: int64 };
			CREATE DATASET D(T) PRIMARY KEY id;
		`)
		for lo := 0; lo < n; lo += 4096 {
			hi := lo + 4096
			if hi > n {
				hi = n
			}
			var b strings.Builder
			b.WriteString(`UPSERT INTO D ([`)
			for i := lo; i < hi; i++ {
				if i > lo {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, `{"id": %d, "score": %d}`, i, i%97)
			}
			b.WriteString(`]);`)
			c.MustExecute(b.String())
		}
		return c
	}
	const q = `SELECT VALUE d.id FROM D d WHERE d.score >= 0 LIMIT 10`
	measure := func(c *Cluster) float64 {
		return testing.AllocsPerRun(20, func() {
			rows, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			if rows.Err() != nil || n != 10 {
				t.Fatalf("rows=%d err=%v", n, rows.Err())
			}
			rows.Close()
		})
	}
	small := measure(build(2_000))
	large := measure(build(80_000))
	if large > small*2+16 {
		t.Errorf("LIMIT-10 allocations scale with dataset size: %v (2k) vs %v (80k)", small, large)
	}
}

// TestCreateFunctionRejectsStatementParams: a stored body outlives the
// Execute call, so binding $params there would silently capture a
// later query's bindings — it must be rejected up front.
func TestCreateFunctionRejectsStatementParams(t *testing.T) {
	c := newTestCluster(t)
	_, err := c.Execute(context.Background(),
		`CREATE FUNCTION isred(x) { x = $flag };`, Named("flag", "Red"))
	if err == nil {
		t.Fatal("CREATE FUNCTION with a $param body should fail")
	}
	if !strings.Contains(err.Error(), "$flag") {
		t.Errorf("error should name the parameter: %v", err)
	}
	// Without the binding it fails the same way (the body is the
	// problem, not the argument list).
	if _, err := c.Execute(context.Background(),
		`CREATE FUNCTION isred(x) { x = $flag };`); err == nil {
		t.Fatal("CREATE FUNCTION with an unbound $param body should fail")
	}
}

// TestQueryPinsSnapshotsAtCallTime: rows observe the data as of the
// Query call, not of the first Next — a write landing in between must
// be invisible.
func TestQueryPinsSnapshotsAtCallTime(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		UPSERT INTO D ([{"id": 1}]);
	`)
	rows, err := c.Query(context.Background(), `SELECT VALUE d.id FROM D d`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	// A write after Query but before the first pull.
	c.MustExecute(`UPSERT INTO D ([{"id": 2}]);`)
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("rows = %d, want 1 (snapshot as of the Query call)", n)
	}
	// A fresh query sees the write.
	if got := queryVals(t, c, `SELECT VALUE count(*) FROM D d`); got[0].Int() != 2 {
		t.Errorf("follow-up count = %v", got)
	}
}
