package server

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/wire"
)

// legacyStatsKeys are the 23 keys the STATS verb served when its reply
// was typed by hand; clients (driver.ServerStats users) read them by
// name, so the generated reply must keep every one.
var legacyStatsKeys = []string{
	"server", "uptime_ms", "nodes",
	"conns_accepted", "conns_rejected", "auth_failures", "sessions_active",
	"queries", "statements", "rows_sent", "row_bytes", "bytes_sent", "bytes_received",
	"errors", "open_cursors",
	"block_cache_hits", "block_cache_misses", "block_cache_evictions",
	"block_cache_entries", "block_cache_bytes",
	"bloom_skips", "fence_skips", "block_reads", "open_run_files",
}

// statsReplyKeys and feedStatsKeys are the STATS reply's keys in wire
// order: the top level, and one entry of its feeds array. Every value is
// an integer except the kinds nonIntegerStatsKeys names.
var (
	statsReplyKeys = []string{
		"server", "uptime_ms", "nodes",
		"conns_accepted", "conns_rejected", "auth_failures", "sessions_active",
		"queries", "statements", "rows_sent", "row_bytes", "bytes_sent", "bytes_received",
		"errors", "open_cursors",
		"statement_cache_hits", "statement_cache_misses", "statement_cache_evictions",
		"block_cache_hits", "block_cache_misses", "block_cache_evictions",
		"block_cache_entries", "block_cache_bytes",
		"block_cache_scan_hits", "block_cache_scan_misses", "block_cache_bypasses", "block_cache_recycled",
		"block_cache_frame_hits", "block_cache_frame_bytes",
		"gets", "scans", "upserts", "deletes", "flushes", "merges", "flushed_runs",
		"components", "mem_entries", "fence_skips", "bloom_skips", "block_reads",
		"open_run_files", "recycled_slabs", "fresh_slabs",
		"feeds",
	}
	feedStatsKeys = []string{
		"name", "ingested", "stored", "parse_errors", "invocations", "mean_refresh",
		"state_builds", "state_reuses", "access_builds", "access_patches",
		"running", "buffered_frames", "spill_backlog",
		"spilled_frames", "spilled_records", "shed_frames", "shed_records",
		"sampled_frames", "sampled_records", "last_checkpoint", "resumptions",
	}
	nonIntegerStatsKeys = map[string]adm.Kind{
		"server": adm.KindString, "feeds": adm.KindArray,
		"name": adm.KindString, "running": adm.KindBoolean,
	}
)

// checkStatsKeys fails t unless the object v holds exactly want's keys,
// in want's order, each with its pinned kind.
func checkStatsKeys(t *testing.T, what string, v adm.Value, want []string) {
	t.Helper()
	o := v.ObjectVal()
	got := make([]string, o.Len())
	for i := range got {
		got[i] = o.Name(i)
		kind, ok := nonIntegerStatsKeys[got[i]]
		if !ok {
			kind = adm.KindInt64
		}
		if o.At(i).Kind() != kind {
			t.Errorf("%s: %q is a %v, want a %v", what, got[i], o.At(i).Kind(), kind)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s keys =\n%q\nwant\n%q", what, got, want)
	}
}

func TestSnakeCase(t *testing.T) {
	for name, want := range map[string]string{
		"Nodes":          "nodes",
		"UptimeMs":       "uptime_ms",
		"BlockCacheHits": "block_cache_hits",
		"OpenRunFiles":   "open_run_files",
		"WALCommits":     "wal_commits",
	} {
		if got := snakeCase(name); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", name, got, want)
		}
	}
}

// numericFields lists the wire keys of every exported numeric field of
// a snapshot type, descending into struct-typed fields the way the
// reply flattens them.
func numericFields(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch k := f.Type.Kind(); {
		case k == reflect.Struct:
			keys = append(keys, numericFields(f.Type)...)
		case k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr:
			keys = append(keys, snakeCase(f.Name))
		}
	}
	return keys
}

// TestStatsReplyCoversEverySnapshotField: the reply is generated from
// the snapshot declarations, so every numeric field of server.Stats —
// the storage snapshot's included — and of each feed's snapshot is on
// the wire under its snake_case name, no two fields collide on a key,
// and the keys served before the generator keep their names. The whole
// reply is pinned key for key (statsReplyKeys, feedStatsKeys): moving,
// renaming or retyping a snapshot field changes what clients read.
func TestStatsReplyCoversEverySnapshotField(t *testing.T) {
	c := newCluster(t, idea.Config{})
	c.MustExecute(testSchema + `
		CREATE FEED Ran WITH { "adapter-name": "channel_adapter", "batch-size": 10 };
		CONNECT FEED Ran TO DATASET D;
		CREATE FEED Idle WITH { "adapter-name": "channel_adapter" };
	`)
	const n = 50
	records := make([][]byte, n)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	if err := c.SetFeedSource("Ran", func(int) (idea.FeedSource, error) {
		return &idea.RecordsSource{Records: records}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.MustExecute(`START FEED Ran;`).Feeds()[0].Wait(); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, c, Config{})
	rt, rb := call(t, wireDial(t, addr, ""), wire.TypeStats, nil)
	if rt != wire.TypeStatsReply {
		t.Fatalf("stats answered %v", rt)
	}
	v, err := wire.ParseValue(rb)
	if err != nil {
		t.Fatal(err)
	}

	checkStatsKeys(t, "reply", v, statsReplyKeys)
	for _, key := range legacyStatsKeys {
		if v.Field(key).IsMissing() {
			t.Errorf("reply lost the key %q", key)
		}
	}
	top := numericFields(reflect.TypeOf(Stats{}))
	for _, key := range append(top, "components", "flushes", "merges") {
		if v.Field(key).Kind() != adm.KindInt64 {
			t.Errorf("reply has no integer %q: %v", key, v.Field(key))
		}
	}
	// server, the numeric fields, feeds: a collision between two
	// flattened structs would leave fewer keys than fields.
	if got, want := v.ObjectVal().Len(), len(top)+2; got != want {
		t.Errorf("reply has %d keys for %d fields: %v", got, want, v)
	}

	feeds := v.Field("feeds").ArrayVal()
	if len(feeds) != 2 || feeds[0].Field("name").StringVal() != "Idle" || feeds[1].Field("name").StringVal() != "Ran" {
		t.Fatalf("feeds = %v, want Idle and Ran in name order", v.Field("feeds"))
	}
	for _, feed := range feeds {
		checkStatsKeys(t, "feed "+feed.Field("name").StringVal(), feed, feedStatsKeys)
		for _, key := range numericFields(reflect.TypeOf(idea.FeedStats{})) {
			if feed.Field(key).Kind() != adm.KindInt64 {
				t.Errorf("feed %v has no integer %q", feed.Field("name"), key)
			}
		}
		if feed.Field("running").Kind() != adm.KindBoolean {
			t.Errorf("feed %v has no boolean running", feed.Field("name"))
		}
	}
	if got := feeds[1].Field("stored").IntVal(); got != n {
		t.Errorf("feed Ran reports stored = %d, want %d", got, n)
	}
	if got := feeds[0].Field("stored").IntVal(); got != 0 {
		t.Errorf("never-started feed Idle reports stored = %d", got)
	}
}

// TestStatsCountStatementCacheHits: the cluster's parsed-statement
// cache reports through STATS, and a text sent again is a hit.
func TestStatsCountStatementCacheHits(t *testing.T) {
	c := newCluster(t, idea.Config{})
	c.MustExecute(testSchema)
	_, addr := startServer(t, c, Config{})
	wc := wireDial(t, addr, "")
	stats := func() adm.Value {
		t.Helper()
		rt, rb := call(t, wc, wire.TypeStats, nil)
		if rt != wire.TypeStatsReply {
			t.Fatalf("stats answered %v", rt)
		}
		v, err := wire.ParseValue(rb)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	before := stats()
	for _, key := range []string{"statement_cache_hits", "statement_cache_misses", "statement_cache_evictions"} {
		if before.Field(key).Kind() != adm.KindInt64 {
			t.Errorf("reply has no integer %q: %v", key, before.Field(key))
		}
	}
	const upsert = `UPSERT INTO D ([{"id": $id}]);`
	for i := range 3 {
		mustExec(t, wc, upsert, wire.Param{Name: "id", Value: adm.Int(int64(i))})
	}
	after := stats()
	if got := after.Field("statement_cache_hits").IntVal() - before.Field("statement_cache_hits").IntVal(); got != 2 {
		t.Errorf("three runs of one text added %d hits, want 2", got)
	}
	if got := after.Field("statement_cache_misses").IntVal() - before.Field("statement_cache_misses").IntVal(); got != 1 {
		t.Errorf("three runs of one text added %d misses, want 1", got)
	}
	if n, err := c.DatasetLen("D"); err != nil || n != 3 {
		t.Errorf("D holds %d records (%v), want 3", n, err)
	}
}

// TestStatsCountAClosingConnectionOnce: a connection's bytes are counted
// once, live or folded, so the server's totals never go backwards while
// it closes. unregister folds them in the critical section that removes
// the connection from the live set.
func TestStatsCountAClosingConnectionOnce(t *testing.T) {
	s := New(newCluster(t, idea.Config{}), Config{})
	client, server := net.Pipe()
	defer client.Close()
	c := &conn{srv: s, wc: wire.NewConn(server)}
	defer c.wc.Close()
	if !s.register(c) {
		t.Fatal("register refused the first connection")
	}
	go io.Copy(io.Discard, client)
	c.body = wire.AppendValue(c.body[:0], adm.String("one frame"))
	if err := c.wc.WriteFrame(wire.TypeStatsReply, c.body); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().BytesSent
	if before == 0 {
		t.Fatal("a live connection's frame is not in BytesSent")
	}
	s.unregister(c)
	if after := s.Stats().BytesSent; after != before {
		t.Errorf("BytesSent went from %d to %d when the connection closed", before, after)
	}
}
