package idea

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// TestOneConversionTable: the builders, $param binding and Scan all
// convert Go values through adm.FromGo — same value for every input the
// table knows — and each keeps its own error prefix. (The driver's
// argument encoding is held to the same table in driver_test.go.)
func TestOneConversionTable(t *testing.T) {
	when := time.Date(2019, 8, 26, 12, 0, 0, 0, time.UTC)
	inputs := []any{nil, true, int64(-7), 2.5, "text", when, []byte(`{"a":[1,{"b":null}]}`)}
	for _, x := range inputs {
		want, err := adm.FromGo(x)
		if err != nil {
			t.Fatalf("FromGo(%T): %v", x, err)
		}
		params, err := bindArgs([]string{"1"}, []any{x})
		if err != nil {
			t.Fatalf("bindArgs(%T): %v", x, err)
		}
		var scanned Value
		if err := scanned.Scan(x); err != nil {
			t.Fatalf("Scan(%T): %v", x, err)
		}
		for caller, got := range map[string]adm.Value{
			"Obj":    Obj("f", x).Field("f").v,
			"Arr":    Arr(x).Index(0).v,
			"$param": params.Values[0],
			"Scan":   scanned.v,
		} {
			if got.Kind() != want.Kind() || adm.Compare(got, want) != 0 {
				t.Errorf("%s(%T) = %v, want %v", caller, x, got, want)
			}
		}
		// And back: what database/sql sees of the value converts to the
		// same value again.
		back, err := adm.FromGo(want.DriverValue())
		if err != nil || adm.Compare(back, want) != 0 {
			t.Errorf("DriverValue round trip of %v = %v, %v", want, back, err)
		}
	}

	type unknown struct{}
	wantPrefix := func(caller, prefix string, err error) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("%s error = %v, want prefix %q", caller, err, prefix)
		}
	}
	for _, bad := range []any{unknown{}, []byte(`{"unterminated`)} {
		_, err := bindArgs([]string{"1"}, []any{bad})
		wantPrefix("$param", "idea: argument $1: ", err)
		_, err = bindArgs([]string{"n"}, []any{Named("n", bad)})
		wantPrefix("named $param", "idea: argument $n: ", err)
		wantPrefix("Scan", "idea: Scan: ", new(Value).Scan(bad))
		func() {
			defer func() {
				msg, _ := recover().(string)
				wantPrefix("Arr", "idea: ", errors.New(msg))
			}()
			Arr(bad)
		}()
	}
}

// Three user-defined sources: two plain ones and one that also
// implements the resumable contract. None embeds or wraps anything from
// this module.
type plainSource struct{ n int }

func (s plainSource) Run(ctx context.Context, emit func([]byte) error) error {
	for i := 0; i < s.n; i++ {
		if err := emit([]byte(fmt.Sprintf(`{"id":%d}`, i))); err != nil {
			return err
		}
	}
	return nil
}

// bufferSource emits every record out of one reused buffer, which is
// sound because the feed copies each emit before the call returns.
type bufferSource struct{ n int }

func (s bufferSource) Run(ctx context.Context, emit func([]byte) error) error {
	buf := make([]byte, 0, 64)
	for i := 0; i < s.n; i++ {
		buf = fmt.Appendf(buf[:0], `{"id":%d}`, i)
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// offsetSource records where each run was asked to resume.
type offsetSource struct {
	n  int
	mu sync.Mutex
	// froms holds RunFrom's from argument, one per run.
	froms []uint64
}

func (s *offsetSource) Run(ctx context.Context, emit func([]byte) error) error {
	return errors.New("offsetSource: Run called on a resumable source")
}

func (s *offsetSource) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	s.mu.Lock()
	s.froms = append(s.froms, from)
	s.mu.Unlock()
	for i := int(from); i < s.n; i++ {
		if err := emit(uint64(i)+1, []byte(fmt.Sprintf(`{"id":%d}`, i))); err != nil {
			return err
		}
	}
	return nil
}

// TestFeedSourceContractsNeedNoWrapper: FeedSource and
// ResumableFeedSource are the engine's own interfaces, so a user type is
// honoured for exactly the methods it has — SetFeedSource hands the
// factory's value to the feed as is — and any source may reuse its
// buffer across emits without declaring it.
func TestFeedSourceContractsNeedNoWrapper(t *testing.T) {
	const n = 300
	run := func(t *testing.T, src FeedSource) *Cluster {
		t.Helper()
		c := newTestClusterN(t, 1)
		c.MustExecute(`
			CREATE TYPE ET AS OPEN { id: int64 };
			CREATE DATASET Events(ET) PRIMARY KEY id;
			CREATE FEED F WITH { "adapter-name": "channel_adapter", "batch-size": 50 };
			CONNECT FEED F TO DATASET Events;
		`)
		if err := c.SetFeedSource("F", func(int) (FeedSource, error) { return src, nil }); err != nil {
			t.Fatal(err)
		}
		if err := c.MustExecute(`START FEED F;`).Feeds()[0].Wait(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, found, _ := c.Get("Events", Int64(int64(i))); !found {
				t.Fatalf("record %d of %d missing", i, n)
			}
		}
		return c
	}
	t.Run("Run", func(t *testing.T) { run(t, plainSource{n}) })
	t.Run("ReusedBuffer", func(t *testing.T) {
		// Without the copy every stored record would alias the buffer's
		// last content and ids would be missing.
		run(t, bufferSource{n})
	})
	t.Run("RunFrom", func(t *testing.T) {
		src := &offsetSource{n: n}
		c := run(t, src)
		c.MustExecute(`STOP FEED F; START FEED F;`)
		c.MustExecute(`STOP FEED F;`)
		if len(src.froms) != 2 || src.froms[0] != 0 || src.froms[1] != n {
			t.Errorf("RunFrom resumed from %v, want [0 %d]: the restart must pick up at the checkpoint", src.froms, n)
		}
	})
}

// feedOutcome is what one run of a DDL-declared feed showed.
type feedOutcome struct {
	stats   FeedStats
	waitErr error
}

// TestFeedDDLKnobs: every CREATE FEED ... WITH knob changes the started
// feed's behaviour when set through DDL — each row runs the same
// scenario under two values of one key and states how the outcomes must
// differ — and a key the manager does not know is refused at CREATE
// FEED instead of running at the default.
func TestFeedDDLKnobs(t *testing.T) {
	records := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
		}
		return out
	}
	// declare creates the feed with the given WITH body on a fresh
	// cluster and installs src; udfDelay > 0 attaches a slow UDF.
	declare := func(t *testing.T, c *Cluster, with string, udfDelay time.Duration, src FeedSource) {
		t.Helper()
		apply := ""
		if udfDelay > 0 {
			apply = " APPLY FUNCTION slow"
			if err := c.RegisterNativeUDF("slow", func() NativeUDF { return &slowUDF{delay: udfDelay} }); err != nil {
				t.Fatal(err)
			}
		}
		c.MustExecute(fmt.Sprintf(`
			CREATE TYPE ET AS OPEN { id: int64 };
			CREATE DATASET Events(ET) PRIMARY KEY id;
			CREATE FEED F WITH { "adapter-name": "channel_adapter", %s };
			CONNECT FEED F TO DATASET Events%s;
		`, with, apply))
		if err := c.SetFeedSource("F", func(int) (FeedSource, error) { return src, nil }); err != nil {
			t.Fatal(err)
		}
	}
	type scenario func(*testing.T) feedOutcome
	plain := func(t *testing.T) *Cluster { return newTestClusterN(t, 1) }
	congested := func(t *testing.T) *Cluster { return newCongestedCluster(t, 1) }

	// toEnd runs n records through the feed and reports its final state.
	toEnd := func(cluster func(*testing.T) *Cluster, udfDelay time.Duration, n int, with string) scenario {
		return func(t *testing.T) feedOutcome {
			c := cluster(t)
			declare(t, c, with, udfDelay, &RecordsSource{Records: records(n)})
			feed := c.MustExecute(`START FEED F;`).Feeds()[0]
			out := feedOutcome{waitErr: feed.Wait()}
			out.stats, _ = feed.Stats()
			return out
		}
	}
	// midStream reports a feed that has stored all n records of a source
	// that then stays open, so only per-batch checkpoints have happened;
	// awaitCheckpoint waits for the one that follows the last batch.
	midStream := func(with string, n int, awaitCheckpoint bool) scenario {
		return func(t *testing.T) feedOutcome {
			c := plain(t)
			declare(t, c, with, 0, &heldOpenSource{records: records(n)})
			feed := c.MustExecute(`START FEED F;`).Feeds()[0]
			defer feed.Stop()
			var out feedOutcome
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				out.stats, _ = feed.Stats()
				if out.stats.Stored == int64(n) && (!awaitCheckpoint || out.stats.LastCheckpoint == uint64(n)) {
					break
				}
			}
			if out.stats.Stored != int64(n) {
				t.Fatalf("feed stored %d of %d records", out.stats.Stored, n)
			}
			return out
		}
	}
	// killed reports a feed one of whose two nodes died after 50 stored
	// records: once it finished, or — when no restart is expected — once
	// its pipeline reported the dead partition.
	killed := func(with string, n int, expectRestart bool) scenario {
		return func(t *testing.T) feedOutcome {
			c := newTestClusterN(t, 2)
			declare(t, c, with, 0, &pacedSource{records: records(n), delay: 100 * time.Microsecond})
			feed := c.MustExecute(`START FEED F;`).Feeds()[0]
			deadline := time.Now().Add(30 * time.Second)
			for stored := 0; stored < 50; stored, _ = c.DatasetLen("Events") {
				if time.Now().After(deadline) {
					t.Fatal("feed never reached 50 stored records")
				}
				time.Sleep(time.Millisecond)
			}
			c.KillNode(1)
			var out feedOutcome
			for {
				out.waitErr = feed.Wait()
				out.stats, _ = feed.Stats()
				if out.waitErr == nil || (!expectRestart && errors.Is(out.waitErr, ErrPartitionDown)) {
					return out
				}
				if time.Now().After(deadline) {
					t.Fatalf("feed never settled after the kill: %v", out.waitErr)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	knobs := []struct {
		key    string
		a, b   scenario // the same scenario under two values of the key
		differ func(t *testing.T, a, b feedOutcome)
	}{
		{"batch-size",
			toEnd(plain, 0, 400, `"batch-size": 25`),
			toEnd(plain, 0, 400, `"batch-size": 400`),
			func(t *testing.T, a, b feedOutcome) {
				if a.stats.Invocations <= b.stats.Invocations {
					t.Errorf("batches of 25 took %d invocations, batches of 400 took %d", a.stats.Invocations, b.stats.Invocations)
				}
			}},
		{"congestion-policy",
			toEnd(congested, 30*time.Microsecond, 1200, `"batch-size": 32, "congestion-policy": "shed"`),
			toEnd(congested, 30*time.Microsecond, 1200, `"batch-size": 32, "congestion-policy": "spill"`),
			func(t *testing.T, a, b feedOutcome) {
				if a.stats.ShedRecords == 0 || a.stats.SpilledRecords != 0 {
					t.Errorf("shed: shed=%d spilled=%d", a.stats.ShedRecords, a.stats.SpilledRecords)
				}
				if b.stats.SpilledRecords == 0 || b.stats.ShedRecords != 0 || b.stats.Stored != 1200 {
					t.Errorf("spill: spilled=%d shed=%d stored=%d", b.stats.SpilledRecords, b.stats.ShedRecords, b.stats.Stored)
				}
			}},
		{"sample-rate",
			toEnd(congested, 30*time.Microsecond, 1200, `"batch-size": 32, "congestion-policy": "sample", "sample-rate": 0.05`),
			toEnd(congested, 30*time.Microsecond, 1200, `"batch-size": 32, "congestion-policy": "sample", "sample-rate": 1.0`),
			func(t *testing.T, a, b feedOutcome) {
				if a.stats.SampledRecords == 0 || a.stats.Stored+a.stats.SampledRecords != 1200 {
					t.Errorf("rate 0.05: stored=%d sampled=%d of 1200", a.stats.Stored, a.stats.SampledRecords)
				}
				if b.stats.SampledRecords != 0 || b.stats.Stored != 1200 {
					t.Errorf("rate 1.0 keeps everything: stored=%d sampled=%d", b.stats.Stored, b.stats.SampledRecords)
				}
			}},
		{"checkpoint-every",
			midStream(`"batch-size": 20, "checkpoint-every": 1`, 200, true),
			midStream(`"batch-size": 20, "checkpoint-every": 1000`, 200, false),
			func(t *testing.T, a, b feedOutcome) {
				// Ten batches in: a checkpoint per batch has reached the
				// end of the stream, one per 1000 batches has not begun.
				if a.stats.LastCheckpoint != 200 || b.stats.LastCheckpoint != 0 {
					t.Errorf("mid-stream checkpoint: every batch → %d (want 200), every 1000 batches → %d (want 0)",
						a.stats.LastCheckpoint, b.stats.LastCheckpoint)
				}
			}},
		{"max-spilled-frames",
			toEnd(congested, time.Millisecond, 300, `"batch-size": 16, "max-spilled-frames": 2`),
			toEnd(congested, time.Millisecond, 300, `"batch-size": 16, "max-spilled-frames": 4096`),
			func(t *testing.T, a, b feedOutcome) {
				if !errors.Is(a.waitErr, ErrFeedOverloaded) {
					t.Errorf("two-frame spill lane: Wait = %v, want ErrFeedOverloaded", a.waitErr)
				}
				if b.waitErr != nil || b.stats.Stored != 300 {
					t.Errorf("4096-frame spill lane: Wait = %v, stored %d of 300", b.waitErr, b.stats.Stored)
				}
			}},
		{"failover",
			killed(`"batch-size": 64, "failover": false`, 600, false),
			killed(`"batch-size": 64, "failover": true`, 600, true),
			func(t *testing.T, a, b feedOutcome) {
				if !errors.Is(a.waitErr, ErrPartitionDown) || a.stats.Resumptions != 0 {
					t.Errorf("failover off: Wait = %v, resumptions = %d", a.waitErr, a.stats.Resumptions)
				}
				if b.waitErr != nil || b.stats.Resumptions < 1 || b.stats.LastCheckpoint != 600 {
					t.Errorf("failover on: Wait = %v, resumptions = %d, checkpoint = %d", b.waitErr, b.stats.Resumptions, b.stats.LastCheckpoint)
				}
			}},
	}
	for _, k := range knobs {
		t.Run(k.key, func(t *testing.T) { k.differ(t, k.a(t), k.b(t)) })
	}

	t.Run("misspelt key", func(t *testing.T) {
		c := plain(t)
		_, err := c.Execute(context.Background(), `CREATE FEED F WITH { "adapter-name": "channel_adapter", "batch_size": 50 };`)
		if err == nil || !strings.Contains(err.Error(), `"batch_size"`) {
			t.Fatalf("CREATE FEED with a misspelt key = %v, want it refused by name", err)
		}
		// The paper's Figure 4 spelling stays accepted.
		c.MustExecute(`CREATE FEED TweetFeed WITH {
			"type-name": "TweetType", "adapter-name": "socket_adapter", "format": "JSON",
			"sockets": "127.0.0.1:10001", "address-type": "IP"
		};`)
	})
}

// heldOpenSource emits its records and then stays open until the feed
// stops, like a socket with an idle client.
type heldOpenSource struct{ records [][]byte }

func (s *heldOpenSource) Run(ctx context.Context, emit func([]byte) error) error {
	return s.RunFrom(ctx, 0, func(_ uint64, rec []byte) error { return emit(rec) })
}

func (s *heldOpenSource) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	for i := int(from); i < len(s.records); i++ {
		if err := emit(uint64(i)+1, s.records[i]); err != nil {
			return err
		}
	}
	<-ctx.Done()
	return nil
}

// TestDeepRecordNeverReachesTheWAL: a value nested deeper than the
// storage decoder accepts is refused at every entrance — a JSON
// argument, a value built in Go, a SQL++ constructor, a line on a feed —
// before anything is logged, so what was acknowledged is exactly what a
// reopened data directory holds. (The decoder alone used to enforce the
// bound: the write was acknowledged and the next open failed in WAL
// replay.)
func TestDeepRecordNeverReachesTheWAL(t *testing.T) {
	const schema = `
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		CREATE FEED F WITH { "adapter-name": "channel_adapter", "batch-size": 2 };
		CONNECT FEED F TO DATASET D;`
	// line is record id with a scalar inside n arrays inside the record.
	line := func(id, n int) []byte {
		return []byte(fmt.Sprintf(`{"id":%d,"v":%s7%s}`, id, strings.Repeat("[", n), strings.Repeat("]", n)))
	}
	const deepest = adm.MaxDepth - 1 // arrays that still fit inside the record object
	dir := t.TempDir()
	open := func() *Cluster {
		t.Helper()
		c, err := NewCluster(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(context.Background(), schema); err != nil {
			c.Close()
			t.Fatalf("script on an existing data directory: %v", err)
		}
		return c
	}
	c := open()
	ctx := context.Background()
	acked := map[int64]bool{}
	upsert := func(id int64, stmt string, args ...any) {
		t.Helper()
		if _, err := c.Execute(ctx, stmt, args...); err == nil {
			acked[id] = true
		}
	}
	built := Arr(7)
	for i := 0; i < deepest+1; i++ {
		built = Arr(built)
	}
	upsert(1, `UPSERT INTO D ($1);`, line(1, deepest))
	upsert(2, `UPSERT INTO D ($1);`, line(2, deepest+1))
	upsert(3, `UPSERT INTO D ($1);`, Obj("id", 3, "v", built))
	upsert(4, `UPSERT INTO D ([`+string(line(4, deepest+1))+`]);`)
	upsert(5, `UPSERT INTO D ([{"id": 5}]);`)
	if !acked[1] || acked[2] || acked[3] || acked[4] || !acked[5] {
		t.Fatalf("acknowledged upserts %v, want exactly ids 1 and 5", acked)
	}

	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &RecordsSource{Records: [][]byte{line(10, 3), line(11, 300), line(12, deepest), line(13, deepest+1), line(14, 0)}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feed := c.MustExecute(`START FEED F;`).Feeds()[0]
	if err := feed.Wait(); err != nil {
		t.Fatalf("feed died of a deep line: %v", err)
	}
	if st, _ := feed.Stats(); st.ParseErrors != 2 || st.Stored != 3 {
		t.Fatalf("feed stored %d records with %d parse errors, want 3 and 2", st.Stored, st.ParseErrors)
	}
	acked[10], acked[12], acked[14] = true, true, true
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = open()
	defer c.Close()
	rows, err := c.Query(ctx, `SELECT VALUE d.id FROM D d;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := map[int64]bool{}
	for rows.Next() {
		got[rows.Value().Int()] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 14; id++ {
		if got[id] != acked[id] {
			t.Errorf("id %d: stored %v, acknowledged %v", id, got[id], acked[id])
		}
	}
}

// TestDatasetLenReturnsRunReadFault: counting a dataset whose runs cannot
// be read returns the read fault, as a point read does, never a short
// count with a nil error.
func TestDatasetLenReturnsRunReadFault(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.MustExecute(`CREATE TYPE T AS OPEN { id: int64 }; CREATE DATASET D(T) PRIMARY KEY id;`)
	ds, _ := c.inner.Dataset("D")
	const n = 300
	for i := 0; i < n; i++ {
		if err := ds.Upsert(adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(int64(i))))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.NumPartitions(); i++ {
		p := ds.Partition(i)
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.DatasetLen("D"); got != n || err != nil {
		t.Fatalf("DatasetLen = %d, %v; want %d", got, err, n)
	}
	c.inner.Tuning().StorageFS.(*lsm.MemFS).FailReads(true)
	if _, _, err := ds.Partition(0).Get(adm.Int(7)); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("Get under a read fault: %v, want the injected fault", err)
	}
	if got, err := c.DatasetLen("D"); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("DatasetLen under a read fault = %d, %v; want the injected fault", got, err)
	}
}
