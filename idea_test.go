package idea

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// queryVals drains a streaming query into a slice for assertion-heavy
// tests.
func queryVals(t *testing.T, c *Cluster, q string, args ...any) []Value {
	t.Helper()
	rows, err := c.Query(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	vals, err := rows.Collect()
	if err != nil {
		t.Fatalf("Collect(%q): %v", q, err)
	}
	return vals
}

// newTestCluster returns a fast 2-node cluster.
func newTestCluster(t *testing.T) *Cluster {
	return newTestClusterN(t, 2)
}

// newTestClusterN returns a fast cluster of the requested size.
func newTestClusterN(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Nodes:                   nodes,
		DispatchOverheadPerNode: 1, // effectively zero but exercises the path
		InvokeOverheadPerNode:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

const paperSchema = `
CREATE TYPE TweetType AS OPEN {
	id : int64,
	text: string
};
CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
CREATE TYPE WordType AS OPEN { id: int64, country: string, word: string };
CREATE DATASET SensitiveWords(WordType) PRIMARY KEY id;
CREATE FUNCTION tweetSafetyCheck(tweet) {
	LET safety_check_flag = CASE
		EXISTS(SELECT s FROM SensitiveWords s
			WHERE tweet.country = s.country AND contains(tweet.text, s.word))
		WHEN true THEN "Red" ELSE "Green" END
	SELECT tweet.*, safety_check_flag
};
INSERT INTO SensitiveWords ([
	{"id": 1, "country": "US", "word": "bomb"},
	{"id": 2, "country": "FR", "word": "attaque"}
]);
`

func TestExecuteDDLAndInsert(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	results, err := c.Execute(ctx, paperSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := results.RowsAffected(); got != 2 {
		t.Errorf("RowsAffected = %d, want 2", got)
	}
	n, err := c.DatasetLen("SensitiveWords")
	if err != nil || n != 2 {
		t.Fatalf("SensitiveWords len = %d, %v", n, err)
	}
	// Duplicate type fails cleanly.
	if _, err := c.Execute(ctx, `CREATE TYPE TweetType AS OPEN { id: int64 };`); err == nil {
		t.Error("duplicate type should fail")
	}
	// INSERT duplicate key fails; UPSERT succeeds.
	if _, err := c.Execute(ctx, `INSERT INTO SensitiveWords ([{"id": 1, "country": "US", "word": "x"}]);`); err == nil {
		t.Error("duplicate INSERT should fail")
	}
	if _, err := c.Execute(ctx, `UPSERT INTO SensitiveWords ([{"id": 1, "country": "US", "word": "blast"}]);`); err != nil {
		t.Errorf("UPSERT failed: %v", err)
	}
	rec, found, err := c.Get("SensitiveWords", Int64(1))
	if err != nil || !found || rec.Field("word").Str() != "blast" {
		t.Errorf("Get after upsert = %v %v %v", rec, found, err)
	}
	// Unknown datasets report the typed error.
	if _, err := c.DatasetLen("NoSuch"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("DatasetLen error = %v, want ErrUnknownDataset", err)
	}
}

func TestQueryWithUDF(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(paperSchema)
	c.MustExecute(`INSERT INTO Tweets ([
		{"id": 1, "text": "a bomb threat", "country": "US"},
		{"id": 2, "text": "nice day", "country": "US"},
		{"id": 3, "text": "a bomb scene", "country": "DE"}
	]);`)
	// The paper's Figure 9 analytical query (Option 1), with the flag
	// bound as a named parameter.
	rows := queryVals(t, c, `
		SELECT tweet.country Country, count(tweet) Num
		FROM Tweets tweet
		LET enrichedTweet = tweetSafetyCheck(tweet)[0]
		WHERE enrichedTweet.safety_check_flag = $flag
		GROUP BY tweet.country`, Named("flag", "Red"))
	if len(rows) != 1 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0].Field("Country").Str() != "US" || rows[0].Field("Num").Int() != 1 {
		t.Errorf("row = %s", rows[0])
	}
	// Query rejects non-SELECT.
	if _, err := c.Query(context.Background(), `CREATE TYPE X AS OPEN { id: int64 };`); err == nil {
		t.Error("Query should reject DDL")
	}
}

func TestEndToEndFeedWithEnrichment(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(paperSchema)
	c.MustExecute(`
		CREATE FEED TweetFeed WITH {
			"adapter-name": "channel_adapter",
			"type-name": "TweetType",
			"batch-size": 50
		};
		CONNECT FEED TweetFeed TO DATASET EnrichedTweets APPLY FUNCTION tweetSafetyCheck;
	`)
	var records [][]byte
	for i := 0; i < 500; i++ {
		text := "peaceful message"
		if i%10 == 0 {
			text = "bomb alert"
		}
		records = append(records, []byte(fmt.Sprintf(
			`{"id":%d,"text":"%s","country":"US"}`, i, text)))
	}
	if err := c.SetFeedSource("TweetFeed", func(int) (FeedSource, error) {
		return &RecordsSource{Records: records}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feeds := c.MustExecute(`START FEED TweetFeed;`).Feeds()
	if len(feeds) != 1 {
		t.Fatalf("feeds = %d", len(feeds))
	}
	if err := feeds[0].Wait(); err != nil {
		t.Fatal(err)
	}
	stats, err := feeds[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stored != 500 || stats.Ingested != 500 {
		t.Errorf("stats: ingested=%d stored=%d", stats.Ingested, stats.Stored)
	}
	if stats.Invocations < 5 {
		t.Errorf("invocations = %d", stats.Invocations)
	}
	// Nothing writes the reference data while the feed runs: the
	// enrichment state is built once and reused by every later batch.
	if stats.StateBuilds != 1 || stats.AccessBuilds == 0 || stats.StateReuses != stats.Invocations-1 {
		t.Errorf("state builds=%d (structures %d) reuses=%d over %d invocations; want 1 build, the rest reuses",
			stats.StateBuilds, stats.AccessBuilds, stats.StateReuses, stats.Invocations)
	}
	if !stats.Running {
		t.Error("feed should report running before stop")
	}
	red := queryVals(t, c, `SELECT VALUE count(*) FROM EnrichedTweets e WHERE e.safety_check_flag = "Red"`)
	if red[0].Int() != 50 {
		t.Errorf("red tweets = %d, want 50", red[0].Int())
	}
}

func TestNativeUDFViaPublicAPI(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET Out(T) PRIMARY KEY id;
		CREATE FEED F WITH { "adapter-name": "channel_adapter" };
		CONNECT FEED F TO DATASET Out APPLY FUNCTION marker;
	`)
	c.PutResource("tag", []byte("alpha\n"))
	err := c.RegisterNativeUDF("marker", func() NativeUDF {
		return &markerUDF{c: c}
	})
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]byte, 200)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &RecordsSource{Records: records}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feeds := c.MustExecute(`START FEED F;`).Feeds()
	if err := feeds[0].Wait(); err != nil {
		t.Fatal(err)
	}
	rec, found, _ := c.Get("Out", Int64(7))
	if !found || rec.Field("tag").Str() != "alpha" {
		t.Errorf("native UDF output = %s", rec)
	}
}

type markerUDF struct {
	c   *Cluster
	tag string
}

func (m *markerUDF) Initialize(int) error {
	lines, ok := m.c.Resource("tag")
	if !ok || len(lines) == 0 {
		return fmt.Errorf("tag resource missing")
	}
	m.tag = lines[0]
	return nil
}

func (m *markerUDF) Evaluate(rec Value) (Value, error) {
	return Obj("id", rec.Field("id"), "tag", Str(m.tag)), nil
}

func TestLibraryFunction(t *testing.T) {
	c := newTestCluster(t)
	c.RegisterLibraryFunction("strlib", "shout", func(args []Value) (Value, error) {
		return Str(strings.ToUpper(args[0].Str()) + "!"), nil
	})
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64, name: string };
		CREATE DATASET People(T) PRIMARY KEY id;
		INSERT INTO People ([{"id": 1, "name": "ada"}]);
	`)
	rows := queryVals(t, c, `SELECT VALUE strlib#shout(p.name) FROM People p`)
	if rows[0].Str() != "ADA!" {
		t.Errorf("got %s", rows[0])
	}
}

func TestValueConversions(t *testing.T) {
	v := MustJSON(`{"a": 1, "b": [true, null, 2.5], "c": {"d": "x"}}`)
	if v.Kind() != "object" || v.Len() != 3 {
		t.Errorf("kind/len = %s/%d", v.Kind(), v.Len())
	}
	if v.Field("a").Int() != 1 || v.Field("b").Index(2).Float() != 2.5 {
		t.Error("accessors failed")
	}
	if !v.Field("b").Index(1).IsNull() || !v.Field("zz").IsMissing() {
		t.Error("null/missing detection failed")
	}
	native, ok := v.Native().(map[string]any)
	if !ok || native["c"].(map[string]any)["d"] != "x" {
		t.Errorf("Native = %#v", v.Native())
	}
	round, err := FromJSON(v.JSON())
	if err != nil || round.Field("a").Int() != 1 {
		t.Error("JSON round trip failed")
	}
	// Builders.
	at := time.Date(2019, 8, 23, 0, 0, 0, 0, time.UTC)
	obj := Obj("s", "str", "i", 42, "f", 1.5, "b", true, "t", at, "n", nil,
		"arr", Arr(1, 2), "pt", PointVal(1, 2))
	if obj.Field("i").Int() != 42 || obj.Field("t").Time() != at {
		t.Errorf("Obj builder = %s", obj)
	}
	if obj.Field("arr").Len() != 2 || obj.Field("pt").Kind() != "point" {
		t.Errorf("Obj builder = %s", obj)
	}
	if BoolVal(true).Bool() != true || Float64(2.5).Float() != 2.5 {
		t.Error("scalar builders failed")
	}
	elems := Arr("x", "y").Elems()
	if len(elems) != 2 || elems[1].Str() != "y" {
		t.Error("Elems failed")
	}
}

func TestCallFunctionDirectly(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(paperSchema)
	out, err := c.CallFunction("tweetSafetyCheck",
		MustJSON(`{"id": 9, "text": "bomb", "country": "US"}`))
	if err != nil {
		t.Fatal(err)
	}
	if out.Index(0).Field("safety_check_flag").Str() != "Red" {
		t.Errorf("CallFunction = %s", out)
	}
	if _, err := c.CallFunction("nosuch"); err == nil {
		t.Error("unknown function should fail")
	}
}

// slowUDF delays every record, congesting a deliberately tiny intake
// ring so congestion policies engage.
type slowUDF struct{ delay time.Duration }

func (u *slowUDF) Initialize(int) error { return nil }
func (u *slowUDF) Evaluate(rec Value) (Value, error) {
	time.Sleep(u.delay)
	return rec, nil
}

// newCongestedCluster returns a cluster whose intake rings hold only two
// frames, so a slow consumer congests them immediately.
func newCongestedCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Nodes:                   nodes,
		DispatchOverheadPerNode: 1,
		InvokeOverheadPerNode:   1,
		HolderCapacity:          2,
		FrameCapacity:           8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFeedCongestionPoliciesViaPublicAPI(t *testing.T) {
	const n = 1200
	for _, policy := range []string{"spill", "shed"} {
		t.Run(policy, func(t *testing.T) {
			c := newCongestedCluster(t, 2)
			c.MustExecute(fmt.Sprintf(`
				CREATE TYPE ET AS OPEN { id: int64 };
				CREATE DATASET Events(ET) PRIMARY KEY id;
				CREATE FEED EventFeed WITH {
					"adapter-name": "channel_adapter",
					"batch-size": 32,
					"congestion-policy": %q,
					"checkpoint-every": 1
				};
				CONNECT FEED EventFeed TO DATASET Events APPLY FUNCTION slow;
			`, policy))
			if err := c.RegisterNativeUDF("slow", func() NativeUDF {
				return &slowUDF{delay: 30 * time.Microsecond}
			}); err != nil {
				t.Fatal(err)
			}
			records := make([][]byte, n)
			for i := range records {
				records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
			}
			if err := c.SetFeedSource("EventFeed", func(int) (FeedSource, error) {
				return &RecordsSource{Records: records}, nil
			}); err != nil {
				t.Fatal(err)
			}
			feed := c.MustExecute(`START FEED EventFeed;`).Feeds()[0]
			if err := feed.Wait(); err != nil {
				t.Fatal(err)
			}
			stats, err := feed.Stats()
			if err != nil {
				t.Fatal(err)
			}
			stored, _ := c.DatasetLen("Events")
			switch policy {
			case "spill":
				// Loss-free: everything lands despite congestion.
				if stats.Stored != n || stored != n {
					t.Errorf("spill: stored=%d dataset=%d, want %d", stats.Stored, stored, n)
				}
				if stats.SpilledFrames == 0 || stats.SpilledRecords == 0 {
					t.Errorf("spill: no spill activity (frames=%d records=%d)",
						stats.SpilledFrames, stats.SpilledRecords)
				}
				if stats.ShedFrames != 0 || stats.SampledFrames != 0 {
					t.Errorf("spill policy dropped data: shed=%d sampled=%d",
						stats.ShedFrames, stats.SampledFrames)
				}
			case "shed":
				// Exact loss accounting: kept + dropped covers the stream.
				if stats.Stored+stats.ShedRecords != n {
					t.Errorf("shed: stored=%d + shed=%d != %d",
						stats.Stored, stats.ShedRecords, n)
				}
				if stats.ShedRecords == 0 {
					t.Error("shed: congestion never engaged; tighten the test")
				}
			}
			// The final checkpoint acknowledges the whole source range —
			// shed frames included (dropping is a delivery decision).
			if stats.LastCheckpoint != n {
				t.Errorf("LastCheckpoint = %d, want %d", stats.LastCheckpoint, n)
			}
			if stats.BufferedFrames != 0 || stats.SpillBacklog != 0 {
				t.Errorf("drained feed still buffering: frames=%d backlog=%d",
					stats.BufferedFrames, stats.SpillBacklog)
			}
		})
	}
}

func TestFeedOverloadedViaPublicAPI(t *testing.T) {
	c := newCongestedCluster(t, 1)
	c.MustExecute(`
		CREATE TYPE ET AS OPEN { id: int64 };
		CREATE DATASET Events(ET) PRIMARY KEY id;
		CREATE FEED EventFeed WITH {
			"adapter-name": "channel_adapter",
			"batch-size": 16,
			"congestion-policy": "spill",
			"max-spilled-frames": 2
		};
		CONNECT FEED EventFeed TO DATASET Events APPLY FUNCTION slow;
	`)
	if err := c.RegisterNativeUDF("slow", func() NativeUDF {
		return &slowUDF{delay: 2 * time.Millisecond}
	}); err != nil {
		t.Fatal(err)
	}
	records := make([][]byte, 800)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	if err := c.SetFeedSource("EventFeed", func(int) (FeedSource, error) {
		return &RecordsSource{Records: records}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feed := c.MustExecute(`START FEED EventFeed;`).Feeds()[0]
	if err := feed.Wait(); !errors.Is(err, ErrFeedOverloaded) {
		t.Fatalf("Wait = %v, want ErrFeedOverloaded", err)
	}
}

// pacedSource is a resumable source that emits on a fixed cadence so a
// mid-stream KillNode reliably lands while ingestion is in flight.
type pacedSource struct {
	records [][]byte
	delay   time.Duration
}

func (s *pacedSource) Run(ctx context.Context, emit func([]byte) error) error {
	return s.RunFrom(ctx, 0, func(_ uint64, rec []byte) error { return emit(rec) })
}

func (s *pacedSource) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	for i := int(from); i < len(s.records); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(s.delay)
		if err := emit(uint64(i+1), s.records[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestKillNodeFailoverViaPublicAPI(t *testing.T) {
	const n = 1500
	c := newTestClusterN(t, 3)
	c.MustExecute(`
		CREATE TYPE ET AS OPEN { id: int64 };
		CREATE DATASET Events(ET) PRIMARY KEY id;
		CREATE FEED EventFeed WITH {
			"adapter-name": "channel_adapter",
			"batch-size": 64,
			"checkpoint-every": 1
		};
		CONNECT FEED EventFeed TO DATASET Events;
	`)
	records := make([][]byte, n)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	if err := c.SetFeedSource("EventFeed", func(int) (FeedSource, error) {
		return &pacedSource{records: records, delay: 100 * time.Microsecond}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feed := c.MustExecute(`START FEED EventFeed;`).Feeds()[0]

	// Kill a node once ingestion is demonstrably under way.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got, _ := c.DatasetLen("Events"); got >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed never reached 100 stored records")
		}
		time.Sleep(time.Millisecond)
	}
	c.KillNode(2)
	if c.NodeAlive(2) {
		t.Fatal("killed node reports alive")
	}

	// The doomed pipeline's Wait surfaces ErrPartitionDown; the manager
	// restarts on survivors, so by-name Wait eventually resolves the
	// successor and returns nil. ErrFeedNotRunning covers the brief
	// re-registration window mid-failover.
	for {
		err := feed.Wait()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPartitionDown) && !errors.Is(err, ErrFeedNotRunning) {
			t.Fatalf("Wait = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed never finished after failover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// At-least-once + idempotent upserts: the survivors replay from the
	// checkpoint and the dataset converges on exactly the source stream.
	for {
		if got, _ := c.DatasetLen("Events"); got == n {
			break
		}
		if time.Now().After(deadline) {
			got, _ := c.DatasetLen("Events")
			t.Fatalf("dataset len = %d, want %d", got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats, err := feed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumptions < 1 {
		t.Errorf("Resumptions = %d, want >= 1", stats.Resumptions)
	}
	if stats.LastCheckpoint != n {
		t.Errorf("LastCheckpoint = %d, want %d", stats.LastCheckpoint, n)
	}
}

func TestStopFeedViaExecute(t *testing.T) {
	c := newTestCluster(t)
	c.MustExecute(`
		CREATE TYPE T AS OPEN { id: int64 };
		CREATE DATASET D(T) PRIMARY KEY id;
		CREATE FEED F WITH { "adapter-name": "channel_adapter" };
		CONNECT FEED F TO DATASET D;
	`)
	ch := make(chan []byte, 16)
	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &ChannelSource{C: ch}, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.MustExecute(`START FEED F;`)
	for i := 0; i < 200; i++ {
		ch <- []byte(fmt.Sprintf(`{"id":%d}`, i))
	}
	// Wait for some arrivals before stopping.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n, _ := c.DatasetLen("D"); n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Execute(context.Background(), `STOP FEED F;`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), `STOP FEED F;`); err == nil {
		t.Error("stopping a stopped feed should fail")
	}
}
