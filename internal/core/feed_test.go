package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/udf"
	"github.com/ideadb/idea/internal/workload"
)

// testCluster builds a cluster with the full (tiny) paper workload
// installed.
func testCluster(t *testing.T, nodes int) (*cluster.Cluster, *workload.Generator) {
	t.Helper()
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0 // keep unit tests fast
	tuning.InvokeOverheadPerNode = 0
	c, err := cluster.New(nodes, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	g, err := workload.Setup(c, 42, workload.Scaled(0.002))
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func generatorConfig(name string, g *workload.Generator, n int) Config {
	tweets := g.Tweets(0, n)
	return Config{
		Name:      name,
		Dataset:   "Tweets",
		BatchSize: 64,
		NewAdapter: func(int) (Adapter, error) {
			return &GeneratorAdapter{Records: tweets}, nil
		},
	}
}

// copyFields returns a new object holding rec's fields but drop.
func copyFields(rec adm.Value, drop string) *adm.Object {
	in := rec.ObjectVal()
	out := adm.NewObject(in.Len() + 1)
	for i := 0; i < in.Len(); i++ {
		if in.Name(i) != drop {
			out.Set(in.Name(i), in.At(i))
		}
	}
	return out
}

// liveLen counts ds's live records and fails the test on a read fault.
func liveLen(t testing.TB, ds *lsm.Dataset) int {
	t.Helper()
	n, err := ds.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFeedBasicIngestion(t *testing.T) {
	c, g := testCluster(t, 3)
	const n = 1000
	f, err := Start(context.Background(), c, generatorConfig("basic", g, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Stored != n {
		t.Errorf("stored %d, want %d", st.Stored, n)
	}
	if st.Ingested != n {
		t.Errorf("ingested %d, want %d", st.Ingested, n)
	}
	if st.Invocations < int64(n)/64 {
		t.Errorf("suspiciously few invocations: %d", st.Invocations)
	}
	ds, _ := c.Dataset("Tweets")
	if liveLen(t, ds) != n {
		t.Errorf("dataset holds %d, want %d", liveLen(t, ds), n)
	}
	// Records are properly typed (created_at coerced to datetime).
	rec, ok := ds.Get(adm.Int(0))
	if !ok {
		t.Fatal("tweet 0 missing")
	}
	if rec.Field("created_at").Kind() != adm.KindDateTime {
		t.Errorf("created_at kind = %v", rec.Field("created_at").Kind())
	}
}

func TestFeedWithSQLPPUDF(t *testing.T) {
	c, g := testCluster(t, 3)
	const n = 300
	cfg := generatorConfig("q1feed", g, n)
	cfg.Dataset = "EnrichedTweets"
	cfg.Function = "enrichTweetQ1"
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("EnrichedTweets")
	if liveLen(t, ds) != n {
		t.Fatalf("enriched %d, want %d", liveLen(t, ds), n)
	}
	// Every stored tweet carries the enrichment field with a real rating.
	checked := 0
	sc := ds.Scan()
	for _, rec, ok := sc.Next(); ok; _, rec, ok = sc.Next() {
		ratings := rec.Field("safety_rating")
		if ratings.Kind() != adm.KindArray {
			t.Fatalf("missing safety_rating on %v", rec.Field("id"))
		}
		if len(ratings.ArrayVal()) != 1 {
			t.Fatalf("tweet country should match exactly one rating, got %d", len(ratings.ArrayVal()))
		}
		checked++
	}
	if checked != n {
		t.Errorf("checked %d", checked)
	}
}

func TestFeedWithNativeUDF(t *testing.T) {
	c, g := testCluster(t, 2)
	reg := udf.NewRegistry()
	initCount := 0
	if err := reg.Register(&udf.Native{
		Name: "flagger",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				InitFn: func(int) error { initCount++; return nil },
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					out := copyFields(rec, "")
					out.Set("flag", adm.String("seen"))
					return adm.ObjectValue(out), nil
				},
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	cfg := generatorConfig("nativefeed", g, n)
	cfg.Dataset = "EnrichedTweets"
	cfg.Function = "flagger"
	cfg.Natives = reg
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("EnrichedTweets")
	if liveLen(t, ds) != n {
		t.Fatalf("stored %d", liveLen(t, ds))
	}
	sc := ds.Scan()
	for _, rec, ok := sc.Next(); ok; _, rec, ok = sc.Next() {
		if rec.Field("flag").StringVal() != "seen" {
			t.Fatal("native UDF did not run")
		}
	}
	// Dynamic framework re-initializes per invocation per node.
	wantMin := int(f.Stats().Invocations) * 2
	if initCount < wantMin {
		t.Errorf("initialized %d times, want >= %d (per batch per node)", initCount, wantMin)
	}
}

func TestFeedObservesReferenceUpdatesBetweenBatches(t *testing.T) {
	c, g := testCluster(t, 2)
	_ = g
	// Slow channel feed so we control batch boundaries.
	ch := make(chan []byte)
	cfg := Config{
		Name:      "updates",
		Dataset:   "EnrichedTweets",
		Function:  "enrichTweetQ1",
		BatchSize: 2,
		NewAdapter: func(int) (Adapter, error) {
			return &ChannelAdapter{C: ch}, nil
		},
	}
	// Small frames so single records flow immediately.
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkTweet := func(id int) []byte {
		return []byte(fmt.Sprintf(`{"id":%d,"text":"x","country":"C000000"}`, id))
	}
	ratingOf := func(id int) string {
		ds, _ := c.Dataset("EnrichedTweets")
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if rec, ok := ds.Get(adm.Int(int64(id))); ok {
				return rec.Field("safety_rating").Index(0).StringVal()
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("tweet %d never stored", id)
		return ""
	}
	// Frame capacity is 128; the channel adapter only flushes frames when
	// full or at close, so push enough records per phase to force frames
	// through. Use distinct id ranges per phase.
	push := func(base, count int) {
		for i := 0; i < count; i++ {
			ch <- mkTweet(base + i)
		}
	}
	sr, _ := c.Dataset("SafetyRatings")
	orig, _ := sr.Get(adm.String("C000000"))
	origRating := orig.Field("safety_rating").StringVal()

	push(0, 300)
	if got := ratingOf(0); got != origRating {
		t.Fatalf("initial rating = %s, want %s", got, origRating)
	}
	// Update the reference data mid-feed (UPSERT, like the paper).
	upd := adm.ObjectValue(adm.ObjectFromPairs(
		"country_code", adm.String("C000000"),
		"safety_rating", adm.String("UPDATED"),
	))
	if err := sr.Upsert(upd); err != nil {
		t.Fatal(err)
	}
	// Frames hold 128 records, so the tail of each push phase only
	// flushes on close; probe an id from a frame that is guaranteed
	// flushed (ids 1000..1211 land in the 4th frame) and far enough into
	// phase 2 that its enriching batch prepared after the upsert.
	push(1000, 300)
	if got := ratingOf(1100); got != "UPDATED" {
		t.Errorf("post-update rating = %s, want UPDATED (batch-refresh semantics)", got)
	}
	close(ch)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticFeedIngestion: the static pipeline stores every well-formed
// line and reports what it took in — admitted lines as Ingested, the
// rest as ParseErrors — through StaticFeed.Stats.
func TestStaticFeedIngestion(t *testing.T) {
	const n = 500
	for _, bad := range []int{0, 3} {
		t.Run(fmt.Sprintf("malformed=%d", bad), func(t *testing.T) {
			c, g := testCluster(t, 3)
			// The malformed lines sit among the tweets, so the counts
			// cross the frames the adapter-parser reports them by.
			lines := g.Tweets(0, n)
			for i := range bad {
				at := (i + 1) * n / (bad + 1)
				lines = slices.Insert(lines, at, []byte(`{"id":`))
			}
			cfg := Config{
				Name:    "static",
				Dataset: "Tweets",
				NewAdapter: func(int) (Adapter, error) {
					return &GeneratorAdapter{Records: lines}, nil
				},
			}
			sf, err := StartStatic(context.Background(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sf.Wait(); err != nil {
				t.Fatal(err)
			}
			st := sf.Stats()
			if st.Name != "static" || st.Ingested != n || st.Stored != n || st.ParseErrors != int64(bad) {
				t.Errorf("%s: ingested %d, stored %d, parse errors %d; want %d, %d and %d",
					st.Name, st.Ingested, st.Stored, st.ParseErrors, n, n, bad)
			}
		})
	}
}

// TestStaticFeedStopsWithItsContext: a static feed over an adapter that
// never ends stops only when the context StartStatic was given is
// canceled, and Wait then returns the cancellation promptly.
func TestStaticFeedStopsWithItsContext(t *testing.T) {
	c, g := testCluster(t, 2)
	cfg := generatorConfig("static-forever", g, 0)
	cfg.NewAdapter = func(int) (Adapter, error) { return &ChannelAdapter{C: make(chan []byte)}, nil }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sf, err := StartStatic(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sf.Wait() }()
	select {
	case err := <-done:
		t.Fatalf("Wait returned %v before the context was canceled", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the context was canceled")
	}
}

func TestStaticFeedRejectsStatefulSQLPP(t *testing.T) {
	c, g := testCluster(t, 2)
	cfg := generatorConfig("staticq1", g, 10)
	cfg.Dataset = "EnrichedTweets"
	cfg.Function = "enrichTweetQ1" // stateful: touches SafetyRatings
	_, err := StartStatic(context.Background(), c, cfg)
	if !errors.Is(err, ErrStatefulUDF) {
		t.Fatalf("err = %v, want ErrStatefulUDF", err)
	}
	// The stateless UDF 1 is fine.
	cfg2 := generatorConfig("staticudf1", g, 50)
	cfg2.Dataset = "EnrichedTweets"
	cfg2.Function = "USTweetSafetyCheck"
	sf, err := StartStatic(context.Background(), c, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("EnrichedTweets")
	found := 0
	sc := ds.Scan()
	for _, rec, ok := sc.Next(); ok; _, rec, ok = sc.Next() {
		if rec.Field("safety_check_flag").Kind() == adm.KindString {
			found++
		}
	}
	if found != 50 {
		t.Errorf("flagged %d of 50", found)
	}
}

func TestStaticNativeUDFStateIsStale(t *testing.T) {
	// The paper's old-framework limitation: a native UDF's resources are
	// loaded once, so updates are NOT observed.
	c, _ := testCluster(t, 2)
	resources := udf.NewResourceStore()
	resources.Put("keywords", []byte("red\n"))
	reg := udf.NewRegistry()
	err := reg.Register(&udf.Native{
		Name: "keyworder",
		New: func() udf.Instance {
			var words []string
			return &udf.FuncInstance{
				InitFn: func(int) error {
					words, _ = resources.Lines("keywords")
					return nil
				},
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					out := copyFields(rec, "")
					out.Set("kw", adm.String(fmt.Sprintf("%v", words)))
					return adm.ObjectValue(out), nil
				},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan []byte)
	cfg := Config{
		Name:     "stalestatic",
		Dataset:  "EnrichedTweets",
		Function: "keyworder",
		Natives:  reg,
		NewAdapter: func(int) (Adapter, error) {
			return &ChannelAdapter{C: ch}, nil
		},
	}
	sf, err := StartStatic(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 200; i++ {
			ch <- []byte(fmt.Sprintf(`{"id":%d,"text":"x"}`, i))
		}
		// Update the resource mid-feed; the static pipeline must not see
		// it.
		resources.Put("keywords", []byte("red\nblue\n"))
		for i := 200; i < 400; i++ {
			ch <- []byte(fmt.Sprintf(`{"id":%d,"text":"x"}`, i))
		}
		close(ch)
	}()
	if err := sf.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("EnrichedTweets")
	rec, ok := ds.Get(adm.Int(399))
	if !ok {
		t.Fatal("tweet 399 missing")
	}
	if got := rec.Field("kw").StringVal(); got != "[red]" {
		t.Errorf("static pipeline saw updated resources: %q", got)
	}
}

func TestSocketAdapterFeed(t *testing.T) {
	c, _ := testCluster(t, 2)
	addr := "127.0.0.1:19917"
	cfg := Config{
		Name:    "sock",
		Dataset: "Tweets",
		NewAdapter: func(int) (Adapter, error) {
			return &SocketAdapter{Addr: addr}, nil
		},
	}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	w := bufio.NewWriter(conn)
	const n = 250
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, `{"id":%d,"text":"via socket"}`+"\n", i)
	}
	w.Flush()
	conn.Close()
	// Wait for the first full frame, which proves the connection was
	// accepted, then stop the feed: the last partial frame is stored only
	// then, so the count below pins Stop's drain.
	ds, _ := c.Dataset("Tweets")
	deadline := time.Now().Add(10 * time.Second)
	for liveLen(t, ds) < c.Tuning().FrameCapacity && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	f.Stop()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if liveLen(t, ds) != n {
		t.Errorf("stored %d, want %d", liveLen(t, ds), n)
	}
}

func TestManagerLifecycle(t *testing.T) {
	c, g := testCluster(t, 2)
	m := NewManager(c)
	cfgVal := adm.ObjectValue(adm.ObjectFromPairs(
		"adapter-name", adm.String("channel_adapter"),
		"type-name", adm.String("TweetType"),
	))
	if err := m.CreateFeed("TweetFeed", cfgVal); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateFeed("TweetFeed", cfgVal); err == nil {
		t.Error("duplicate feed should fail")
	}
	tweets := g.Tweets(0, 100)
	if err := m.SetAdapterFactory("TweetFeed", func(int) (Adapter, error) {
		return &GeneratorAdapter{Records: tweets}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartFeed(context.Background(), "TweetFeed"); err == nil {
		t.Error("start before connect should fail")
	}
	if err := m.ConnectFeed("TweetFeed", "Tweets", ""); err != nil {
		t.Fatal(err)
	}
	f, err := m.StartFeed(context.Background(), "TweetFeed")
	if err != nil {
		t.Fatal(err)
	}
	if _, running, _ := m.Lookup("TweetFeed"); !running {
		t.Error("running feed not tracked")
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("Tweets")
	if liveLen(t, ds) != 100 {
		t.Errorf("stored %d", liveLen(t, ds))
	}
}

func TestFeedParseErrorsAreCountedNotFatal(t *testing.T) {
	c, _ := testCluster(t, 2)
	records := [][]byte{
		[]byte(`{"id":1,"text":"good"}`),
		[]byte(`{not json`),
		[]byte(`{"id":2,"text":"good"}`),
		[]byte(`{"text":"missing required id field... but id is required by TweetType"}`),
		[]byte(`{"id":3,"text":"good"}`),
	}
	cfg := Config{
		Name:    "badrecs",
		Dataset: "Tweets",
		NewAdapter: func(int) (Adapter, error) {
			return &GeneratorAdapter{Records: records}, nil
		},
	}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Stored; got != 3 {
		t.Errorf("stored %d, want 3", got)
	}
	if got := f.Stats().ParseErrors; got != 2 {
		t.Errorf("parse errors %d, want 2", got)
	}
}

// TestFeedBalancedIntake: a feed with as many adapters as nodes stores
// every record of the sharded stream. In the uneven arm the adapters end
// far apart — one has nothing to emit, one starts emitting only after
// all the others have returned — so the intake holders must close after
// the last adapter, not the first.
func TestFeedBalancedIntake(t *testing.T) {
	const adapters, n = 4, 800
	run := func(t *testing.T, newAdapter func(i int, all [][]byte) Adapter) {
		c, g := testCluster(t, adapters)
		all := g.Tweets(0, n)
		cfg := Config{
			Name:      "balanced",
			Dataset:   "Tweets",
			Adapters:  adapters,
			BatchSize: 128,
			NewAdapter: func(i int) (Adapter, error) {
				return newAdapter(i, all), nil
			},
		}
		f, err := Start(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		ds, _ := c.Dataset("Tweets")
		if liveLen(t, ds) != n {
			t.Errorf("stored %d, want %d", liveLen(t, ds), n)
		}
	}
	t.Run("even", func(t *testing.T) {
		run(t, func(i int, all [][]byte) Adapter {
			// Shard the stream across the adapters.
			var shard [][]byte
			for j := i; j < n; j += adapters {
				shard = append(shard, all[j])
			}
			return &GeneratorAdapter{Records: shard}
		})
	})
	t.Run("uneven", func(t *testing.T) {
		// Adapter 0 has no records, 1 and 2 a quarter of the stream each,
		// and 3 the last half, which it emits slowly once 0–2 have all
		// returned.
		var others sync.WaitGroup
		others.Add(adapters - 1)
		run(t, func(i int, all [][]byte) Adapter {
			if i == adapters-1 {
				return adapterFunc(func(ctx context.Context, emit func([]byte) error) error {
					others.Wait()
					for j, rec := range all[n/2:] {
						if j%50 == 0 {
							time.Sleep(time.Millisecond)
						}
						if err := emit(rec); err != nil {
							return err
						}
					}
					return nil
				})
			}
			var shard [][]byte
			if i > 0 {
				shard = all[(i-1)*n/4 : i*n/4]
			}
			return adapterFunc(func(ctx context.Context, emit func([]byte) error) error {
				defer others.Done()
				return (&GeneratorAdapter{Records: shard}).Run(ctx, emit)
			})
		})
	})
}
