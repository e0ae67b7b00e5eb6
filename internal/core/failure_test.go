package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
	"github.com/ideadb/idea/internal/udf"
)

// parseDDL parses one CREATE FUNCTION statement into a catalog function.
func parseDDL(src string) (*query.Function, error) {
	stmts, err := sqlpp.Parse(src)
	if err != nil {
		return nil, err
	}
	cf := stmts[0].(*sqlpp.CreateFunction)
	return &query.Function{Name: cf.Name, Params: cf.Params, Body: cf.Body}, nil
}

// TestFeedStartValidation: bad configurations fail fast, before any job
// runs.
func TestFeedStartValidation(t *testing.T) {
	c, g := testCluster(t, 2)
	base := generatorConfig("v", g, 10)

	cfg := base
	cfg.Dataset = "NoSuchDataset"
	if _, err := Start(context.Background(), c, cfg); err == nil {
		t.Error("unknown dataset should fail")
	}
	cfg = base
	cfg.Function = "noSuchFunction"
	if _, err := Start(context.Background(), c, cfg); err == nil {
		t.Error("unknown function should fail")
	}
	cfg = base
	cfg.NewAdapter = nil
	if _, err := Start(context.Background(), c, cfg); err == nil {
		t.Error("missing adapter should fail")
	}
	// Same for the static pipeline.
	cfg = base
	cfg.Dataset = "NoSuchDataset"
	if _, err := StartStatic(context.Background(), c, cfg); err == nil {
		t.Error("static: unknown dataset should fail")
	}
}

// TestFeedNativeUDFEvaluateError: a UDF that fails mid-stream must fail
// the feed cleanly — Wait returns the error and nothing deadlocks.
func TestFeedNativeUDFEvaluateError(t *testing.T) {
	c, g := testCluster(t, 2)
	boom := errors.New("enrichment exploded")
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "bomb",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					if rec.Field("id").IntVal() == 150 {
						return adm.Value{}, boom
					}
					return rec, nil
				},
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := generatorConfig("boomfeed", g, 400)
	cfg.Function = "bomb"
	cfg.Natives = reg
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, boom) {
			t.Errorf("Wait = %v, want the UDF error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("failing feed deadlocked")
	}
}

// TestFeedNativeUDFInitializeError: a failing Initialize surfaces from
// the AFM without hanging.
func TestFeedNativeUDFInitializeError(t *testing.T) {
	c, g := testCluster(t, 2)
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "badinit",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				InitFn: func(int) error { return errors.New("resource file missing") },
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := generatorConfig("badinit", g, 100)
	cfg.Function = "badinit"
	cfg.Natives = reg
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "resource file missing") {
			t.Errorf("Wait = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("init-failing feed deadlocked")
	}
}

// TestFeedAdapterError: an adapter that dies mid-stream fails the intake
// job and the feed reports it.
func TestFeedAdapterError(t *testing.T) {
	c, _ := testCluster(t, 2)
	cfg := Config{
		Name:    "deadadapter",
		Dataset: "Tweets",
		NewAdapter: func(int) (Adapter, error) {
			return adapterFunc(func(ctx context.Context, emit func([]byte) error) error {
				for i := 0; i < 50; i++ {
					if err := emit([]byte(fmt.Sprintf(`{"id":%d}`, i))); err != nil {
						return err
					}
				}
				return errors.New("socket reset by peer")
			}), nil
		},
	}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "socket reset") {
			t.Errorf("Wait = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("adapter failure deadlocked the feed")
	}
}

type adapterFunc func(ctx context.Context, emit func([]byte) error) error

func (f adapterFunc) Run(ctx context.Context, emit func([]byte) error) error {
	return f(ctx, emit)
}

// TestFeedContextCancellation: canceling the parent context tears the
// whole pipeline down.
func TestFeedContextCancellation(t *testing.T) {
	c, _ := testCluster(t, 2)
	ch := make(chan []byte) // never closed: feed would run forever
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Name:    "cancelme",
		Dataset: "Tweets",
		NewAdapter: func(int) (Adapter, error) {
			return &ChannelAdapter{C: ch}, nil
		},
	}
	f, err := Start(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
		// Error content is context-dependent; termination is the point.
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the feed")
	}
}

// TestFeedSQLPPRuntimeError: a SQL++ UDF hitting a runtime error (here:
// unknown library function at evaluation time) fails the batch and the
// feed.
func TestFeedSQLPPRuntimeError(t *testing.T) {
	c, g := testCluster(t, 2)
	_ = g
	// Register a function whose body calls a library function that is
	// never registered. Compile succeeds; evaluation fails.
	ddl := `CREATE FUNCTION brokenEnrich(t) {
		LET x = nolib#nothere(t.text)
		SELECT t.*, x
	};`
	stmts, err := parseDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFunction(stmts); err != nil {
		t.Fatal(err)
	}
	cfg := generatorConfig("brokenfeed", g, 100)
	cfg.Dataset = "EnrichedTweets"
	cfg.Function = "brokenEnrich"
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "nolib#nothere") {
			t.Errorf("Wait = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("broken SQL++ feed deadlocked")
	}
}

// TestFeedDuplicateName: starting two feeds with the same name collides
// on holder registration.
func TestFeedDuplicateName(t *testing.T) {
	c, g := testCluster(t, 2)
	ch := make(chan []byte)
	cfg := Config{
		Name:    "dup",
		Dataset: "Tweets",
		NewAdapter: func(int) (Adapter, error) {
			return &ChannelAdapter{C: ch}, nil
		},
	}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(context.Background(), c, cfg); err == nil {
		t.Error("duplicate feed name should fail")
	}
	close(ch)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = g
}

// TestFeedStorageFailureDoesNotHang: a UDF whose output lacks the
// primary key kills the storage job; the watchdog must tear the feed
// down instead of letting the AFM block on dead storage holders.
func TestFeedStorageFailureDoesNotHang(t *testing.T) {
	c, g := testCluster(t, 2)
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "dropkey",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					// Strip the primary key — the storage writer will
					// reject this downstream.
					return adm.ObjectValue(copyFields(rec, "id")), nil
				},
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := generatorConfig("dropkey", g, 500)
	cfg.Dataset = "EnrichedTweets"
	cfg.Function = "dropkey"
	cfg.Natives = reg
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "primary key") {
			t.Errorf("Wait = %v, want primary-key error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("storage failure hung the feed")
	}
}

// faultAdapter is a resumable source that waits for release, emits its
// records from their offset on, and then returns fail — or, with none,
// waits for its context like a live source with nothing more to say.
type faultAdapter struct {
	records [][]byte
	release <-chan struct{}
	fail    error
}

func (a *faultAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	return a.RunFrom(ctx, 0, func(_ uint64, raw []byte) error { return emit(raw) })
}

func (a *faultAdapter) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	select {
	case <-a.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := (&GeneratorAdapter{Records: a.records}).RunFrom(ctx, from, emit); err != nil {
		return err
	}
	if a.fail != nil {
		return a.fail
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestQuietSourceEndsItsInvocation: a source that goes quiet after
// leaving frames on only some nodes still gets its last records
// checkpointed, with no Stop. One record per frame (BatchSize 2 over two
// nodes) and three records: one intake holder gets two frames, the other
// one, so the invocation that takes the last frame finds the other
// node's holder empty, and its collector there must stop waiting once
// the sibling that pulled has finished.
func TestQuietSourceEndsItsInvocation(t *testing.T) {
	c, g := testCluster(t, 2)
	release := make(chan struct{})
	close(release)
	cfg := Config{
		Name:      "quiet",
		Dataset:   "Tweets",
		BatchSize: 2,
		NewAdapter: func(int) (Adapter, error) {
			return &faultAdapter{records: g.Tweets(0, 3), release: release}, nil
		},
	}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Stop()
		if err := f.Wait(); err != nil {
			t.Errorf("Wait = %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := f.Stats()
		if st.Stored == 3 && st.LastCheckpoint == 3 && st.Invocations >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("source quiet for 2 s: stored %d, last checkpoint %d, %d invocations; want 3, 3, >= 2",
				st.Stored, st.LastCheckpoint, st.Invocations)
		}
		time.Sleep(time.Millisecond)
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// dial connects to addr, retrying while the listener comes up.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	for i := 0; ; i++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn
		}
		if i == 200 {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFeedFailsAsOne is the fault matrix of a feed's hard failures. One
// stage fails — the adapter, a native UDF's Evaluate, a SQL++ runtime
// error, a storage write, an fsync — or the parent context is
// cancelled; the failing adapter has no sibling, or one that blocks for
// input in a ChannelAdapter or in a SocketAdapter's Accept. One more
// cell cancels the parent of a socket feed whose client sits idle on an
// open connection. In every cell Wait returns within 5 s with an error
// that wraps the fault and names its stage (a parent's cancel returns
// the parent's cause, not a stage's symptom), every record up to the
// last checkpoint survives a crash and reopen, the feed's goroutines are
// gone, and a feed of the same name starts afterwards.
func TestFeedFailsAsOne(t *testing.T) {
	const n = 200
	errReset := errors.New("socket reset by peer")
	errBoom := errors.New("enrichment exploded")
	natives := udf.NewRegistry()
	if err := natives.Register(&udf.Native{
		Name: "bomb",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					if rec.Field("id").IntVal() == n/2 {
						return adm.Value{}, errBoom
					}
					return rec, nil
				},
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	broken, err := parseDDL(`CREATE FUNCTION brokenEnrich(t) {
		LET x = nolib#nothere(t.v)
		SELECT t.*, x
	};`)
	if err != nil {
		t.Fatal(err)
	}

	type stage struct {
		name string
		// inject arms the fault on the cluster, its filesystem or the
		// feed's config; the adapter and parent faults need none.
		inject func(c *cluster.Cluster, fs *lsm.MemFS, cfg *Config) error
		// prefix is the stage's name as the error leads with it; is and
		// text are what it must wrap or say.
		prefix, text string
		is           error
	}
	stages := []stage{
		{name: "adapter", prefix: "adapter: slot 0: ", is: errReset},
		{name: "native-udf", prefix: "collector-parser: ", is: errBoom,
			inject: func(_ *cluster.Cluster, _ *lsm.MemFS, cfg *Config) error {
				cfg.Function, cfg.Natives = "bomb", natives
				return nil
			}},
		{name: "sqlpp-runtime", prefix: "collector-parser: ", text: "nolib#nothere",
			inject: func(c *cluster.Cluster, _ *lsm.MemFS, cfg *Config) error {
				cfg.Function = "brokenEnrich"
				return c.CreateFunction(broken)
			}},
		{name: "storage-write", prefix: "storage-partition-writer: ", is: lsm.ErrInjected,
			inject: func(_ *cluster.Cluster, fs *lsm.MemFS, _ *Config) error {
				fs.FailWritesAfter(0, 0)
				return nil
			}},
		{name: "fsync", prefix: "storage-partition-writer: ", is: lsm.ErrInjected,
			inject: func(_ *cluster.Cluster, fs *lsm.MemFS, _ *Config) error {
				fs.FailSyncs(true)
				return nil
			}},
		{name: "parent-cancel", is: context.Canceled},
	}

	// cell runs one feed to its failure and checks the outcome. sibling
	// is "", "channel" or "socket"; idle makes slot 0 a SocketAdapter
	// with a client idle on an open connection instead.
	cell := func(t *testing.T, st stage, sibling string, idle bool) {
		fs := lsm.NewMemFS()
		c := durableTestCluster(t, fs, 2)
		release := make(chan struct{})
		var fault error
		if st.name == "adapter" {
			fault = errReset
		}
		addr := freeAddr(t)
		primary := Adapter(&faultAdapter{records: eventRecords(n), release: release, fail: fault})
		if idle {
			primary = &SocketAdapter{Addr: addr}
		}
		cfg := Config{
			Name:    "fails-as-one",
			Dataset: "Events",
			// Backpressure keeps the spill lane's writes off the
			// filesystem whose faults the storage cells inject.
			Congestion: "backpressure",
			BatchSize:  16,
			Adapters:   1,
			NewAdapter: func(i int) (Adapter, error) {
				switch {
				case i == 0:
					return primary, nil
				case sibling == "channel":
					return &ChannelAdapter{C: make(chan []byte)}, nil
				default:
					return &SocketAdapter{Addr: addr}, nil
				}
			},
		}
		if sibling != "" {
			cfg.Adapters = 2
		}
		if st.inject != nil {
			if err := st.inject(c, fs, &cfg); err != nil {
				t.Fatal(err)
			}
		}

		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		f, err := Start(ctx, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sibling == "socket" {
			dial(t, addr).Close() // the sibling is in Accept
		}
		close(release)
		if idle {
			conn := dial(t, addr)
			defer conn.Close()
			for _, rec := range eventRecords(10) {
				fmt.Fprintf(conn, "%s\n", rec)
			}
		}
		if st.name == "parent-cancel" {
			// Cancel once every record is stored and some are
			// checkpointed; the idle socket checkpoints nothing. (Not
			// all need be: the last batch may wait for a collector
			// whose holder got no frame.)
			deadline := time.Now().Add(10 * time.Second)
			for {
				stats := f.Stats()
				if (stats.Stored == n && stats.LastCheckpoint > 0) || (idle && stats.Stored >= 8) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("feed never got its records in: %+v", stats)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
		}
		done := make(chan error, 1)
		go func() { done <- f.Wait() }()
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			cancel()
			t.Fatal("Wait still blocked 5 s after the fault")
		}

		switch {
		case st.prefix == "" && err != st.is:
			t.Errorf("Wait = %v, want exactly %v", err, st.is)
		case err == nil || !strings.HasPrefix(err.Error(), st.prefix):
			t.Errorf("Wait = %v, want an error naming its stage %q", err, st.prefix)
		case st.is != nil && !errors.Is(err, st.is):
			t.Errorf("Wait = %v, want it to wrap %v", err, st.is)
		case !strings.Contains(err.Error(), st.text):
			t.Errorf("Wait = %v, want it to say %q", err, st.text)
		}

		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > base {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Wait, %d before Start:\n%s", now, base, buf[:runtime.Stack(buf, true)])
		}

		again, err := Start(context.Background(), c, Config{
			Name: cfg.Name, Dataset: cfg.Dataset, Congestion: cfg.Congestion,
			NewAdapter: func(int) (Adapter, error) { return &GeneratorAdapter{}, nil },
		})
		if err != nil {
			t.Fatalf("a feed of the same name: %v", err)
		}
		if err := again.Wait(); err != nil {
			t.Fatalf("a feed of the same name: %v", err)
		}

		last := f.Stats().LastCheckpoint
		img := fs.Crash()
		c.Close()
		rc := durableTestCluster(t, img, 2)
		defer rc.Close()
		ds, _ := rc.Dataset("Events")
		if got := ds.Checkpoint(ckptScope(cfg.Name, 0)); got < last {
			t.Errorf("reopened checkpoint %d, below the %d the feed reported", got, last)
		}
		for id := int64(1); id <= int64(last); id++ {
			if rec, ok := ds.Get(adm.Int(id)); !ok || rec.Field("v").IntVal() != id*3 {
				t.Fatalf("id %d is checkpointed (%d) but missing after a reopen", id, last)
			}
		}
	}

	for _, st := range stages {
		for _, sibling := range []string{"", "channel", "socket"} {
			name := st.name
			if sibling != "" {
				name += "/sibling-" + sibling
			}
			t.Run(name, func(t *testing.T) { cell(t, st, sibling, false) })
		}
	}
	t.Run("parent-cancel/idle-socket", func(t *testing.T) { cell(t, stages[len(stages)-1], "", true) })
}
