package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
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
