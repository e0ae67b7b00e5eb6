package cluster

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
)

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	tuning := DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	c, err := New(nodes, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultTuning()); err == nil {
		t.Error("zero nodes should fail")
	}
	c := newTestCluster(t, 3)
	if c.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
	for i := 0; i < 3; i++ {
		if c.Node(i).ID != i || c.Node(i).Holders == nil {
			t.Errorf("node %d malformed", i)
		}
	}
}

func TestCatalogDatatypesAndDatasets(t *testing.T) {
	c := newTestCluster(t, 2)
	dt := adm.MustDatatype("T", true, []adm.FieldDef{{Name: "id", Kind: adm.KindInt64}})
	if err := c.CreateDatatype(dt); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDatatype(dt); err == nil {
		t.Error("duplicate datatype should fail")
	}
	ds, err := c.CreateDataset("D", "T", "id")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Datatype() != dt {
		t.Error("dataset did not resolve its datatype")
	}
	if ds.NumPartitions() != 2 {
		t.Errorf("partitions = %d, want one per node", ds.NumPartitions())
	}
	if _, err := c.CreateDataset("D", "T", "id"); err == nil {
		t.Error("duplicate dataset should fail")
	}
	if _, err := c.CreateDataset("E", "NoSuchType", "id"); err == nil {
		t.Error("unknown datatype should fail")
	}
	// Untyped dataset is allowed.
	if _, err := c.CreateDataset("U", "", "id"); err != nil {
		t.Errorf("untyped dataset: %v", err)
	}
	if _, ok := c.Dataset("D"); !ok {
		t.Error("dataset lookup failed")
	}
	if err := c.DropDataset("D"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Dataset("D"); ok {
		t.Error("dropped dataset still visible")
	}
	if err := c.DropDataset("D"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCatalogIndexes(t *testing.T) {
	c := newTestCluster(t, 2)
	ds, _ := c.CreateDataset("M", "", "id")
	ds.Upsert(adm.ObjectValue(adm.ObjectFromPairs(
		"id", adm.Int(1), "loc", adm.Point(1, 2), "k", adm.String("x"))))
	if err := c.CreateIndex("ix1", "M", "loc", "RTREE"); err != nil {
		t.Fatal(err)
	}
	if ds.RTreeIndexForField("loc") == nil {
		t.Error("rtree index not visible")
	}
	if err := c.CreateIndex("ix2", "M", "k", "BTREE"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("ix3", "M", "k", "HASH"); err == nil {
		t.Error("unknown index kind should fail")
	}
	if err := c.CreateIndex("ix4", "None", "k", "BTREE"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestCatalogFunctionsAndNatives(t *testing.T) {
	c := newTestCluster(t, 1)
	fn := &query.Function{Name: "f", Params: []string{"x"}}
	if err := c.CreateFunction(fn); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFunction(fn); err == nil {
		t.Error("duplicate function should fail")
	}
	if got, ok := c.Function("f"); !ok || got != fn {
		t.Error("function lookup failed")
	}
	c.RegisterNative("lib", "g", func(args []adm.Value) (adm.Value, error) {
		return adm.Int(7), nil
	})
	g, ok := c.Native("lib", "g")
	if !ok {
		t.Fatal("native lookup failed")
	}
	if v, _ := g(nil); v.IntVal() != 7 {
		t.Error("native call failed")
	}
	if _, ok := c.Native("lib", "missing"); ok {
		t.Error("native miss expected")
	}
}

func TestPredeployLifecycle(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Predeploy("job1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Predeploy("job1"); err == nil {
		t.Error("double predeploy should fail")
	}
	spec := hyracks.NewJobSpec()
	spec.AddOperator(&hyracks.Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(int) (hyracks.Source, error) {
			return hyracks.SourceFunc(func(*hyracks.TaskContext, hyracks.Writer) error { return nil }), nil
		},
	})
	job, err := c.InvokePredeployed(context.Background(), "job1", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InvokePredeployed(context.Background(), "nope", spec); err == nil {
		t.Error("invoking unknown predeployed job should fail")
	}
	c.Undeploy("job1")
	if _, err := c.InvokePredeployed(context.Background(), "job1", spec); err == nil {
		t.Error("invoking undeployed job should fail")
	}
}

func TestDispatchOverheadCharged(t *testing.T) {
	tuning := DefaultTuning()
	tuning.DispatchOverheadPerNode = 3 * time.Millisecond
	tuning.InvokeOverheadPerNode = time.Millisecond
	c, err := New(4, tuning)
	if err != nil {
		t.Fatal(err)
	}
	spec := hyracks.NewJobSpec()
	spec.AddOperator(&hyracks.Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(int) (hyracks.Source, error) {
			return hyracks.SourceFunc(func(*hyracks.TaskContext, hyracks.Writer) error { return nil }), nil
		},
	})
	start := time.Now()
	job, err := c.StartJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	if elapsed := time.Since(start); elapsed < 12*time.Millisecond {
		t.Errorf("full dispatch should cost >= 4 nodes * 3ms, took %v", elapsed)
	}
	// Scheduler delay only adds time, so the fastest of five invocations
	// is the one that tells: one charged the full dispatch overhead still
	// takes 12ms or more.
	c.Predeploy("p")
	fastest := time.Duration(math.MaxInt64)
	for range 5 {
		start = time.Now()
		job, _ = c.InvokePredeployed(context.Background(), "p", spec)
		job.Wait()
		fastest = min(fastest, time.Since(start))
	}
	if fastest > 12*time.Millisecond {
		t.Errorf("predeployed invocation should be much cheaper, took %v at the fastest of five", fastest)
	}
}

func TestTuningDefaults(t *testing.T) {
	c, err := New(1, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuning().HolderCapacity <= 0 || c.Tuning().FrameCapacity <= 0 {
		t.Errorf("zero tuning not defaulted: %+v", c.Tuning())
	}
}

// TestStorageStatsDurable checks that a durable cluster wires one
// shared block cache into every partition and aggregates the read-path
// counters across datasets.
func TestStorageStatsDurable(t *testing.T) {
	tuning := DefaultTuning()
	tuning.DataDir = "data"
	tuning.StorageFS = lsm.NewMemFS()
	tuning.Storage.MemBudget = 4 << 10
	c, err := New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.cache == nil {
		t.Fatal("durable cluster did not build a block cache")
	}
	ds, err := c.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		rec := adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(int64(i)), "pad", adm.String("pppppppppppppppppppppppppppppppp")))
		if err := ds.Upsert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.NumPartitions(); i++ {
		ds.Partition(i).Flush()
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	// Two passes: the first fills the cache, the second hits it.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 400; i++ {
			if _, ok := ds.Get(adm.Int(int64(i))); !ok {
				t.Fatalf("key %d lost", i)
			}
		}
		// Probes outside the stored range exercise fences/blooms.
		if _, ok := ds.Get(adm.Int(10_000)); ok {
			t.Fatal("phantom key")
		}
	}
	st := c.StorageStats()
	if st.OpenRunFiles == 0 || st.BlockReads == 0 {
		t.Fatalf("no durable reads recorded: %+v", st)
	}
	if st.BlockCacheHits == 0 || st.BlockCacheEntries == 0 || st.BlockCacheBytes == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
	// The lookups' readers are gone: once a compaction in flight has
	// finished and the collector has run, only the components' own run
	// files are open.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.GC(); c.StorageStats().OpenRunFiles != c.StorageStats().Components; runtime.GC() {
		if time.Now().After(deadline) {
			t.Fatalf("run files outlive their readers: %+v", c.StorageStats())
		}
		time.Sleep(time.Millisecond)
	}
	if st.FenceSkips == 0 {
		t.Fatalf("out-of-range probe did not fence-skip: %+v", st)
	}

	// A negative budget keeps no block resident: every read loads its
	// block again.
	off := DefaultTuning()
	off.DataDir = "data"
	off.StorageFS = lsm.NewMemFS()
	off.BlockCacheBytes = -1
	c2, err := New(1, off)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ds2, err := c2.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.Upsert(adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(1)))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds2.NumPartitions(); i++ {
		ds2.Partition(i).Flush()
		if err := ds2.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, ok := ds2.Get(adm.Int(1)); !ok {
			t.Fatal("key 1 lost")
		}
	}
	if st := c2.StorageStats(); st.BlockReads != 2 || st.BlockCacheHits != 0 || st.BlockCacheEntries != 0 {
		t.Fatalf("two reads of one block under a negative budget: %+v", st)
	}
}

// TestDropDatasetReleasesStorage: DROP shuts the dataset's storage down
// and deletes its files. Every partition's flusher goroutine exits, its
// run files close, and a dataset created under the same name afterwards
// starts empty instead of recovering the dropped rows from disk.
func TestDropDatasetReleasesStorage(t *testing.T) {
	tuning := DefaultTuning()
	tuning.DataDir = "data"
	tuning.StorageFS = lsm.NewMemFS()
	c, err := New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	goroutines := runtime.NumGoroutine()

	ds, err := c.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	upsert := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := ds.Upsert(adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(int64(i))))); err != nil {
				t.Fatal(err)
			}
		}
	}
	upsert(0, 200)
	for i := 0; i < ds.NumPartitions(); i++ {
		ds.Partition(i).Flush()
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	upsert(200, 250) // a WAL tail beside the flushed runs
	if open := ds.Stats().OpenRunFiles; open == 0 {
		t.Fatal("flush produced no run file; the test would prove nothing")
	}

	if err := c.DropDataset("D"); err != nil {
		t.Fatal(err)
	}
	if open := ds.Stats().OpenRunFiles; open != 0 {
		t.Errorf("dropped dataset still holds %d open run files", open)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after drop, %d before create: flushers leaked", n, goroutines)
	}

	again, err := c.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := again.Len(); err != nil || n != 0 {
		t.Errorf("re-created dataset recovered %d dropped rows (%v)", n, err)
	}
}

// parkingFS parks every Open on gate while it is armed, and fails it
// with fail (when set) once released — a dataset whose recovery takes as
// long as the test wants.
type parkingFS struct {
	lsm.FS
	mu      sync.Mutex
	gate    chan struct{} // nil: not armed
	entered chan struct{} // closed by the first parked Open
	fail    error
}

func (p *parkingFS) arm(fail error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gate, p.entered, p.fail = make(chan struct{}), make(chan struct{}), fail
}

func (p *parkingFS) Open(name string) (lsm.File, error) {
	p.mu.Lock()
	gate, entered, fail := p.gate, p.entered, p.fail
	if gate != nil {
		select {
		case <-entered:
		default:
			close(entered)
		}
	}
	p.mu.Unlock()
	if gate != nil {
		<-gate
		if fail != nil {
			return nil, fail
		}
	}
	return p.FS.Open(name)
}

// TestCreateDatasetRecoversOutsideTheCatalogLock: while one dataset is
// being opened (manifest load, run opens, WAL replay), catalog lookups —
// every running statement, every feed batch's Refresh — go through, the
// name is reserved, and a failed open gives the name back.
func TestCreateDatasetRecoversOutsideTheCatalogLock(t *testing.T) {
	fsys := &parkingFS{FS: lsm.NewMemFS()}
	tuning := DefaultTuning()
	tuning.DataDir, tuning.StorageFS = "data", fsys
	c, err := New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateDataset("other", "", "id"); err != nil {
		t.Fatal(err)
	}

	for _, openErr := range []error{errors.New("disk on fire"), nil} {
		fsys.arm(openErr)
		gate := fsys.gate
		created := make(chan error, 1)
		go func() {
			_, err := c.CreateDataset("slow", "", "id")
			created <- err
		}()
		<-fsys.entered // the create is parked inside lsm.OpenDataset

		looked := make(chan bool, 1)
		go func() {
			_, ok := c.Dataset("other")
			_, none := c.Function("nope")
			looked <- ok && !none
		}()
		select {
		case ok := <-looked:
			if !ok {
				t.Fatal("lookups beside a parked create returned the wrong answers")
			}
		case <-time.After(5 * time.Second):
			close(gate) // let the create finish, or the deferred Close waits for it
			t.Fatal("Dataset(\"other\") waited for another dataset's recovery: CreateDataset holds the catalog lock across lsm.OpenDataset")
		}
		if _, ok := c.Dataset("slow"); ok {
			t.Fatal("a dataset still being opened is already published")
		}
		if _, err := c.CreateDataset("slow", "", "id"); err == nil {
			t.Fatal("a second create of a name being opened succeeded")
		}

		close(gate)
		if err := <-created; !errors.Is(err, openErr) {
			t.Fatalf("CreateDataset = %v, want %v", err, openErr)
		}
		if _, ok := c.Dataset("slow"); ok != (openErr == nil) {
			t.Fatalf("after CreateDataset = %v: published = %v", openErr, ok)
		}
	}
}

// TestInMemoryClusterRunsTheOneEngine: a cluster with no DataDir runs
// the same engine as one with — memtables past MemBudget are flushed to
// run files (in its private filesystem), reads come back as block reads
// through the shared cache — and gives everything back: a dropped
// dataset's name starts empty, Close ends every flusher.
func TestInMemoryClusterRunsTheOneEngine(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	tuning := DefaultTuning()
	tuning.Storage.MemBudget = 8 << 10
	c, err := New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds, err := c.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	var batch []adm.Value
	for i := 0; i < 2000; i++ {
		batch = append(batch, adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(int64(i)), "pad", adm.String("pppppppppppppppppppppppppppppppp"))))
	}
	for lo := 0; lo < len(batch); lo += 100 {
		if err := ds.UpsertBatch(batch[lo : lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.NumPartitions(); i++ {
		if err := ds.Partition(i).WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	// One scan fills the cache and the next hits it — once background
	// compaction has stopped replacing the runs in between.
	st := c.StorageStats()
	for deadline := time.Now().Add(5 * time.Second); st.BlockCacheHits == 0 && time.Now().Before(deadline); st = c.StorageStats() {
		if n, err := ds.Len(); err != nil || n != len(batch) {
			t.Fatalf("Len = %d, %v; want %d", n, err, len(batch))
		}
	}
	if st.FlushedRuns == 0 || st.OpenRunFiles == 0 || st.BlockReads == 0 || st.BlockCacheHits == 0 {
		t.Fatalf("flushed runs %d, open run files %d, block reads %d, cache hits %d: want all positive",
			st.FlushedRuns, st.OpenRunFiles, st.BlockReads, st.BlockCacheHits)
	}

	if err := c.DropDataset("D"); err != nil {
		t.Fatal(err)
	}
	again, err := c.CreateDataset("D", "", "id")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := again.Len(); err != nil || n != 0 {
		t.Fatalf("re-created dataset holds %d dropped rows (%v)", n, err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after Close, %d before New: flushers leaked", n, goroutines)
	}
}
