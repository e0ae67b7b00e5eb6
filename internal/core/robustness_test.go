package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
	"github.com/ideadb/idea/internal/udf"
	"github.com/ideadb/idea/internal/workload"
)

// eventRecords builds n deterministic records with ids 1..n (id ==
// source offset, so the checkpoint/model arithmetic below is direct).
func eventRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		id := i + 1
		recs[i] = []byte(fmt.Sprintf(`{"id":%d,"v":%d}`, id, id*3))
	}
	return recs
}

// slowRegistry returns a native-UDF registry whose "slowpoke" function
// passes records through with a per-record delay — a stalled consumer
// that keeps the intake ring congested.
func slowRegistry(t *testing.T, perRecord time.Duration) *udf.Registry {
	t.Helper()
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "slowpoke",
		New: func() udf.Instance {
			return &udf.FuncInstance{
				EvalFn: func(rec adm.Value) (adm.Value, error) {
					time.Sleep(perRecord)
					return rec, nil
				},
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestIntakePolicyHammer drives each congestion policy with a fast
// producer against a deliberately slow consumer on a tiny ring (run
// under -race in CI): intake memory must stay bounded by the ring, and
// the policy's loss accounting must be exact — Spill loses nothing,
// Shed/Sample drop counts plus stored records add up to the input. Each
// policy also runs with two adapters sharding the stream, so the
// holders' policy state (the spill lane, the sample accumulator) sees
// concurrent pushers.
func TestIntakePolicyHammer(t *testing.T) {
	const n = 2000
	type arm struct {
		policy   string
		adapters int
	}
	var arms []arm
	for _, policy := range []string{"spill", "shed", "sample"} {
		arms = append(arms, arm{policy, 1}, arm{policy, 2})
	}
	for _, a := range arms {
		policy, name := a.policy, a.policy
		if a.adapters > 1 {
			name = fmt.Sprintf("%s-%d-adapters", policy, a.adapters)
		}
		t.Run(name, func(t *testing.T) {
			tuning := cluster.DefaultTuning()
			tuning.DispatchOverheadPerNode = 0
			tuning.InvokeOverheadPerNode = 0
			tuning.HolderCapacity = 2 // tiny ring: congest immediately
			tuning.FrameCapacity = 8
			c, err := cluster.New(2, tuning)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateDataset("Events", "", "id"); err != nil {
				t.Fatal(err)
			}
			records := eventRecords(n)
			shard := n / a.adapters
			cfg := Config{
				Name:       "hammer-" + name,
				Dataset:    "Events",
				Function:   "slowpoke",
				Natives:    slowRegistry(t, 20*time.Microsecond),
				BatchSize:  64,
				Congestion: policy,
				SampleRate: 0.25,
				Adapters:   a.adapters,
				NewAdapter: func(i int) (Adapter, error) {
					return &GeneratorAdapter{Records: records[i*shard : (i+1)*shard]}, nil
				},
			}
			f, err := Start(context.Background(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Watchdog goroutine: the bounded-intake invariant must hold at
			// every instant — ringed frames never exceed partitions × ring
			// capacity, no matter how far ahead the producer runs.
			stop := make(chan struct{})
			bound := c.NumNodes() * tuning.HolderCapacity
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got := f.Buffered(); got > bound {
						t.Errorf("intake ring holds %d frames, bound is %d", got, bound)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			close(stop)

			st := f.Stats()
			stored := st.Stored
			ds, _ := c.Dataset("Events")
			switch policy {
			case "spill":
				if stored != n || liveLen(t, ds) != n {
					t.Errorf("spill lost data: stored=%d dataset=%d want %d", stored, liveLen(t, ds), n)
				}
				if st.SpilledFrames == 0 {
					t.Error("hammer never spilled: congestion was not real")
				}
				if st.ShedRecords != 0 || st.SampledRecords != 0 {
					t.Error("spill policy dropped records")
				}
			case "shed":
				if stored+st.ShedRecords != n {
					t.Errorf("shed accounting: stored=%d + shed=%d != %d", stored, st.ShedRecords, n)
				}
				if st.ShedRecords == 0 {
					t.Error("hammer never shed: congestion was not real")
				}
			case "sample":
				if stored+st.SampledRecords != n {
					t.Errorf("sample accounting: stored=%d + sampled=%d != %d", stored, st.SampledRecords, n)
				}
				if st.SampledRecords == 0 {
					t.Error("hammer never sampled out: congestion was not real")
				}
			}
			// The drained feed holds no frames anywhere.
			if f.Buffered() != 0 || f.SpillBacklog() != 0 {
				t.Errorf("drained feed still buffers %d ring / %d spilled frames", f.Buffered(), f.SpillBacklog())
			}
		})
	}
}

// TestBackpressureHoldsOnlyTheRing: the intake holders' rings are the
// whole intake buffer. With every collector stalled in its function
// after its first pull, a backpressure feed's adapter can run ahead of
// the consumers by the rings, the frames those pulls took and the frame
// it is filling — and no further: no queue sits between an adapter and
// a ring.
func TestBackpressureHoldsOnlyTheRing(t *testing.T) {
	const n = 2000
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	tuning.HolderCapacity = 4
	tuning.FrameCapacity = 8
	c, err := cluster.New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateDataset("Events", "", "id"); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "blocker",
		New: func() udf.Instance {
			return &udf.FuncInstance{EvalFn: func(rec adm.Value) (adm.Value, error) {
				<-release
				return rec, nil
			}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	records := eventRecords(n)
	var emitted atomic.Int64
	// BatchSize 16 on two nodes is a quota of 8 records: one frame per
	// pull.
	const batch, framesPerPull = 16, 1
	f, err := Start(context.Background(), c, Config{
		Name:       "ring-only",
		Dataset:    "Events",
		Function:   "blocker",
		Natives:    reg,
		BatchSize:  batch,
		Congestion: "backpressure",
		NewAdapter: func(int) (Adapter, error) {
			return adapterFunc(func(ctx context.Context, emit func([]byte) error) error {
				for _, rec := range records {
					if err := emit(rec); err != nil {
						return err
					}
					emitted.Add(1)
				}
				return nil
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the adapter to stop making progress.
	last, still := int64(-1), 0
	for deadline := time.Now().Add(20 * time.Second); still < 20; still++ {
		if now := emitted.Load(); now != last {
			last, still = now, 0
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("adapter never stalled: %d of %d records emitted", last, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	bound := int64((c.NumNodes()*(tuning.HolderCapacity+framesPerPull) + 1) * tuning.FrameCapacity)
	t.Logf("adapter stalled after %d records (bound %d)", last, bound)
	if last > bound {
		t.Errorf("stalled feed let the adapter emit %d records ahead of its consumers, bound is %d", last, bound)
	}
	close(release)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Stored; got != n {
		t.Errorf("stored %d, want %d", got, n)
	}
}

// TestFeedOverloadedSpillLane: a bounded spill lane that fills up fails
// the feed with ErrFeedOverloaded instead of buffering without bound.
func TestFeedOverloadedSpillLane(t *testing.T) {
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	tuning.HolderCapacity = 2
	tuning.FrameCapacity = 4
	c, err := cluster.New(1, tuning)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDataset("Events", "", "id"); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:             "overload",
		Dataset:          "Events",
		Function:         "slowpoke",
		Natives:          slowRegistry(t, 2*time.Millisecond),
		BatchSize:        4,
		Congestion:       "spill",
		MaxSpilledFrames: 2, // minuscule lane: guaranteed exhaustion
		NewAdapter: func(int) (Adapter, error) {
			return &GeneratorAdapter{Records: eventRecords(2000)}, nil
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
		if !errors.Is(err, ErrFeedOverloaded) {
			t.Errorf("Wait = %v, want ErrFeedOverloaded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("overloaded feed did not fail")
	}
}

// durableTestCluster builds a cluster whose storage lives on the given
// MemFS (crash injection) with deliberately small buffers.
func durableTestCluster(t *testing.T, fs lsm.FS, nodes int) *cluster.Cluster {
	t.Helper()
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	tuning.HolderCapacity = 2
	tuning.FrameCapacity = 4
	tuning.DataDir = "data"
	tuning.StorageFS = fs
	tuning.Storage = lsm.Options{MemBudget: 8 << 10, MaxComponents: 4, WALSegBytes: 8 << 10}
	c, err := cluster.New(nodes, tuning)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDataset("Events", "", "id"); err != nil {
		t.Fatal(err)
	}
	return c
}

// crashFeedConfig is the crash-test pipeline: spill policy on a tiny
// ring (so kill points land during spill writes and drains) and a
// checkpoint after every batch (so kill points land during checkpoint
// writes too).
func crashFeedConfig(records [][]byte) Config {
	return Config{
		Name:            "crashfeed",
		Dataset:         "Events",
		BatchSize:       16,
		Congestion:      "spill",
		CheckpointEvery: 1,
		NewAdapter: func(int) (Adapter, error) {
			return &GeneratorAdapter{Records: records}, nil
		},
	}
}

// runDoomedFeed runs the feed until it finishes or fails (write faults
// make failure likely but not certain) with a deadlock guard.
func runDoomedFeed(t *testing.T, c *cluster.Cluster, cfg Config, tag string) {
	t.Helper()
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		return // a boot-time write fault is a valid kill point
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: doomed feed wedged", tag)
	}
}

// verifyCrashImage checks the at-least-once invariant on a freshly
// recovered (not yet resumed) dataset: every offset at or below the
// recovered checkpoint is present (acked ⇒ durable), and nothing
// outside the generated model exists (records above the checkpoint may
// legitimately be present — durable but unacknowledged).
func verifyCrashImage(t *testing.T, c *cluster.Cluster, n int, tag string) uint64 {
	t.Helper()
	ds, _ := c.Dataset("Events")
	ckpt := ds.Checkpoint(ckptScope("crashfeed", 0))
	if ckpt > uint64(n) {
		t.Fatalf("%s: checkpoint %d beyond the %d-record stream", tag, ckpt, n)
	}
	for id := uint64(1); id <= ckpt; id++ {
		rec, ok := ds.Get(adm.Int(int64(id)))
		if !ok {
			t.Fatalf("%s: offset %d is checkpointed but id %d is missing — ack without durability", tag, ckpt, id)
		}
		if got := rec.Field("v").IntVal(); got != int64(id)*3 {
			t.Fatalf("%s: id %d recovered v=%d, want %d", tag, id, got, id*3)
		}
	}
	sc := ds.Scan()
	for k, rec, ok := sc.Next(); ok; k, rec, ok = sc.Next() {
		id := k.IntVal()
		if id < 1 || id > int64(n) || rec.Field("v").IntVal() != id*3 {
			t.Fatalf("%s: dataset holds record outside the model: id=%d v=%v", tag, id, rec.Field("v"))
		}
	}
	return ckpt
}

// TestFeedCrashRecovery is the end-to-end crash-injection suite: run a
// spill-heavy checkpointing feed on MemFS-backed durable storage, kill
// the filesystem at sampled write counts (clean and torn), take the
// crash image, recover, check the acked-⇒-durable invariant, then
// resume the feed from its checkpoint and require the complete model —
// at-least-once delivery plus idempotent upserts leave exactly the
// generated records.
func TestFeedCrashRecovery(t *testing.T) {
	const n = 400
	records := eventRecords(n)

	// Dry run: count the workload's writes and prove the config spills.
	dryFS := lsm.NewMemFS()
	c := durableTestCluster(t, dryFS, 2)
	f, err := Start(context.Background(), c, crashFeedConfig(records))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().SpilledFrames == 0 {
		t.Fatal("crash workload never spilled; kill points would miss the spill path")
	}
	if got := f.Stats().LastCheckpoint; got != n {
		t.Fatalf("clean run checkpoint = %d, want %d", got, n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	totalWrites := dryFS.Writes()
	const points = 7
	if totalWrites < points {
		t.Fatalf("workload too small: %d writes", totalWrites)
	}

	r := rand.New(rand.NewSource(11))
	for i := 0; i < points; i++ {
		kill := i * totalWrites / points
		if i > 0 {
			kill += r.Intn(totalWrites/points + 1)
		}
		for _, torn := range []int{0, 7} {
			tag := fmt.Sprintf("kill@%d/%d torn=%d", kill, totalWrites, torn)
			fs := lsm.NewMemFS()
			doomed := durableTestCluster(t, fs, 2)
			fs.FailWritesAfter(kill, torn)
			runDoomedFeed(t, doomed, crashFeedConfig(records), tag)
			img := fs.Crash()
			doomed.Close()

			recovered := durableTestCluster(t, img, 2)
			verifyCrashImage(t, recovered, n, tag)

			// Resume: the feed replays from its checkpoint and completes.
			rf, err := Start(context.Background(), recovered, crashFeedConfig(records))
			if err != nil {
				t.Fatalf("%s: resume start: %v", tag, err)
			}
			if err := rf.Wait(); err != nil {
				t.Fatalf("%s: resume: %v", tag, err)
			}
			ds, _ := recovered.Dataset("Events")
			if liveLen(t, ds) != n {
				t.Fatalf("%s: resumed dataset holds %d records, want %d", tag, liveLen(t, ds), n)
			}
			for id := 1; id <= n; id++ {
				rec, ok := ds.Get(adm.Int(int64(id)))
				if !ok || rec.Field("v").IntVal() != int64(id)*3 {
					t.Fatalf("%s: id %d wrong after resume", tag, id)
				}
			}
			if got := rf.Stats().LastCheckpoint; got != n {
				t.Fatalf("%s: resumed checkpoint = %d, want %d", tag, got, n)
			}
			if err := recovered.Close(); err != nil {
				t.Fatalf("%s: close after resume: %v", tag, err)
			}
		}
	}
}

// TestFeedCheckpointReplayIdempotent: delivering the whole stream a
// second time (a fresh feed with no checkpoint, the worst-case
// redelivery) leaves the dataset unchanged, and a feed that restarts
// WITH its checkpoint redelivers nothing at all.
func TestFeedCheckpointReplayIdempotent(t *testing.T) {
	fs := lsm.NewMemFS()
	c := durableTestCluster(t, fs, 2)
	const n = 300
	records := eventRecords(n)
	cfg := crashFeedConfig(records)

	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	ds, _ := c.Dataset("Events")
	if liveLen(t, ds) != n {
		t.Fatalf("first run stored %d", liveLen(t, ds))
	}

	// Same feed name restarts: the checkpoint says everything was
	// delivered, so the adapter resumes past the end and stores nothing.
	f2, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f2.Stats().Stored; got != 0 {
		t.Errorf("checkpointed restart redelivered %d records", got)
	}

	// A different feed name has no checkpoint: full redelivery, which
	// last-wins upsert absorbs without changing the dataset.
	cfg2 := cfg
	cfg2.Name = "crashfeed-redeliver"
	f3, err := Start(context.Background(), c, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f3.Wait(); err != nil {
		t.Fatal(err)
	}
	if f3.Stats().Stored != n {
		t.Errorf("redelivery stored %d, want %d", f3.Stats().Stored, n)
	}
	if liveLen(t, ds) != n {
		t.Errorf("redelivery changed the dataset: %d records, want %d", liveLen(t, ds), n)
	}
	for id := 1; id <= n; id++ {
		rec, ok := ds.Get(adm.Int(int64(id)))
		if !ok || rec.Field("v").IntVal() != int64(id)*3 {
			t.Fatalf("id %d wrong after redelivery", id)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// fromRecorder is a generator that remembers the offset it was resumed
// from.
type fromRecorder struct {
	*GeneratorAdapter
	from *atomic.Uint64
}

func (a fromRecorder) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	a.from.Store(from)
	return a.GeneratorAdapter.RunFrom(ctx, from, emit)
}

// TestAdapterSlotsCheckpointApart: each adapter of a feed is a checkpoint
// slot of its own. Two resumable streams of unequal length each
// checkpoint to their own watermark, and a restart under the same name
// hands each adapter its own slot's offset back, so neither re-emits
// anything.
func TestAdapterSlotsCheckpointApart(t *testing.T) {
	c := durableTestCluster(t, lsm.NewMemFS(), 2)
	defer c.Close()
	lens := []int{300, 500}
	streams := make([][][]byte, len(lens))
	for s, n := range lens {
		for i := 0; i < n; i++ {
			id := (s+1)*1000 + i
			streams[s] = append(streams[s], []byte(fmt.Sprintf(`{"id":%d,"v":%d}`, id, id*3)))
		}
	}
	froms := make([]atomic.Uint64, len(lens))
	cfg := crashFeedConfig(nil)
	cfg.Name = "slots"
	cfg.Adapters = len(lens)
	cfg.NewAdapter = func(i int) (Adapter, error) {
		return fromRecorder{&GeneratorAdapter{Records: streams[i]}, &froms[i]}, nil
	}
	run := func() *Feed {
		t.Helper()
		f, err := Start(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		return f
	}

	if got := run().Stats().Stored; got != 800 {
		t.Fatalf("first run stored %d, want 800", got)
	}
	ds, _ := c.Dataset("Events")
	for s, n := range lens {
		if w := ds.Checkpoint(ckptScope(cfg.Name, s)); w != uint64(n) {
			t.Errorf("slot %d checkpointed at %d, want %d", s, w, n)
		}
	}

	f := run()
	for s, n := range lens {
		if got := froms[s].Load(); got != uint64(n) {
			t.Errorf("restarted adapter %d resumed from %d, want its slot's %d", s, got, n)
		}
	}
	if got := f.Stats().Stored; got != 0 {
		t.Errorf("restart re-emitted %d records", got)
	}
	if liveLen(t, ds) != 800 {
		t.Errorf("dataset holds %d records, want 800", liveLen(t, ds))
	}
}

// pacedAdapter is a resumable generator that emits one record every
// delay — slow enough to kill a node mid-stream deterministically.
type pacedAdapter struct {
	records [][]byte
	delay   time.Duration
}

func (a *pacedAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	return a.RunFrom(ctx, 0, func(_ uint64, raw []byte) error { return emit(raw) })
}

func (a *pacedAdapter) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	for i := int(from); i < len(a.records); i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := emit(uint64(i)+1, a.records[i]); err != nil {
			return err
		}
		time.Sleep(a.delay)
	}
	return nil
}

// TestFeedKillNodeFailover kills a cluster node mid-ingest: the feed's
// pipeline dies with ErrPartitionDown, the manager restarts it on the
// survivors, the adapter replays from the last checkpoint, and the
// dataset ends complete and exact.
func TestFeedKillNodeFailover(t *testing.T) {
	c, _ := testCluster(t, 3)
	m := NewManager(c)
	const n = 1500
	records := make([][]byte, n)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"id":%d,"text":"x"}`, i+1))
	}
	cfgVal := adm.ObjectValue(adm.ObjectFromPairs(
		"adapter-name", adm.String("channel_adapter"),
		"batch-size", adm.Int(64),
	))
	if err := m.CreateFeed("kfeed", cfgVal); err != nil {
		t.Fatal(err)
	}
	if err := m.SetAdapterFactory("kfeed", func(int) (Adapter, error) {
		return &pacedAdapter{records: records, delay: 200 * time.Microsecond}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.ConnectFeed("kfeed", "Tweets", ""); err != nil {
		t.Fatal(err)
	}
	f, err := m.StartFeed(context.Background(), "kfeed")
	if err != nil {
		t.Fatal(err)
	}

	// Let some data land, then kill a node that hosts pipeline partitions.
	ds, _ := c.Dataset("Tweets")
	deadline := time.Now().Add(30 * time.Second)
	for liveLen(t, ds) < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if liveLen(t, ds) < 100 {
		t.Fatal("feed never made progress")
	}
	c.KillNode(2)
	if c.NodeAlive(2) {
		t.Fatal("node 2 still alive")
	}

	// The dying incarnation reports the partition failure...
	if err := f.Wait(); !errors.Is(err, cluster.ErrPartitionDown) {
		t.Fatalf("first incarnation Wait = %v, want ErrPartitionDown", err)
	}
	// ...and the manager's restarted incarnation finishes the stream.
	for time.Now().Before(deadline) {
		if liveLen(t, ds) == n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if liveLen(t, ds) != n {
		t.Fatalf("dataset holds %d records after failover, want %d", liveLen(t, ds), n)
	}
	for id := 1; id <= n; id++ {
		if _, ok := ds.Get(adm.Int(int64(id))); !ok {
			t.Fatalf("id %d missing after failover", id)
		}
	}
	st := f.Stats()
	if st.Resumptions < 1 {
		t.Errorf("resumptions = %d, want >= 1", st.Resumptions)
	}
	// The successor must be waitable through the manager and healthy.
	nf, running, known := m.Lookup("kfeed")
	if !known || nf == nil {
		t.Fatal("manager lost the feed")
	}
	if running {
		if err := nf.Wait(); err != nil {
			t.Fatalf("successor Wait = %v", err)
		}
	}
}

// TestStorageBarrierAcrossIncarnations: the checkpoint barrier compares
// this incarnation's stores against this incarnation's sunk count. A
// failover successor inherits the predecessor's cumulative counters
// (Stored already large), so without the storedBase snapshot the
// barrier would be trivially satisfied and a checkpoint could cover
// offsets whose records are still un-stored — acknowledged data lost on
// the next crash.
func TestStorageBarrierAcrossIncarnations(t *testing.T) {
	stats := &feedCounters{st: FeedStats{Stored: 1000}} // predecessor's cumulative stores
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &Feed{stats: stats, storedBase: stats.st.Stored, ctx: ctx}
	f.sunk.Store(5) // this incarnation has handed 5 records to storage holders

	done := make(chan bool, 1)
	go func() { done <- f.storageBarrier() }()
	select {
	case <-done:
		t.Fatal("barrier passed while this incarnation's records are un-stored")
	case <-time.After(30 * time.Millisecond):
	}
	stats.add(&stats.st.Stored, 5) // this incarnation's stores land
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("barrier reported shutdown, want satisfied")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier never released after stores caught up")
	}
}

// TestFeedStartOnDeadNodeFails: explicitly routing a pipeline onto a
// killed node is rejected up front with ErrPartitionDown.
func TestFeedStartOnDeadNodeFails(t *testing.T) {
	c, g := testCluster(t, 2)
	c.KillNode(1)
	cfg := generatorConfig("deadnode", g, 10)
	cfg.Nodes = []int{0, 1}
	if _, err := Start(context.Background(), c, cfg); !errors.Is(err, cluster.ErrPartitionDown) {
		t.Fatalf("Start on dead node = %v, want ErrPartitionDown", err)
	}
	// Routing onto the survivor works.
	cfg.Nodes = []int{0}
	f, err := Start(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestNativeUDFMayRetainRecords: a record a native UDF is given is a view
// of the collector's append-only input slab — garbage-collected bytes
// nothing pools or rewrites — so a stateful native UDF may keep every
// record it is given. It keeps the first 300 and the last; a hundred
// further batches go by (each would overwrite a slab that was reused, or
// a scratch rewound per record); the UDF fails on the last record — the
// collector's error path — and every stashed record still equals the
// line it was parsed from.
func TestNativeUDFMayRetainRecords(t *testing.T) {
	const kept, batch = 300, 50
	const n = kept + 100*batch
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"id":%d,"text":"keep me %d","user":{"name":"u%d","tags":["a","b"]}}`, i, i, i))
	}
	boom := errors.New("last record refused")
	for _, tc := range []struct {
		name    string
		adapter func(t *testing.T) (Adapter, func())
	}{
		{"RecordsSource", func(*testing.T) (Adapter, func()) {
			return &GeneratorAdapter{Records: lines}, func() {}
		}},
		{"socket_adapter", func(t *testing.T) (Adapter, func()) {
			const addr = "127.0.0.1:19923"
			return &SocketAdapter{Addr: addr}, func() {
				var conn net.Conn
				var err error
				for i := 0; i < 200; i++ {
					if conn, err = net.Dial("tcp", addr); err == nil {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				// n is a multiple of the intake frame size, so the last
				// frame fills and flushes without a Stop.
				if _, err := conn.Write(append(bytes.Join(lines, []byte("\n")), '\n')); err != nil {
					t.Error(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testCluster(t, 1)
			var mu sync.Mutex
			var stash []adm.Value
			reg := udf.NewRegistry()
			if err := reg.Register(&udf.Native{
				Name: "hoarder",
				New: func() udf.Instance {
					return &udf.FuncInstance{EvalFn: func(rec adm.Value) (adm.Value, error) {
						id := rec.Field("id").IntVal()
						if id < kept || id == n-1 {
							mu.Lock()
							stash = append(stash, rec)
							mu.Unlock()
						}
						if id == n-1 {
							return adm.Value{}, boom
						}
						return rec, nil
					}}
				},
			}); err != nil {
				t.Fatal(err)
			}
			adapter, send := tc.adapter(t)
			f, err := Start(context.Background(), c, Config{
				Name: "hoard", Dataset: "Tweets", Function: "hoarder", Natives: reg, BatchSize: batch,
				NewAdapter: func(int) (Adapter, error) { return adapter, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			send()
			if err := f.Wait(); !errors.Is(err, boom) {
				t.Fatalf("Wait = %v, want the UDF's error", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(stash) != kept+1 {
				t.Fatalf("UDF kept %d records, want %d", len(stash), kept+1)
			}
			for i, rec := range stash {
				if i == kept {
					i = n - 1
				}
				want, err := adm.ParseJSON(lines[i])
				if err != nil {
					t.Fatal(err)
				}
				if !adm.Equal(rec, want) {
					t.Fatalf("stashed record %d reads %v, want %v", i, rec, want)
				}
			}
		})
	}
}

// TestLibraryCallMayRetainItsArguments: a SQL++ body that hands its
// record to a library function (ns#f) — directly, or through a catalog
// UDF whose body makes the call — may have it kept, like a native UDF
// may: such a feed encodes each input into an append-only slab, never
// into the scratch a builtins-only body's inputs share. The library
// function keeps the record, a sub-object of it and a string read from
// it, over several batches on two nodes; after Wait every kept value
// still reads its own record, and what the feed stored is, byte for
// byte, what the function makes of each validated line. A query that
// hands stored records to such a function has them kept too: its scan
// leaf copies the rows it reads (a row read from a run is valid only
// until the scan moves on), so what the function kept of records read
// through a cache too small to hold a block equals the stored records
// after the statement.
func TestLibraryCallMayRetainItsArguments(t *testing.T) {
	t.Run("query", checkQueryLibraryCallMayRetainItsArguments)
	const n = 600
	for _, tc := range []struct {
		name     string
		function string
		ddl      []string
	}{
		{"library call", "stashing", []string{
			`CREATE FUNCTION stashing(t) { LET kept = testlib#stash(t, t.user, t.text) SELECT t.*, kept };`}},
		{"catalog UDF", "viaCatalog", []string{
			`CREATE FUNCTION stashOf(t) { testlib#stash(t, t.user, t.text) };`,
			`CREATE FUNCTION viaCatalog(t) { LET kept = stashOf(t) SELECT t.*, kept };`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, g := testCluster(t, 2)
			var mu sync.Mutex
			var stash [][]adm.Value
			c.RegisterNative("testlib", "stash", func(args []adm.Value) (adm.Value, error) {
				mu.Lock()
				defer mu.Unlock()
				stash = append(stash, args)
				return args[2], nil
			})
			for _, ddl := range tc.ddl {
				createFunction(t, c, ddl)
			}
			lines := g.Tweets(0, n)
			f, err := Start(context.Background(), c, Config{
				Name: "stash", Dataset: "EnrichedTweets", Function: tc.function, BatchSize: 64,
				NewAdapter: func(int) (Adapter, error) { return &GeneratorAdapter{Records: lines}, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			kept := stash
			stash = nil
			mu.Unlock()

			validated := func(id int64) adm.Value {
				rec, err := adm.ParseJSON(lines[id])
				if err == nil {
					rec, err = workload.TweetType().Validate(rec)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			if len(kept) != n {
				t.Fatalf("the library function kept %d calls' arguments, want %d", len(kept), n)
			}
			for _, args := range kept {
				id := args[0].Field("id").IntVal()
				if id < 0 || id >= n {
					t.Fatalf("a kept record reads id %d", id)
				}
				want := validated(id)
				if !adm.Equal(args[0], want) || !adm.Equal(args[1], want.Field("user")) || !adm.Equal(args[2], want.Field("text")) {
					t.Fatalf("record %d's kept arguments read %v, %v, %v; want %v", id, args[0], args[1], args[2], want)
				}
			}

			def, _ := c.Function(tc.function)
			plan, err := query.CompileEnrich(def.Name, def.Params, def.Body, c, query.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pe, err := plan.Prepare(c)
			if err != nil {
				t.Fatal(err)
			}
			ds, _ := c.Dataset("EnrichedTweets")
			stored := 0
			sc := ds.Scan()
			for key, rec, ok := sc.Next(); ok; key, rec, ok = sc.Next() {
				stored++
				row, err := pe.EvalRecord(validated(key.IntVal()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := adm.AppendBinary(nil, rec), adm.AppendBinary(nil, row); !bytes.Equal(got, want) {
					t.Fatalf("key %v stores\n %x\nthe function makes\n %x", key, got, want)
				}
			}
			if stored != n {
				t.Fatalf("%d records stored, want %d", stored, n)
			}
		})
	}
}

// checkQueryLibraryCallMayRetainItsArguments is
// TestLibraryCallMayRetainItsArguments' query arm: flushed tweets read
// through an 8 KiB cache, whose every block is recycled once released.
func checkQueryLibraryCallMayRetainItsArguments(t *testing.T) {
	const n = 600
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode, tuning.InvokeOverheadPerNode = 0, 0
	tuning.BlockCacheBytes = 8 << 10
	c, err := cluster.New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	g, err := workload.Setup(c, 42, workload.Scaled(0.002))
	if err != nil {
		t.Fatal(err)
	}
	var stash [][]adm.Value
	c.RegisterNative("testlib", "stash", func(args []adm.Value) (adm.Value, error) {
		stash = append(stash, args)
		return args[2], nil
	})
	ds, _ := c.Dataset("Tweets")
	var recs []adm.Value
	for _, line := range g.Tweets(0, n) {
		rec, err := adm.ParseJSON(line)
		if err == nil {
			rec, err = workload.TweetType().Validate(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := ds.UpsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	for i := range ds.NumPartitions() {
		p := ds.Partition(i)
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sqlpp.ParseExpr(`SELECT VALUE testlib#stash(t, t.user, t.text) FROM Tweets t`)
	if err != nil {
		t.Fatal(err)
	}
	// A serial scan releases each block as it moves past it, so every
	// block after the first decodes into one the scan released.
	ctx := query.NewContext(c)
	ctx.DisableParallelScan = true
	if _, err := query.ExecuteSelect(ctx, nil, sel.(*sqlpp.SelectExpr)); err != nil {
		t.Fatal(err)
	}
	if len(stash) != n || c.StorageStats().BlockCacheRecycled == 0 {
		t.Fatalf("the library function kept %d rows' arguments, want %d (%d blocks recycled)", len(stash), n, c.StorageStats().BlockCacheRecycled)
	}
	for _, args := range stash {
		want, ok := ds.Get(args[0].Field("id"))
		if !ok || !adm.Equal(args[0], want) || !adm.Equal(args[1], want.Field("user")) || !adm.Equal(args[2], want.Field("text")) {
			t.Fatalf("kept arguments read %v, %v, %v; stored %v", args[0], args[1], args[2], want)
		}
	}
}
