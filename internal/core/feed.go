package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/udf"
)

// Config describes one feed connection (the union of CREATE FEED and
// CONNECT FEED).
type Config struct {
	// Name identifies the feed (holder registration, job ids).
	Name string
	// Dataset is the target dataset.
	Dataset string
	// Function is the attached UDF name ("" for none): a catalog SQL++
	// function or a registered native UDF.
	Function string
	// BatchSize is the records consumed per computing-job invocation
	// across the cluster (the paper's 1X = 420).
	BatchSize int
	// Adapters is the number of adapter instances (default 1; one per
	// node = the paper's "balanced" variants). Adapter i is checkpoint
	// slot i: checkpoints are scoped per slot, and a failover restart
	// keeps the count, so every slot resumes from its own watermark.
	Adapters int
	// NewAdapter builds adapter i (0 ≤ i < Adapters).
	NewAdapter func(i int) (Adapter, error)
	// DisableIndexes applies the paper's no-index query hint (Naive
	// Nearby Monuments): no index joins, on a spatial index or on the
	// primary index.
	DisableIndexes bool
	// Natives resolves native ("Java") UDFs.
	Natives *udf.Registry

	// Congestion selects the intake overflow policy: "spill" (default;
	// loss-free, bounded memory), "shed", "sample", or "backpressure"
	// (the pre-robustness behaviour: block the adapter).
	Congestion string
	// SampleRate is the fraction of congested arrivals the "sample"
	// policy keeps (default 0.1).
	SampleRate float64
	// MaxSpilledFrames bounds the spill lane per intake partition
	// (default 4096 frames); exhausting it fails the feed with
	// ErrFeedOverloaded.
	MaxSpilledFrames int
	// CheckpointEvery is how many computing-job invocations pass between
	// checkpoints (default 1: checkpoint after every stored batch).
	CheckpointEvery int
	// Nodes lists the cluster nodes this pipeline runs on (default all).
	// Failover restarts pass the surviving nodes here; every dataset
	// partition stays writable via the surviving nodes (shared-storage
	// model, see docs/ARCHITECTURE.md).
	Nodes []int
	// counters, when non-nil, is the report to keep — failover restarts
	// hand the previous incarnation's over so cumulative counters
	// survive the hop.
	counters *feedCounters

	// RecompilePerBatch disables the predeployed-job optimization: every
	// invocation re-runs UDF compilation, rebuilds the enrichment state
	// from scratch whether or not reference data changed, and pays full
	// dispatch overhead — the paper's rebuild-every-batch baseline
	// (ablation 2 in docs/ARCHITECTURE.md).
	RecompilePerBatch bool
	// FusedInsert disables the decoupled pipeline: each invocation is a
	// single insert job whose UDF evaluation and storage write run
	// sequentially (Section 5.1's intermediate design; ablation 3).
	FusedInsert bool
}

// FeedStats is a feed's report: the counters its pipeline keeps, plus
// the gauges only a running pipeline has. It is the one declaration of
// the report — the live counters are a FeedStats (feedCounters), the
// public idea.FeedStats is this type and the STATS verb is generated
// from it, so a counter is one field here and the statement that bumps
// it.
type FeedStats struct {
	// Name is the feed's name.
	Name string
	// Ingested counts records consumed by computing jobs.
	Ingested int64
	// Stored counts records written to storage partitions.
	Stored int64
	// ParseErrors counts malformed records dropped at parse.
	ParseErrors int64
	// Invocations counts computing-job invocations.
	Invocations int64
	// MeanRefresh is the mean computing-job duration — the paper's
	// refresh-period metric (Figure 26).
	MeanRefresh time.Duration
	// StateBuilds counts invocations of a SQL++ UDF that built, patched
	// or re-pinned enrichment state (hash tables, R-trees, ...) because
	// reference data had changed since the previous batch; StateReuses counts
	// those that reused the previous batch's state whole. AccessBuilds
	// counts the individual structures the builds produced, and
	// AccessPatches the hash tables patched in place from the reference
	// writes since the previous batch instead of rebuilt; a probe of the
	// primary index is neither. A feed whose AccessBuilds keep pace with
	// Invocations pays the rebuild on every batch.
	StateBuilds   int64
	StateReuses   int64
	AccessBuilds  int64
	AccessPatches int64
	// Running reports whether the pipeline is still live; false means
	// the counters are the feed's final numbers.
	Running bool

	// BufferedFrames is the number of frames currently queued in intake
	// rings (a gauge; zero once the feed has drained).
	BufferedFrames int
	// SpillBacklog is the number of frames currently parked in the
	// on-disk spill lane awaiting re-admission (a gauge).
	SpillBacklog int
	// SpilledFrames / SpilledRecords count frames diverted through the
	// disk spill lane under the "spill" congestion policy. Spilled data
	// is not lost — it re-enters the pipeline in FIFO order.
	SpilledFrames  int64
	SpilledRecords int64
	// ShedFrames / ShedRecords count data deliberately dropped under the
	// "shed" congestion policy (exact counts).
	ShedFrames  int64
	ShedRecords int64
	// SampledFrames / SampledRecords count data deliberately dropped
	// under the "sample" congestion policy (exact counts; the kept
	// fraction approximates the configured rate).
	SampledFrames  int64
	SampledRecords int64
	// LastCheckpoint is the highest source offset acknowledged durable
	// across the feed's adapter slots; a resumed feed replays from here.
	LastCheckpoint uint64
	// Resumptions counts automatic pipeline restarts after partition
	// failover.
	Resumptions int64
}

// feedCounters holds a pipeline's live report: the counters of st are
// bumped in place under mu, once per frame or per invocation, and
// snapshot copies them out. One holder can outlive a single pipeline
// incarnation: failover restarts share it, so the counters are
// cumulative across partition failures.
type feedCounters struct {
	mu sync.Mutex
	st FeedStats
	// batchNanos sums computing-job wall time; snapshot derives
	// MeanRefresh from it.
	batchNanos int64
}

// add bumps one counter of the report by n.
func (c *feedCounters) add(counter *int64, n int64) {
	c.mu.Lock()
	*counter += n
	c.mu.Unlock()
}

// intake adds a collector's admitted and rejected lines.
func (c *feedCounters) intake(admitted, rejected int64) {
	c.mu.Lock()
	c.st.Ingested += admitted
	c.st.ParseErrors += rejected
	c.mu.Unlock()
}

// checkpointed raises LastCheckpoint to w.
func (c *feedCounters) checkpointed(w uint64) {
	c.mu.Lock()
	c.st.LastCheckpoint = max(c.st.LastCheckpoint, w)
	c.mu.Unlock()
}

// snapshot copies the counters out.
func (c *feedCounters) snapshot() FeedStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	if st.Invocations > 0 {
		st.MeanRefresh = time.Duration(c.batchNanos / st.Invocations)
	}
	return st
}

// defaultMaxSpilledFrames bounds the spill lane when the config does
// not: at the default 128-record frames this is ~0.5M records of
// overflow per intake partition before the feed declares overload.
const defaultMaxSpilledFrames = 4096

// Feed is a running dynamic-framework feed.
type Feed struct {
	cfg     Config
	cluster *cluster.Cluster
	ds      *lsm.Dataset
	dt      *adm.Datatype

	plan   *query.EnrichPlan // SQL++ attachment
	native *udf.Native       // native attachment

	// nodes are the cluster nodes this incarnation runs on (cfg.Nodes or
	// all); pipeline partition p's holders register with node nodes[p].
	nodes []int

	intakeHolders  []*hyracks.PassiveHolder
	storageHolders []*hyracks.PassiveHolder
	spillers       []*lsm.SpillQueue // per intake partition; nil entries when not spilling
	intakeJob      *hyracks.Job
	storageJob     *hyracks.Job

	// encoders[p] is partition p's line-to-storage step (recordEncoder).
	// It outlives the invocation, so what it learned of its records' size
	// does too. Only the collector instance for partition p touches it,
	// and invocations run sequentially, so no locking is needed.
	encoders []recordEncoder

	// computeSpec is the predeployed computing job's spec skeleton,
	// built once at start; per-invocation state lives in curInv. The
	// RecompilePerBatch ablation rebuilds the spec every batch instead.
	computeSpec *hyracks.JobSpec
	curInv      atomic.Pointer[invocation]
	// prepared is the SQL++ enrichment state the last invocation used,
	// kept so the next can reuse it while its reference data is
	// unchanged. AFM goroutine only; stays nil under RecompilePerBatch
	// and is released when the AFM exits.
	prepared *query.PreparedEnrich

	eof []atomic.Bool // per pipeline partition: intake holder fully drained

	// At-least-once machinery: trackers[slot] accumulates delivered
	// offset ranges for adapter slot `slot`; lastCkpt[slot] is the last
	// watermark written through the partition WALs (AFM goroutine only);
	// sunk counts records pushed into storage holders, the barrier
	// target a checkpoint waits on. Both sunk and the barrier count
	// this incarnation only: Stored is cumulative across failover
	// restarts (the manager hands the successor the same counters),
	// so storedBase snapshots it at Start and the barrier compares the
	// delta.
	trackers   []*offsetTracker
	lastCkpt   []uint64
	sunk       atomic.Int64
	storedBase int64

	jobCtx    context.Context
	jobCancel context.CancelFunc
	adaptCtx  context.Context
	adaptStop context.CancelFunc
	afmDone   chan struct{}
	computeID string
	frameCap  int
	quota     int

	stats   *feedCounters
	errOnce sync.Once
	// feedErr holds the first pipeline failure. It is written once by
	// fail() — which runs on the AFM goroutine and the intake/storage
	// watchdogs — and read by waitInner, so it must be an atomic, not a
	// plain field guarded only on the write side.
	feedErr atomic.Pointer[error]

	waitOnce sync.Once
	waitErr  error
}

// Stats returns the feed's counters. The gauges and Running are left
// zero: whether this pipeline is still the feed's live one is the
// manager's verdict.
func (f *Feed) Stats() FeedStats { return f.stats.snapshot() }

// Buffered reports the frames currently ringed in intake memory — the
// bounded-intake gauge (never exceeds partitions × ring capacity).
func (f *Feed) Buffered() int {
	frames := 0
	for _, h := range f.intakeHolders {
		frames += h.Pending()
	}
	return frames
}

// SpillBacklog reports the frames currently parked in spill lanes.
func (f *Feed) SpillBacklog() int {
	frames := 0
	for _, h := range f.intakeHolders {
		frames += h.SpilledPending()
	}
	return frames
}

// resolveFunction splits the attached function into a native UDF or a
// compiled SQL++ enrichment plan.
func resolveFunction(c *cluster.Cluster, cfg Config) (*query.EnrichPlan, *udf.Native, error) {
	if cfg.Function == "" {
		return nil, nil, nil
	}
	if cfg.Natives != nil {
		if n, ok := cfg.Natives.Lookup(cfg.Function); ok {
			return nil, n, nil
		}
	}
	fn, ok := c.Function(cfg.Function)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown function %q", cfg.Function)
	}
	plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c,
		query.PlanOptions{DisableIndexes: cfg.DisableIndexes})
	if err != nil {
		return nil, nil, err
	}
	return plan, nil, nil
}

// congestionOptions translates the config policy into holder options
// for intake partition p, creating the spill lane when needed.
func (f *Feed) congestionOptions(p int) (hyracks.HolderOptions, error) {
	tuning := f.cluster.Tuning()
	opts := hyracks.HolderOptions{Capacity: tuning.HolderCapacity}
	policy := f.cfg.Congestion
	switch policy {
	case "", "spill":
		maxSpill := f.cfg.MaxSpilledFrames
		if maxSpill <= 0 {
			maxSpill = defaultMaxSpilledFrames
		}
		sq, err := f.newSpillQueue(p)
		if err != nil {
			return opts, err
		}
		f.spillers[p] = sq
		opts.Policy = hyracks.Spill
		opts.Spiller = sq
		opts.MaxSpilledFrames = maxSpill
		opts.Overloaded = ErrFeedOverloaded
		opts.OnSpill = func(records int) {
			f.stats.mu.Lock()
			f.stats.st.SpilledFrames++
			f.stats.st.SpilledRecords += int64(records)
			f.stats.mu.Unlock()
		}
	case "shed":
		opts.Policy = hyracks.Shed
		opts.OnDrop = f.dropFrame
	case "sample":
		rate := f.cfg.SampleRate
		if rate <= 0 {
			rate = 0.1
		}
		opts.Policy = hyracks.Sample
		opts.SampleRate = rate
		opts.OnDrop = f.dropFrame
	case "backpressure":
		opts.Policy = hyracks.Backpressure
	default:
		return opts, fmt.Errorf("core: unknown congestion policy %q", policy)
	}
	return opts, nil
}

// dropFrame is the Shed/Sample drop path: count exactly what was lost,
// report the offsets as handled (data dropped by policy must not hold
// the resume watermark back), and recycle.
func (f *Feed) dropFrame(fr hyracks.Frame, sampled bool) {
	n := int64(fr.Len())
	f.stats.mu.Lock()
	if sampled {
		f.stats.st.SampledFrames++
		f.stats.st.SampledRecords += n
	} else {
		f.stats.st.ShedFrames++
		f.stats.st.ShedRecords += n
	}
	f.stats.mu.Unlock()
	f.markDelivered(fr)
	hyracks.RecycleFrame(fr)
}

// markDelivered reports a frame's offset range to its adapter slot's
// tracker (no-op for frames without provenance).
func (f *Feed) markDelivered(fr hyracks.Frame) {
	if fr.FirstOff == 0 || fr.Adapter >= len(f.trackers) {
		return
	}
	f.trackers[fr.Adapter].mark(fr.FirstOff, fr.LastOff)
}

// newSpillQueue builds the spill lane for intake partition p on the
// cluster's filesystem, beside the datasets (in process memory for a
// cluster without a DataDir, where spilling buys a bounded intake ring,
// not durability — which the lane never promises anyway).
func (f *Feed) newSpillQueue(p int) (*lsm.SpillQueue, error) {
	tuning := f.cluster.Tuning()
	dir := path.Join(tuning.DataDir, ".spill", f.cfg.Name)
	return lsm.NewSpillQueue(tuning.StorageFS, dir, fmt.Sprintf("p%03d.spill", p))
}

// Start launches the full dynamic pipeline: storage job, intake job,
// predeployed computing job, and the Active Feed Manager loop.
func Start(ctx context.Context, c *cluster.Cluster, cfg Config) (_ *Feed, err error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 420 // the paper's 1X
	}
	if cfg.Adapters <= 0 {
		cfg.Adapters = 1
	}
	if cfg.NewAdapter == nil {
		return nil, errors.New("core: feed needs an adapter factory")
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = make([]int, c.NumNodes())
		for i := range cfg.Nodes {
			cfg.Nodes[i] = i
		}
	}
	for _, node := range cfg.Nodes {
		if !c.NodeAlive(node) {
			return nil, fmt.Errorf("core: node %d: %w", node, cluster.ErrPartitionDown)
		}
	}
	ds, ok := c.Dataset(cfg.Dataset)
	if !ok {
		return nil, fmt.Errorf("core: unknown dataset %q", cfg.Dataset)
	}
	plan, native, err := resolveFunction(c, cfg)
	if err != nil {
		return nil, err
	}

	n := len(cfg.Nodes)
	tuning := c.Tuning()
	stats := cfg.counters
	if stats == nil {
		stats = &feedCounters{st: FeedStats{Name: cfg.Name}}
	}
	jobCtx, jobCancel := context.WithCancel(ctx)
	adaptCtx, adaptStop := context.WithCancel(jobCtx)
	f := &Feed{
		cfg:       cfg,
		cluster:   c,
		ds:        ds,
		dt:        ds.Datatype(),
		plan:      plan,
		native:    native,
		nodes:     cfg.Nodes,
		jobCtx:    jobCtx,
		jobCancel: jobCancel,
		adaptCtx:  adaptCtx,
		adaptStop: adaptStop,
		afmDone:   make(chan struct{}),
		computeID: cfg.Name + "-compute",
		frameCap:  tuning.FrameCapacity,
		eof:       make([]atomic.Bool, n),
		stats:     stats,
		spillers:  make([]*lsm.SpillQueue, n),
		// On failover the manager passes the old incarnation's counters,
		// so Stored may already be non-zero; the storage barrier measures
		// this incarnation's stores relative to this snapshot.
		storedBase: stats.snapshot().Stored,
	}
	defer func() {
		if err != nil {
			f.teardownHolders()
			jobCancel()
		}
	}()
	f.quota = cfg.BatchSize / n
	if f.quota < 1 {
		f.quota = 1
	}
	f.encoders = make([]recordEncoder, n)
	for p := range f.encoders {
		f.encoders[p] = newRecordEncoder(f.frameCap, ds.NumPartitions(), ds.PrimaryKey(), ds.Route)
		f.encoders[p].rewind = plan != nil && plan.KeepsNoInput()
	}

	// Resume state: one tracker per adapter slot, seeded from the last
	// durable checkpoint so the watermark never regresses across
	// restarts.
	f.trackers = make([]*offsetTracker, cfg.Adapters)
	f.lastCkpt = make([]uint64, cfg.Adapters)
	for i := range f.trackers {
		f.trackers[i] = &offsetTracker{}
		if w := ds.Checkpoint(ckptScope(cfg.Name, i)); w > 0 {
			f.trackers[i].seed(w)
			f.lastCkpt[i] = w
			stats.checkpointed(w)
		}
	}

	// Partition holders, registered with each node's manager. Intake
	// holders carry the feed's congestion policy (bounded ring + spill
	// lane); storage holders keep plain backpressure — that is the
	// signal the AFM's batching responds to.
	for p := 0; p < n; p++ {
		opts, err := f.congestionOptions(p)
		if err != nil {
			return nil, err
		}
		ih := hyracks.NewPassiveHolderOpts(opts)
		sh := hyracks.NewPassiveHolder(tuning.HolderCapacity)
		if err := c.Node(f.nodes[p]).Holders.Register(cfg.Name+"/intake", ih); err != nil {
			return nil, err
		}
		if err := c.Node(f.nodes[p]).Holders.Register(cfg.Name+"/storage", sh); err != nil {
			return nil, err
		}
		f.intakeHolders = append(f.intakeHolders, ih)
		f.storageHolders = append(f.storageHolders, sh)
	}

	// Storage job (long-running); the fused-insert ablation folds
	// storage into each computing job instead.
	if !cfg.FusedInsert {
		storageSpec := f.buildStorageSpec()
		f.storageJob, err = c.StartJob(jobCtx, storageSpec)
		if err != nil {
			return nil, err
		}
	}

	// Intake job (long-running).
	intakeSpec, err := f.buildIntakeSpec()
	if err == nil {
		f.intakeJob, err = c.StartJob(jobCtx, intakeSpec)
	}
	if err != nil {
		return nil, err
	}

	// Watchdogs: a storage-job failure must tear the feed down, or the
	// AFM would block pushing batches into dead storage holders; an
	// intake-job failure (spill lane exhausted, partition down) must
	// too, or the AFM would wait forever for frames that cannot come.
	if f.storageJob != nil {
		go func() {
			if werr := f.storageJob.Wait(); werr != nil {
				f.fail(werr)
			}
		}()
	}
	go func() {
		if werr := f.intakeJob.Wait(); werr != nil {
			f.fail(werr)
		}
	}()

	// Predeploy the computing job template, then let the AFM invoke it
	// per batch (unless the predeploy ablation is off). The spec
	// skeleton — descriptors, closures, connectors — is built exactly
	// once here; invocations only swap in fresh per-batch state via
	// curInv, honoring the paper's predeployed-job optimization.
	if !cfg.RecompilePerBatch {
		if err := c.Predeploy(f.computeID); err != nil {
			return nil, err
		}
		f.computeSpec = f.buildComputeSpec()
	}
	go f.runAFM()
	return f, nil
}

// buildIntakeSpec assembles adapter sources → round-robin → passive
// intake holders. Resumable adapters run from their slot's recovered
// checkpoint and stamp offset provenance onto every frame.
func (f *Feed) buildIntakeSpec() (*hyracks.JobSpec, error) {
	spec := hyracks.NewJobSpec()
	spec.QueueCapacity = f.cluster.Tuning().HolderCapacity
	cfg := f.cfg
	// The collector consumes whole frames (PullFrames never splits one),
	// which makes the intake frame size the batch-size granularity: cap
	// it at the per-node quota so a small BatchSize still yields small,
	// frequent computing-job batches.
	intakeCap := f.frameCap
	if f.quota < intakeCap {
		intakeCap = f.quota
	}
	adapterOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "adapter",
		Parallelism: cfg.Adapters,
		NewSource: func(p int) (hyracks.Source, error) {
			adapter, err := cfg.NewAdapter(p)
			if err != nil {
				return nil, err
			}
			return hyracks.SourceFunc(func(tc *hyracks.TaskContext, out hyracks.Writer) error {
				if err := out.Open(); err != nil {
					return err
				}
				// Every emit is staged into the frame's pooled line arena
				// (one memcpy, no per-record allocation) and rides the
				// raw lane to the collector's parser.
				b := hyracks.NewFrameBuilder(intakeCap, out)
				var err error
				if ra, ok := adapter.(ResumableAdapter); ok {
					// Resume past everything already checkpointed; each
					// emit notes its offset so the frame carries the
					// provenance the checkpointer needs.
					b.SetAdapter(p)
					from := f.trackers[p].cut()
					err = ra.RunFrom(f.adaptCtx, from, func(off uint64, raw []byte) error {
						b.NoteOffset(off)
						return b.AddRawCopy(raw)
					})
				} else {
					err = adapter.Run(f.adaptCtx, b.AddRawCopy)
				}
				if err != nil && !(errors.Is(err, context.Canceled) && f.adaptCtx.Err() != nil) {
					return err
				}
				return b.Flush()
			}), nil
		},
	})
	holderOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "intake-partition-holder",
		Parallelism: len(f.nodes),
		NewPipe: func(p int) (hyracks.Pipe, error) {
			return f.intakeHolders[p], nil
		},
	})
	spec.Connect(adapterOp, holderOp, hyracks.RoundRobin, nil)
	return spec, nil
}

// buildStorageSpec assembles storage holders (each heading the job as
// its Source) → storage exchange → LSM partition writers. Holder
// parallelism follows the live nodes;
// writer parallelism always equals the dataset's partition count so
// primary-key routing is stable across failover (dead nodes' partitions
// stay writable through the shared-storage model — surviving nodes host
// their writers).
func (f *Feed) buildStorageSpec() *hyracks.JobSpec {
	spec := hyracks.NewJobSpec()
	spec.QueueCapacity = f.cluster.Tuning().HolderCapacity
	holderOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "storage-partition-holder",
		Parallelism: len(f.nodes),
		NewSource: func(p int) (hyracks.Source, error) {
			return f.storageHolders[p], nil
		},
	})
	connectStorage(spec, holderOp, "storage-partition-writer", f.ds, f.stats)
	return spec
}

// invocation is the per-batch state of one computing job: the function's
// call at each partition (none without a function).
type invocation struct {
	calls []udfCall
}

// newInvocation performs the per-batch build phase: bring the SQL++
// state up to date — reused whole when no dataset it read has changed
// since it was built, rebuilt where one has (query.PreparedEnrich
// states the rule) — or re-initialize native instances so resource-file
// updates are observed.
func (f *Feed) newInvocation() (*invocation, error) {
	inv := &invocation{}
	var pe *query.PreparedEnrich
	if f.plan != nil {
		plan, prev := f.plan, f.prepared
		if f.cfg.RecompilePerBatch {
			// Ablation: repeat the whole compilation the predeployed-job
			// technique would have cached. A fresh plan has no state to
			// carry over, so every batch also pays the full build.
			fn, _ := f.cluster.Function(f.cfg.Function)
			recompiled, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, f.cluster,
				query.PlanOptions{DisableIndexes: f.cfg.DisableIndexes})
			if err != nil {
				return nil, err
			}
			plan, prev = recompiled, nil
		}
		var err error
		if prev == nil {
			pe, err = plan.Prepare(f.cluster)
		} else {
			pe, err = prev.Refresh()
		}
		if err != nil {
			return nil, err
		}
		f.stats.mu.Lock()
		if pe == prev {
			f.stats.st.StateReuses++
		} else {
			f.stats.st.StateBuilds++
			f.stats.st.AccessBuilds += int64(pe.Built())
			f.stats.st.AccessPatches += int64(pe.Patched())
		}
		f.stats.mu.Unlock()
		if !f.cfg.RecompilePerBatch {
			f.prepared = pe
		}
	}
	if f.plan != nil || f.native != nil {
		var err error
		if inv.calls, err = udfCalls(pe, f.native, len(f.nodes)); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// The steps below — admit, recordEncoder, frameRouter, udfCall and the
// storage writers — are shared with the static pipeline (static.go):
// the two frameworks differ in when UDF state is built and in which
// operator runs the UDF, not in what happens to a record.

// admit decides whether a record enters the pipeline: one that failed to
// parse (perr) or violates the dataset's datatype is dropped, for its
// caller to count as a parse error; any other comes back in its
// validated form.
func admit(dt *adm.Datatype, rec adm.Value, perr error) (adm.Value, bool) {
	if perr == nil && dt != nil {
		rec, perr = dt.Validate(rec)
	}
	if perr != nil {
		return adm.Value{}, false
	}
	return rec, true
}

// recordEncoder turns a collector partition's lines into the frames that
// travel: each line is parsed into the arena, admitted (validated and
// coerced) as a tree and encoded once. The parse tree is scratch: the
// arena is reset for the next line.
//
// A dynamic feed's encoder routes with the dataset's Route (frameRouter).
// With no function, the record is encoded into its storage partition's
// slab and handed on as a view of those bytes — the encoding the WAL and
// the run file will hold. With one, the function runs right here, as
// Hyracks runs operators joined one-to-one in one thread, and what it
// makes of the record is framed instead (udfCall.frame). Its input is
// encoded into scratch rewound for every record when nothing the
// function runs can keep it (rewind: query.EnrichPlan.KeepsNoInput), for
// splice and add copy what a row keeps of it before they return; any
// other input is appended to a garbage-collected slab nothing rewrites,
// sized as a frame's is (partFrame.open).
//
// Unrouted, the encoder frames the records themselves into one frame;
// that mode serves StartStatic only, whose evaluator takes the frames.
type recordEncoder struct {
	parser  *adm.Parser // field-name intern table and size hints stay warm
	arena   *adm.Arena
	spine   []adm.Value // ParseInto's one-record destination
	rewind  bool
	scratch []byte    // keeps the largest input's capacity, as the arena does
	kept    partFrame // the append-only input slab, holding inputs records
	inputs  int
	frameRouter
}

// newRecordEncoder returns the encoder of a collector partition whose
// frames hold up to frameCap records. With a route, records are keyed by
// pk and framed per target (one of targets); without, there is one frame.
func newRecordEncoder(frameCap, targets int, pk string, route func(adm.Value) int) recordEncoder {
	return recordEncoder{
		parser: adm.NewParser(), arena: adm.NewArena(0), spine: make([]adm.Value, 0, 1),
		frameRouter: newFrameRouter(frameCap, targets, pk, route),
	}
}

// encode turns raw into a record and frames it, or what fn makes of it
// when fn is not nil, pushing frames that fill (or that it does not fit)
// to out. ok is false when the line was rejected, for the caller to
// count in ParseErrors.
func (e *recordEncoder) encode(raw []byte, dt *adm.Datatype, fn *udfCall, out hyracks.Writer) (ok bool, err error) {
	var rec adm.Value
	spine, perr := e.parser.ParseInto(raw, e.spine, e.arena)
	if perr == nil {
		rec = spine[0]
	}
	rec, ok = admit(dt, rec, perr)
	if ok && fn == nil {
		err = e.add(rec, out)
	} else if ok {
		err = fn.frame(&e.frameRouter, e.input(rec), out)
	}
	e.pending--
	clear(spine)
	e.arena.Reset()
	return ok, err
}

// input encodes rec as the function's input and returns a view of those
// bytes: the scratch when rewinding, else the append-only slab.
func (e *recordEncoder) input(rec adm.Value) adm.Value {
	if e.rewind {
		e.scratch = adm.AppendBinary(e.scratch[:0], rec)
		return adm.View(e.scratch)
	}
	in := &e.kept
	if size := adm.BinarySize(rec); cap(in.slab)-len(in.slab) < size {
		in.learn(e.inputs)
		in.open(size, min(e.frameCap, e.pending))
		e.inputs = 0
	}
	at := len(in.slab)
	in.slab = adm.AppendBinary(in.slab, rec)
	in.largest = max(in.largest, len(in.slab)-at)
	e.inputs++
	return adm.View(in.slab[at:])
}

// frameRouter frames records for their targets, each record encoded into
// its frame's slab and handed on as a view of those bytes.
//
// Routed, it frames where storage will log. A record's primary key is
// hashed to its storage partition with the dataset's own Route — the
// one place the routing rule is stated — and each partition has a frame
// of its own, addressed to it (hyracks.Frame.Part), whose slab holds
// key, record, key, record, ...: byte for byte the payload its WAL logs.
// Such a frame carries the slab as hyracks.Frame.Enc, the storage
// exchange forwards it whole to the partition it names, whose writer
// checks that it owns every key, and the partition logs and keeps the
// slab instead of copying the records into a buffer of its own
// (lsm.Partition.UpsertFrame). A function-less feed's collector routes
// the records it parses; a function feed's collector (the static
// pipeline's evaluator) routes the rows its function returns, and a
// SQL++ row is spliced into the slab where it will stay (splice).
//
// One frame, one slab. A slab is garbage-collected memory that is only
// ever appended to, never pooled or rewritten, so whoever is handed a
// record may keep it for as long as it likes; it keeps its frame's slab
// with it. A record the slab has no room for closes its frame early, and
// the fresh slab is sized from the partition's bytes per record times
// the records still expected for it — plus the record itself, which is
// never taken for the size of the others (see open).
type frameRouter struct {
	// pk and route are set when routing: route maps a primary key to the
	// storage partition that owns it.
	pk       string
	route    func(key adm.Value) int
	frameCap int
	parts    []partFrame // one per storage partition when routing, else one
	// pending counts the records of the current batch not yet framed.
	pending int
	// apart is set once a spliced row had to be sealed off this batch
	// (splice): the batch's remaining rows are built apart.
	apart bool
}

// partFrame is the frame under construction for one target: its records
// and the slab they are views of (a recordEncoder's input slab has none).
type partFrame struct {
	recs []adm.Value
	slab []byte
	// largest is the most slab bytes one record of the frame took.
	largest int
	// perRecord is the slab bytes to provide per expected record: the
	// target's last frame of two or more records showed this many on
	// average, leaving its largest record out, plus an eighth.
	perRecord int
}

// newFrameRouter returns a router of frames of up to frameCap records.
// With a route, records are keyed by pk and framed per target (one of
// targets); without, there is one frame.
func newFrameRouter(frameCap, targets int, pk string, route func(adm.Value) int) frameRouter {
	if route == nil {
		targets = 1
	}
	return frameRouter{pk: pk, route: route, frameCap: frameCap, parts: make([]partFrame, targets)}
}

// begin starts a batch of n records.
func (r *frameRouter) begin(n int) { r.pending, r.apart = n, false }

// add encodes rec into its target's frame.
func (r *frameRouter) add(rec adm.Value, out hyracks.Writer) error {
	t, key, size := 0, adm.Value{}, adm.BinarySize(rec)
	if r.route != nil {
		key = rec.Field(r.pk)
		t = r.route(key)
		size += adm.BinarySize(key)
	}
	if err := r.reserve(t, size, out); err != nil {
		return err
	}
	pf := &r.parts[t]
	at := len(pf.slab)
	if r.route != nil {
		pf.slab = adm.AppendBinary(pf.slab, key)
	}
	view := len(pf.slab)
	pf.slab = adm.AppendBinary(pf.slab, rec)
	return r.keep(t, adm.View(pf.slab[view:]), at, out)
}

// splice frames what pe makes of rec, having the row written where
// storage will log it: rec's key goes into its target's slab and the UDF
// body's projection splices the row right after it (EvalRecord's
// destination). The row stays there if it is a view that ends the slab
// and whose own key encodes to the bytes guessed. Anything else — a row
// with another key, an Object row, several rows, a row that did not fit —
// goes through add. If nothing was written past the key, the key is
// taken back; otherwise the frame is sealed before it, so no byte a view
// may alias is ever rewritten, and the batch's remaining rows are built
// apart.
func (r *frameRouter) splice(pe *query.PreparedEnrich, rec adm.Value, out hyracks.Writer) error {
	if r.apart {
		row, err := pe.EvalRecord(rec)
		if err != nil {
			return err
		}
		return r.add(row, out)
	}
	key := rec.Field(r.pk)
	t := r.route(key)
	pf := &r.parts[t]
	need := pf.perRecord
	if need == 0 { // nothing learned: room for a row twice the record
		need = adm.BinarySize(key) + 2*adm.BinarySize(rec)
	}
	if err := r.reserve(t, need, out); err != nil {
		return err
	}
	at := len(pf.slab)
	pf.slab = adm.AppendBinary(pf.slab, key)
	view := len(pf.slab)
	row, err := pe.EvalRecord(rec, &pf.slab)
	if err != nil {
		return err
	}
	if n, ok := adm.ViewAt(row, pf.slab, view); ok && view+n == len(pf.slab) && encodesTo(row.Field(r.pk), pf.slab[at:view]) {
		return r.keep(t, row, at, out)
	}
	spliced := len(pf.slab) > view
	pf.slab = pf.slab[:at]
	if spliced {
		r.apart = true
		if len(pf.recs) == 0 {
			pf.slab = nil
		} else if err := r.push(t, out); err != nil {
			return err
		}
	}
	return r.add(row, out)
}

// encodesTo reports whether v's encoding is enc, comparing through a
// stack buffer.
func encodesTo(v adm.Value, enc []byte) bool {
	var buf [64]byte
	return bytes.Equal(adm.AppendBinary(buf[:0], v), enc)
}

// reserve makes sure target t's slab has room for size more bytes,
// closing its frame early when it has not and giving it a fresh slab for
// the records the target can still expect this batch: its share of the
// pending records, up to a frame.
func (r *frameRouter) reserve(t, size int, out hyracks.Writer) error {
	pf := &r.parts[t]
	if cap(pf.slab)-len(pf.slab) >= size {
		return nil
	}
	if len(pf.recs) > 0 {
		if err := r.push(t, out); err != nil {
			return err
		}
	}
	pf.open(size, min(r.frameCap, (r.pending+len(r.parts)-1)/len(r.parts)))
	return nil
}

// keep adds rec, whose bytes (its key's included) start at slab offset
// at and end the slab, to target t's frame, pushing the frame once it is
// full.
func (r *frameRouter) keep(t int, rec adm.Value, at int, out hyracks.Writer) error {
	pf := &r.parts[t]
	if pf.recs == nil {
		pf.recs = hyracks.GetRecordSlice(r.frameCap)
	}
	pf.recs = append(pf.recs, rec)
	pf.largest = max(pf.largest, len(pf.slab)-at)
	if len(pf.recs) == r.frameCap {
		return r.push(t, out)
	}
	return nil
}

// open gives pf a fresh slab starting with a record of size bytes. The
// rest of the slab is room for expect-1 more records at the learned bytes
// per record. With nothing learned yet there is room for one more record
// like this one; so the first slab learns from two records, and an
// outsized record costs its own bytes, at most twice, never once per
// record still to come.
func (pf *partFrame) open(size, expect int) {
	room := size
	if pf.perRecord > 0 {
		room = pf.perRecord * max(expect-1, 0)
	}
	pf.slab, pf.largest = make([]byte, 0, size+room), 0
}

// learn takes the bytes per record from pf's slab, which holds n records.
func (pf *partFrame) learn(n int) {
	if n > 1 {
		per := (len(pf.slab) - pf.largest) / (n - 1)
		pf.perRecord = per + per/8 + 1
	}
}

// push sends target t's frame to out, addressed to t, and leaves it
// empty, learning the target's bytes per record from the frame first.
func (r *frameRouter) push(t int, out hyracks.Writer) error {
	pf := &r.parts[t]
	pf.learn(len(pf.recs))
	fr := hyracks.Frame{Records: pf.recs, Part: t}
	if r.route != nil {
		fr.Enc = pf.slab
	}
	pf.recs, pf.slab, pf.largest = nil, nil, 0
	return out.Push(fr)
}

// flush pushes every frame that holds records: a batch's records all
// reach storage within its invocation.
func (r *frameRouter) flush(out hyracks.Writer) error {
	for t := range r.parts {
		if len(r.parts[t].recs) > 0 {
			if err := r.push(t, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// udfCall is a function feed's UDF at one partition: the prepared SQL++
// function, or else the partition's native instance.
type udfCall struct {
	prepared *query.PreparedEnrich
	instance udf.Instance
}

// udfCalls returns the calls of n partitions: prepared shared, or a
// native instance each, created and initialized.
func udfCalls(prepared *query.PreparedEnrich, native *udf.Native, n int) ([]udfCall, error) {
	calls := make([]udfCall, n)
	for p := range calls {
		calls[p].prepared = prepared
		if native != nil {
			calls[p].instance = native.New()
			if err := calls[p].instance.Initialize(p); err != nil {
				return nil, err
			}
		}
	}
	return calls, nil
}

// frame frames what the function makes of rec for the storage partition
// that owns its key: a SQL++ row is spliced into its frame's slab
// (frameRouter.splice), a native UDF's result encoded into it.
func (fn *udfCall) frame(r *frameRouter, rec adm.Value, out hyracks.Writer) error {
	if fn.prepared != nil {
		return r.splice(fn.prepared, rec, out)
	}
	row, err := fn.instance.Evaluate(rec)
	if err != nil {
		return err
	}
	return r.add(row, out)
}

// buildComputeSpec assembles the computing job: one collector per live
// node and no connector. The collector parses, runs the function and
// routes what it makes of each record (recordEncoder), and pushes each
// frame, addressed to its storage partition, straight into its node's
// storage holder (holderWriter); the storage job forwards it from there.
// Under FusedInsert the collector feeds the storage writers through the
// storage exchange instead. The spec is a reusable skeleton: operator
// factories resolve the current per-batch state through f.curInv when an
// invocation instantiates them, so the predeployed path builds it once
// and reuses it for every batch.
func (f *Feed) buildComputeSpec() *hyracks.JobSpec {
	spec := hyracks.NewJobSpec()
	spec.QueueCapacity = f.cluster.Tuning().HolderCapacity
	n := len(f.nodes)

	collectorOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "collector-parser",
		Parallelism: n,
		NewSource: func(p int) (hyracks.Source, error) {
			inv := f.curInv.Load()
			var fn *udfCall
			if inv.calls != nil {
				fn = &inv.calls[p]
			}
			return hyracks.SourceFunc(func(tc *hyracks.TaskContext, out hyracks.Writer) error {
				if err := out.Open(); err != nil {
					return err
				}
				if f.eof[p].Load() {
					return nil
				}
				if !f.cfg.FusedInsert {
					out = holderWriter{ctx: tc.Ctx, sunk: &f.sunk, holder: f.storageHolders[p]}
				}
				frames, eof, err := f.intakeHolders[p].PullFrames(tc.Ctx, f.quota)
				if err != nil {
					return err
				}
				if eof {
					f.eof[p].Store(true)
				}
				// Each line becomes a view of its encoding, or of its
				// enriched row, in its storage partition's slab
				// (recordEncoder), and full frames are pushed on.
				enc := &f.encoders[p]
				lines := 0
				for _, fr := range frames {
					lines += len(fr.Raw)
				}
				enc.begin(lines)
				var admitted, rejected int64
				for _, fr := range frames {
					// Collection is the delivery point for offset
					// accounting: once this invocation finishes, every
					// record collected here has been pushed to storage
					// holders, and the checkpoint barrier (stored >=
					// sunk) covers the rest of the path.
					f.markDelivered(fr)
					for _, raw := range fr.Raw {
						ok, err := enc.encode(raw, f.dt, fn, out)
						if err != nil {
							return err
						}
						if ok {
							admitted++
						} else {
							rejected++
						}
					}
					// The lines are encoded, so the line arena goes back
					// to the pool for the adapter's next frame.
					hyracks.RecycleFrame(fr)
				}
				f.stats.intake(admitted, rejected)
				return enc.flush(out)
			}), nil
		},
	})

	if f.cfg.FusedInsert {
		// Section 5.1's insert job: UDF evaluation and storage write in
		// one job — the write (and its log flush) gates the invocation.
		connectStorage(spec, collectorOp, "fused-storage-writer", f.ds, f.stats)
	}
	return spec
}

// holderWriter is a collector's output in the decoupled pipeline: it
// hands each frame to the node's storage holder, counting its records in
// sunk first — once pushed the frame is owned downstream, and the
// checkpoint barrier needs sunk >= every record ever handed to storage.
type holderWriter struct {
	ctx    context.Context
	sunk   *atomic.Int64
	holder *hyracks.PassiveHolder
}

func (w holderWriter) Open() error  { return nil }
func (w holderWriter) Close() error { return nil }
func (w holderWriter) Push(fr hyracks.Frame) error {
	w.sunk.Add(int64(fr.Len()))
	return w.holder.PushFrame(w.ctx, fr)
}

// runAFM is the Active Feed Manager loop: keep invoking computing jobs
// while any intake partition still has data, checkpointing delivered
// offsets between batches, then shut the storage job down.
func (f *Feed) runAFM() {
	defer close(f.afmDone)
	// The manager keeps a stopped feed around for its final counters;
	// its enrichment state must not stay reachable with it.
	defer func() {
		f.prepared = nil
		f.curInv.Store(nil)
	}()
	ckptEvery := f.cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	sinceCkpt := 0
	for f.jobCtx.Err() == nil && !f.allEOF() {
		start := time.Now()
		inv, err := f.newInvocation()
		if err != nil {
			f.fail(err)
			break
		}
		f.curInv.Store(inv)
		var job *hyracks.Job
		if f.cfg.RecompilePerBatch {
			// Ablation: rebuild the whole spec skeleton per batch, the
			// cost the predeployed path caches away.
			job, err = f.cluster.StartJob(f.jobCtx, f.buildComputeSpec())
		} else {
			job, err = f.cluster.InvokePredeployed(f.jobCtx, f.computeID, f.computeSpec)
		}
		if err != nil {
			f.fail(err)
			break
		}
		if err := job.Wait(); err != nil {
			f.fail(err)
			break
		}
		f.stats.mu.Lock()
		f.stats.st.Invocations++
		f.stats.batchNanos += time.Since(start).Nanoseconds()
		f.stats.mu.Unlock()
		if sinceCkpt++; sinceCkpt >= ckptEvery {
			sinceCkpt = 0
			f.checkpoint()
		}
	}
	for _, sh := range f.storageHolders {
		sh.CloseInput()
	}
}

// storageBarrier waits until every record the collectors handed to
// storage holders has been written (stored >= sunk) — the ordering that
// makes a checkpoint truthful: offsets at or below the watermark were
// collected in finished invocations, so their records are counted in
// sunk, and the barrier sees them through the partition WAL commits.
// Returns false when the feed is going down instead.
//
// Both sides of the comparison are per-incarnation: sunk starts at zero
// every Start, while Stored is cumulative across failover
// restarts, so the barrier measures it relative to storedBase. Without
// that base a resumed feed's barrier would be trivially satisfied by
// the previous incarnation's stores and checkpoints could cover
// offsets whose records are still sitting un-stored in holder rings.
func (f *Feed) storageBarrier() bool {
	target := f.sunk.Load()
	for f.stats.snapshot().Stored-f.storedBase < target {
		if f.jobCtx.Err() != nil {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// checkpoint durably records each adapter slot's delivery watermark
// through the partition WALs (every partition, so any surviving subset
// can recover it). Called from the AFM between invocations and once
// more after a clean drain; never concurrently with itself.
func (f *Feed) checkpoint() {
	dirty := false
	marks := make([]uint64, len(f.trackers))
	for i, t := range f.trackers {
		marks[i] = t.cut()
		if marks[i] > f.lastCkpt[i] {
			dirty = true
		}
	}
	if !dirty {
		return
	}
	if !f.storageBarrier() {
		return
	}
	for i, w := range marks {
		if w <= f.lastCkpt[i] {
			continue
		}
		if err := f.ds.PutCheckpoint(ckptScope(f.cfg.Name, i), w); err != nil {
			f.fail(err)
			return
		}
		f.lastCkpt[i] = w
		f.stats.checkpointed(w)
	}
}

func (f *Feed) allEOF() bool {
	for i := range f.eof {
		if !f.eof[i].Load() {
			return false
		}
	}
	return true
}

func (f *Feed) fail(err error) {
	if err == nil {
		return
	}
	f.errOnce.Do(func() { f.feedErr.Store(&err) })
	f.jobCancel()
}

// err returns the first recorded pipeline failure, or nil.
func (f *Feed) err() error {
	if p := f.feedErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stop gracefully ends the feed: adapters stop taking new data, the
// remaining batches drain, then the storage job finishes.
func (f *Feed) Stop() { f.adaptStop() }

// Wait blocks until the whole pipeline has drained and returns the first
// error. For generator-backed feeds it returns once all generated data
// is stored; socket/channel feeds need Stop first. Safe to call from
// multiple goroutines (the manager's failover watcher and StopFeed both
// wait); every caller gets the same result.
func (f *Feed) Wait() error {
	f.waitOnce.Do(func() { f.waitErr = f.waitInner() })
	return f.waitErr
}

func (f *Feed) waitInner() error {
	intakeErr := f.intakeJob.Wait()
	<-f.afmDone
	var storageErr error
	if f.storageJob != nil {
		storageErr = f.storageJob.Wait()
	}
	// Final checkpoint: after a clean drain everything sunk is stored,
	// so the barrier is already satisfied and the last watermark covers
	// the whole stream.
	if f.err() == nil && intakeErr == nil && storageErr == nil {
		f.checkpoint()
	}
	f.teardownHolders()
	f.cluster.Undeploy(f.computeID)
	f.jobCancel()
	switch {
	// Re-read after checkpoint: a failed final checkpoint records its
	// error through fail() and must surface here.
	case f.err() != nil:
		return f.err()
	case intakeErr != nil:
		return intakeErr
	default:
		return storageErr
	}
}

func (f *Feed) teardownHolders() {
	for _, node := range f.nodes {
		f.cluster.Node(node).Holders.Unregister(f.cfg.Name + "/intake")
		f.cluster.Node(node).Holders.Unregister(f.cfg.Name + "/storage")
	}
	f.closeSpillers()
}

func (f *Feed) closeSpillers() {
	for i, sq := range f.spillers {
		if sq != nil {
			sq.Close()
			f.spillers[i] = nil
		}
	}
}
