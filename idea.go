// Package idea is a Go reproduction of the data-enrichment ingestion
// framework from "An IDEA: An Ingestion Framework for Data Enrichment in
// AsterixDB" (Wang & Carey, PVLDB 12(11), 2019).
//
// A Cluster simulates an N-node AsterixDB deployment: declare types,
// datasets, indexes, and UDFs with SQL++ DDL; attach UDFs to feeds; and
// ingest live data through the paper's decoupled intake / computing /
// storage pipeline, whose per-batch state refresh lets stateful
// enrichment observe reference-data updates. See README.md for a
// walkthrough and docs/ARCHITECTURE.md for the architecture and the
// frame/arena ownership model.
package idea

import (
	"context"
	"fmt"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/core"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/udf"
)

// Config sizes and tunes a simulated cluster. The zero value is usable:
// one node with default tuning.
type Config struct {
	// Nodes is the simulated cluster size (default 1).
	Nodes int
	// DispatchOverheadPerNode simulates per-node job compile-and-
	// distribute cost; InvokeOverheadPerNode the (cheaper) predeployed-
	// job invocation message. Defaults model a LAN deployment.
	DispatchOverheadPerNode time.Duration
	// InvokeOverheadPerNode — see DispatchOverheadPerNode.
	InvokeOverheadPerNode time.Duration
	// HolderCapacity bounds partition-holder queues in frames (default
	// 64).
	HolderCapacity int
	// FrameCapacity is records per frame (default 128).
	FrameCapacity int
	// DataDir, when set, makes storage durable: every dataset keeps an
	// on-disk write-ahead log, flushed run files, and a manifest under
	// DataDir, recovered on the next boot. Empty (the default) keeps
	// storage in memory — the original simulation behaviour.
	DataDir string
	// BlockCacheBytes budgets the durable read path's block cache,
	// shared across every dataset partition. 0 selects the default
	// (64 MiB); a negative value disables caching. Only meaningful with
	// DataDir set.
	BlockCacheBytes int64
}

// Cluster is a running simulated deployment plus its feed manager.
type Cluster struct {
	inner *cluster.Cluster
	mgr   *core.Manager
	ctx   context.Context
}

// NewCluster boots a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	tuning := cluster.DefaultTuning()
	if cfg.DispatchOverheadPerNode > 0 {
		tuning.DispatchOverheadPerNode = cfg.DispatchOverheadPerNode
	}
	if cfg.InvokeOverheadPerNode > 0 {
		tuning.InvokeOverheadPerNode = cfg.InvokeOverheadPerNode
	}
	if cfg.HolderCapacity > 0 {
		tuning.HolderCapacity = cfg.HolderCapacity
	}
	if cfg.FrameCapacity > 0 {
		tuning.FrameCapacity = cfg.FrameCapacity
	}
	tuning.DataDir = cfg.DataDir
	tuning.BlockCacheBytes = cfg.BlockCacheBytes
	inner, err := cluster.New(cfg.Nodes, tuning)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		inner: inner,
		mgr:   core.NewManager(inner),
		ctx:   context.Background(),
	}, nil
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.inner.NumNodes() }

// KillNode simulates a partition failure: every pipeline operator
// pinned to the node fails with ErrPartitionDown. Feeds started with
// failover enabled (the default) restart on the surviving nodes and
// resume from their last checkpoint. Storage is not destroyed — the
// simulation models shared storage that survivors can reach. Killing
// an already-dead or out-of-range node is a no-op.
func (c *Cluster) KillNode(node int) { c.inner.KillNode(node) }

// NodeAlive reports whether a node is still up.
func (c *Cluster) NodeAlive(node int) bool { return c.inner.NodeAlive(node) }

// FeedSource supplies raw records to a feed: Run emits one record per
// call until the source is exhausted or ctx is canceled; emit blocks for
// backpressure. It is the public face of the paper's feed adapter.
//
// Emitted bytes travel the pipeline zero-copy: the feed retains each
// slice until the record has been parsed, so Run must hand every emit
// call its own slice (or one it will never mutate again). A source that
// instead reuses a read buffer across emits must also implement
// VolatileFeedSource, and the feed will copy each emit into a pooled
// per-frame arena.
type FeedSource interface {
	Run(ctx context.Context, emit func(record []byte) error) error
}

// VolatileFeedSource marks a FeedSource whose emitted slices are valid
// only for the duration of the emit call (a recycled read buffer).
type VolatileFeedSource interface {
	FeedSource
	// VolatileEmits reports that emitted bytes must be copied before
	// the emit call returns.
	VolatileEmits() bool
}

// ResumableFeedSource is a FeedSource whose records live in a
// replayable, monotonic offset space (offsets are dense and start
// at 1). Feeds checkpoint the delivered offsets through the storage
// write-ahead log, and a restarted feed — after a crash, a clean stop,
// or partition failover — calls RunFrom with the last checkpoint so the
// source resumes where durable storage left off. Records between the
// checkpoint and the failure point are redelivered; last-wins upsert
// makes that idempotent. This is the at-least-once delivery contract.
type ResumableFeedSource interface {
	FeedSource
	RunFrom(ctx context.Context, from uint64, emit func(offset uint64, record []byte) error) error
}

// sourceAdapter bridges FeedSource to the internal adapter interface,
// forwarding the volatility declaration when the source makes one.
type sourceAdapter struct{ src FeedSource }

func (a sourceAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	return a.src.Run(ctx, emit)
}

func (a sourceAdapter) VolatileEmits() bool {
	if v, ok := a.src.(VolatileFeedSource); ok {
		return v.VolatileEmits()
	}
	return false
}

// resumableSourceAdapter additionally exposes the resume contract; a
// separate type so a plain FeedSource never accidentally satisfies the
// internal ResumableAdapter interface.
type resumableSourceAdapter struct {
	sourceAdapter
	rsrc ResumableFeedSource
}

func (a resumableSourceAdapter) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	return a.rsrc.RunFrom(ctx, from, emit)
}

// RecordsSource replays a fixed record slice (bulk generators, tests).
// It is resumable: record i has offset i+1.
type RecordsSource struct {
	// Records are emitted in order.
	Records [][]byte
}

// Run implements FeedSource.
func (s *RecordsSource) Run(ctx context.Context, emit func([]byte) error) error {
	return (&core.GeneratorAdapter{Records: s.Records}).Run(ctx, emit)
}

// RunFrom implements ResumableFeedSource.
func (s *RecordsSource) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	return (&core.GeneratorAdapter{Records: s.Records}).RunFrom(ctx, from, emit)
}

// ChannelSource emits records pushed into C; close the channel to end
// the feed gracefully.
type ChannelSource struct {
	// C supplies the records.
	C <-chan []byte
}

// Run implements FeedSource.
func (s *ChannelSource) Run(ctx context.Context, emit func([]byte) error) error {
	return (&core.ChannelAdapter{C: s.C}).Run(ctx, emit)
}

// SetFeedSource installs the source factory for a declared feed whose
// adapter is "channel_adapter" (socket feeds configure themselves from
// the DDL). The factory is invoked once per intake node.
func (c *Cluster) SetFeedSource(feed string, factory func(node int) (FeedSource, error)) error {
	return c.mgr.SetAdapterFactory(feed, func(i int) (core.Adapter, error) {
		src, err := factory(i)
		if err != nil {
			return nil, err
		}
		if rsrc, ok := src.(ResumableFeedSource); ok {
			return resumableSourceAdapter{sourceAdapter{src}, rsrc}, nil
		}
		return sourceAdapter{src}, nil
	})
}

// NativeUDF is the compiled-code UDF contract (the paper's Java UDF):
// Initialize loads resources and builds state; Evaluate enriches one
// record. On the dynamic pipeline a fresh instance is initialized per
// batch, so updated resources are observed; see RegisterNativeUDF.
type NativeUDF interface {
	Initialize(node int) error
	Evaluate(record Value) (Value, error)
}

type nativeShim struct{ impl NativeUDF }

func (s nativeShim) Initialize(node int) error { return s.impl.Initialize(node) }
func (s nativeShim) Evaluate(rec adm.Value) (adm.Value, error) {
	out, err := s.impl.Evaluate(Value{rec})
	if err != nil {
		return adm.Value{}, err
	}
	return out.v, nil
}

// RegisterNativeUDF registers a compiled UDF usable in CONNECT FEED ...
// APPLY FUNCTION. stateful declares that Initialize builds state that
// must be refreshed to observe updates.
func (c *Cluster) RegisterNativeUDF(name string, stateful bool, newInstance func() NativeUDF) error {
	return c.mgr.Natives.Register(&udf.Native{
		Name:     name,
		Stateful: stateful,
		New: func() udf.Instance {
			return nativeShim{impl: newInstance()}
		},
	})
}

// PutResource installs (or replaces) a named resource "file" that native
// UDFs read in Initialize — the paper's node-local resource files.
func (c *Cluster) PutResource(name string, data []byte) {
	c.mgr.Resources.Put(name, data)
}

// Resource reads a resource file's current content as lines.
func (c *Cluster) Resource(name string) ([]string, bool) {
	return c.mgr.Resources.Lines(name)
}

// RegisterLibraryFunction registers a namespaced scalar function callable
// from SQL++ as ns#name(args...) — the Figure 35 pattern.
func (c *Cluster) RegisterLibraryFunction(ns, name string, fn func(args []Value) (Value, error)) {
	c.inner.RegisterNative(ns, name, func(args []adm.Value) (adm.Value, error) {
		wrapped := make([]Value, len(args))
		for i, a := range args {
			wrapped[i] = Value{a}
		}
		out, err := fn(wrapped)
		if err != nil {
			return adm.Value{}, err
		}
		return out.v, nil
	})
}

// Feed is a handle on a running feed pipeline.
type Feed struct {
	name string
	c    *Cluster
}

// Name returns the feed's declared name — the identity that STOP FEED
// and the wire protocol's result summaries use (handles don't cross
// the network; names do).
func (f *Feed) Name() string { return f.name }

// Stop gracefully stops the feed and waits for in-flight data to drain
// to storage.
func (f *Feed) Stop() error { return f.c.mgr.StopFeed(f.name) }

// Wait blocks until the feed's source is exhausted and everything is
// stored (generator-style sources). Socket/channel feeds need Stop (or a
// closed channel) to terminate.
func (f *Feed) Wait() error {
	inner, ok := f.c.mgr.Feed(f.name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrFeedNotRunning, f.name)
	}
	return inner.Wait()
}

// FeedStats is a snapshot of a feed pipeline's counters.
type FeedStats struct {
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
	// StateBuilds counts invocations of a SQL++ UDF that built
	// enrichment state (hash tables, R-trees, ...) because reference
	// data had changed since the previous batch; StateReuses counts
	// those that reused the previous batch's state whole. AccessBuilds
	// counts the individual structures the builds produced. A feed whose
	// StateBuilds keeps pace with Invocations pays the rebuild on every
	// batch.
	StateBuilds  int64
	StateReuses  int64
	AccessBuilds int64
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

// Stats reports the feed's counters. A running feed reports live
// numbers; a stopped feed reports its final numbers (Running false).
// The error is non-nil — wrapping ErrUnknownFeed or ErrFeedNotRunning —
// when the manager has nothing to report: the feed was never declared,
// or was declared but never started.
func (f *Feed) Stats() (FeedStats, error) {
	inner, running, known := f.c.mgr.Lookup(f.name)
	if !known {
		return FeedStats{}, fmt.Errorf("%w: %q", ErrUnknownFeed, f.name)
	}
	if inner == nil {
		return FeedStats{}, fmt.Errorf("%w: %q never started", ErrFeedNotRunning, f.name)
	}
	s := inner.Stats()
	out := FeedStats{
		Ingested:       s.Ingested.Load(),
		Stored:         s.Stored.Load(),
		ParseErrors:    s.ParseErrors.Load(),
		Invocations:    s.Invocations.Load(),
		MeanRefresh:    s.RefreshPeriod(),
		StateBuilds:    s.StateBuilds.Load(),
		StateReuses:    s.StateReuses.Load(),
		AccessBuilds:   s.AccessBuilds.Load(),
		Running:        running,
		SpilledFrames:  s.SpilledFrames.Load(),
		SpilledRecords: s.SpilledRecords.Load(),
		ShedFrames:     s.ShedFrames.Load(),
		ShedRecords:    s.ShedRecords.Load(),
		SampledFrames:  s.SampledFrames.Load(),
		SampledRecords: s.SampledRecords.Load(),
		LastCheckpoint: s.LastCheckpoint.Load(),
		Resumptions:    s.Resumptions.Load(),
	}
	if running {
		out.BufferedFrames = inner.Buffered()
		out.SpillBacklog = inner.SpillBacklog()
	}
	return out, nil
}

// StorageStats is a point-in-time snapshot of the durable read path:
// the shared block cache plus the fence/bloom/block-read counters
// summed over every dataset. All zero for in-memory clusters.
type StorageStats struct {
	// Block cache counters (zero when caching is disabled).
	BlockCacheHits      uint64
	BlockCacheMisses    uint64
	BlockCacheEvictions uint64
	BlockCacheEntries   int
	BlockCachePinned    int
	BlockCacheBytes     int64
	// FenceSkips counts point lookups rejected by a run's key-range
	// fences; BloomSkips those rejected by its bloom filter — both
	// without touching a block. BlockReads counts framed block reads
	// that reached the filesystem.
	FenceSkips uint64
	BloomSkips uint64
	BlockReads uint64
	// OpenRunFiles gauges the open on-disk run files (including retired
	// ones kept alive by snapshots or cursors).
	OpenRunFiles int
}

// StorageStats reports the cluster's durable read-path counters.
func (c *Cluster) StorageStats() StorageStats {
	s := c.inner.StorageStats()
	return StorageStats{
		BlockCacheHits:      s.BlockCacheHits,
		BlockCacheMisses:    s.BlockCacheMisses,
		BlockCacheEvictions: s.BlockCacheEvictions,
		BlockCacheEntries:   s.BlockCacheEntries,
		BlockCachePinned:    s.BlockCachePinned,
		BlockCacheBytes:     s.BlockCacheBytes,
		FenceSkips:          s.FenceSkips,
		BloomSkips:          s.BloomSkips,
		BlockReads:          s.BlockReads,
		OpenRunFiles:        s.OpenRunFiles,
	}
}

// DatasetLen returns the number of live records in a dataset.
func (c *Cluster) DatasetLen(name string) (int, error) {
	ds, ok := c.inner.Dataset(name)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return ds.Len(), nil
}

// Get fetches one record by primary key.
func (c *Cluster) Get(dataset string, pk Value) (Value, bool, error) {
	ds, ok := c.inner.Dataset(dataset)
	if !ok {
		return Value{}, false, fmt.Errorf("%w %q", ErrUnknownDataset, dataset)
	}
	rec, found := ds.Get(pk.v)
	return Value{rec}, found, nil
}

// CallFunction invokes a catalog UDF directly (handy for testing
// enrichment logic outside a pipeline). The result is the function's
// value — for the paper-style UDFs, a one-element collection.
func (c *Cluster) CallFunction(name string, args ...Value) (Value, error) {
	fn, ok := c.inner.Function(name)
	if !ok {
		return Value{}, fmt.Errorf("%w %q", ErrUnknownFunction, name)
	}
	converted := make([]adm.Value, len(args))
	for i, a := range args {
		converted[i] = a.v
	}
	out, err := query.Call(c.inner, fn, converted)
	if err != nil {
		return Value{}, err
	}
	return Value{out}, nil
}
