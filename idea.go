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
// frame ownership model.
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
	// DataDir chooses where the storage engine keeps its files — there
	// is one engine either way. Set, every dataset's write-ahead log, run
	// files and manifest live under DataDir and are recovered on the
	// next boot. Empty (the default) keeps the same files in process
	// memory: the cluster then holds encoded runs plus the shared block
	// cache rather than decoded trees, and loses them when it goes.
	DataDir string
	// BlockCacheBytes budgets the read path's block cache, shared across
	// every dataset partition: the budget counts decoded blocks plus the
	// on-disk frames kept beside them. 0 selects the default (64 MiB); a
	// negative value keeps no block resident.
	BlockCacheBytes int64
}

// Cluster is a running simulated deployment plus its feed manager.
type Cluster struct {
	inner *cluster.Cluster
	mgr   *core.Manager
	ctx   context.Context
	stmts stmtCache
}

// NewCluster boots a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	// A zero Config overhead asks for the default but a zero Tuning
	// overhead means none (experiments switch the simulated cost off
	// that way), so those two map here; cluster.New defaults the sizes.
	tuning := cluster.DefaultTuning()
	if cfg.DispatchOverheadPerNode > 0 {
		tuning.DispatchOverheadPerNode = cfg.DispatchOverheadPerNode
	}
	if cfg.InvokeOverheadPerNode > 0 {
		tuning.InvokeOverheadPerNode = cfg.InvokeOverheadPerNode
	}
	tuning.HolderCapacity = cfg.HolderCapacity
	tuning.FrameCapacity = cfg.FrameCapacity
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

// FeedSource supplies raw records to a feed — the public name of the
// paper's feed adapter: Run emits one record per call until the source
// is exhausted or ctx is canceled; emit blocks for backpressure.
//
// Emitted bytes are copied before emit returns, so Run may reuse its
// read buffer across emits. (This and the optional contract below are
// the engine's own interfaces: the feed honours ResumableFeedSource
// when the value a SetFeedSource factory returns implements it.)
type FeedSource = core.Adapter

// ResumableFeedSource is a FeedSource whose records live in a
// replayable, monotonic offset space (offsets are dense and start
// at 1): it adds RunFrom(ctx, from, emit). Feeds checkpoint the
// delivered offsets through the storage write-ahead log, and a
// restarted feed — after a crash, a clean stop, or partition failover —
// calls RunFrom with the last checkpoint so the source resumes where
// durable storage left off. Records between the checkpoint and the
// failure point are redelivered; last-wins upsert makes that
// idempotent. This is the at-least-once delivery contract.
type ResumableFeedSource = core.ResumableAdapter

// RecordsSource replays a fixed record slice, Records (bulk generators,
// tests). It is resumable: record i has offset i+1.
type RecordsSource = core.GeneratorAdapter

// ChannelSource emits records pushed into its channel C; close the
// channel to end the feed gracefully.
type ChannelSource = core.ChannelAdapter

// SetFeedSource installs the source factory for a declared feed whose
// adapter is "channel_adapter" (socket feeds configure themselves from
// the DDL). The factory runs once per adapter slot each time the feed
// starts, failover restarts included; a feed declared in DDL has one
// slot, 0.
func (c *Cluster) SetFeedSource(feed string, factory func(slot int) (FeedSource, error)) error {
	return c.mgr.SetAdapterFactory(feed, factory)
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
// APPLY FUNCTION.
func (c *Cluster) RegisterNativeUDF(name string, newInstance func() NativeUDF) error {
	return c.mgr.Natives.Register(&udf.Native{
		Name: name,
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
	inner, running, _ := f.c.mgr.Lookup(f.name)
	if !running {
		return fmt.Errorf("%w: %q", ErrFeedNotRunning, f.name)
	}
	return inner.Wait()
}

// Feeds returns a handle for every declared feed, sorted by name.
func (c *Cluster) Feeds() []*Feed {
	names := c.mgr.FeedNames()
	feeds := make([]*Feed, len(names))
	for i, name := range names {
		feeds[i] = &Feed{name: name, c: c}
	}
	return feeds
}

// FeedStats is a snapshot of a feed pipeline's counters.
type FeedStats = core.FeedStats

// Stats reports the feed's counters. A running feed reports live
// numbers; a stopped feed reports its final numbers (Running false).
// The error is non-nil — wrapping ErrUnknownFeed or ErrFeedNotRunning —
// when the manager has nothing to report: the feed was never declared,
// or was declared but never started. The stats carry the feed's name
// either way.
func (f *Feed) Stats() (FeedStats, error) {
	inner, running, known := f.c.mgr.Lookup(f.name)
	if !known {
		return FeedStats{Name: f.name}, fmt.Errorf("%w: %q", ErrUnknownFeed, f.name)
	}
	if inner == nil {
		return FeedStats{Name: f.name}, fmt.Errorf("%w: %q never started", ErrFeedNotRunning, f.name)
	}
	st := inner.Stats()
	if running {
		st.Running, st.BufferedFrames, st.SpillBacklog = true, inner.Buffered(), inner.SpillBacklog()
	}
	return st, nil
}

// StorageStats is a point-in-time snapshot of the cluster's storage:
// the shared block cache (BlockCacheHits, ...) and every dataset
// partition's counters summed (Flushes, Merges, FenceSkips,
// BloomSkips, BlockReads, OpenRunFiles, ...). The read-path counters
// are all zero for in-memory clusters.
type StorageStats = cluster.StorageStats

// StorageStats reports the cluster's storage counters.
func (c *Cluster) StorageStats() StorageStats { return c.inner.StorageStats() }

// DatasetLen returns the number of live records in a dataset, or the
// read fault of a run it cannot read.
func (c *Cluster) DatasetLen(name string) (int, error) {
	ds, ok := c.inner.Dataset(name)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return ds.Len()
}

// Get fetches one record by primary key. A storage read fault is the
// error, never a not-found.
func (c *Cluster) Get(dataset string, pk Value) (Value, bool, error) {
	ds, ok := c.inner.Dataset(dataset)
	if !ok {
		return Value{}, false, fmt.Errorf("%w %q", ErrUnknownDataset, dataset)
	}
	rec, found, err := ds.Partition(ds.Route(pk.v)).Get(pk.v)
	return Value{rec}, found, err
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
