// Package cluster simulates the AsterixDB cluster the ingestion
// framework runs on: one Cluster Controller (metadata catalog,
// predeployed-job registry, job dispatch) plus N Node Controllers. A
// node is in-process and is what the runtime observes of it: a liveness
// flag, a partition-holder registry, and one unit of the dispatch and
// invoke overhead. A dataset has as many storage partitions as the
// cluster has nodes, but no node owns one (a killed node's partitions
// stay writable), and operators are not placed on nodes — see
// docs/ARCHITECTURE.md for why the simulation preserves the paper's
// experimental shapes.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
)

// Tuning models the costs a real deployment pays that an in-process
// simulation otherwise would not, and sizes the runtime buffers.
// DefaultTuning states the defaults, and the field docs of idea.Config
// say which of them the public API exposes; experiments print the
// tuning they ran with.
type Tuning struct {
	// DispatchOverheadPerNode is charged (once per node) when starting a
	// job from scratch: query compilation + job-specification
	// distribution.
	DispatchOverheadPerNode time.Duration
	// InvokeOverheadPerNode is charged (once per node) when invoking a
	// predeployed job: just the invocation message. The gap between this
	// and DispatchOverheadPerNode is what the paper's predeployed-job
	// technique buys.
	InvokeOverheadPerNode time.Duration
	// HolderCapacity bounds partition-holder and connector queues
	// (frames).
	HolderCapacity int
	// FrameCapacity is the number of records per frame.
	FrameCapacity int
	// Storage configures each LSM partition.
	Storage lsm.Options
	// DataDir chooses where the storage engine's files live: every
	// partition keeps its WAL, run files and manifest under
	// DataDir/<dataset>/pNNN, and CreateDataset recovers what is already
	// there. Empty (the default) keeps the same files in a filesystem
	// private to the cluster, in process memory; they go with it.
	DataDir string
	// StorageFS overrides the filesystem (tests inject MemFS for crash
	// simulation). Nil selects the real filesystem when DataDir is set
	// and a fresh lsm.NewMemFS otherwise; New resolves it, so Tuning()
	// always reports the filesystem in use.
	StorageFS lsm.FS
	// BlockCacheBytes is the cluster-wide byte budget of the read path's
	// block cache, shared by every dataset partition: it counts decoded
	// blocks plus the on-disk frames kept beside them. New builds
	// Storage.BlockCache from it. 0 selects the default
	// (lsm.DefaultBlockCacheBytes); negative keeps no block resident.
	BlockCacheBytes int64
}

// DefaultTuning returns the documented defaults.
func DefaultTuning() Tuning {
	return Tuning{
		DispatchOverheadPerNode: 150 * time.Microsecond,
		InvokeOverheadPerNode:   25 * time.Microsecond,
		HolderCapacity:          64,
		FrameCapacity:           128,
		Storage:                 lsm.DefaultOptions(),
	}
}

// ErrPartitionDown reports an operation routed to a node whose
// partition has been killed. Feeds translate it into failover: the
// manager restarts intake on the surviving nodes and replays from the
// last checkpoint.
var ErrPartitionDown = errors.New("idea: partition down")

// ErrClosed reports an operation on a cluster after Close. Ping (and
// through it the wire server's liveness probe) returns it so clients
// can tell a shut-down engine from a healthy one.
var ErrClosed = errors.New("idea: cluster is closed")

// NodeController is one simulated worker node.
type NodeController struct {
	// ID is the node number (0-based).
	ID int
	// Holders is the node-local partition-holder registry.
	Holders *hyracks.HolderManager

	// down is set by KillNode; a dead node's holders are poisoned and
	// feeds must not place new work on it.
	down atomic.Bool
}

// Alive reports whether the node has not been killed.
func (n *NodeController) Alive() bool { return !n.down.Load() }

// Cluster is the whole simulated deployment and doubles as the query
// catalog (it is the metadata node).
type Cluster struct {
	tuning Tuning
	cache  *lsm.BlockCache // shared block cache
	nodes  []*NodeController
	closed atomic.Bool

	mu          sync.RWMutex
	datatypes   map[string]*adm.Datatype
	datasets    map[string]*lsm.Dataset
	opening     map[string]bool // dataset names CreateDataset has reserved
	functions   map[string]*query.Function
	natives     map[string]func([]adm.Value) (adm.Value, error)
	predeployed map[string]bool
}

// New creates a cluster of numNodes simulated nodes.
func New(numNodes int, tuning Tuning) (*Cluster, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if tuning.HolderCapacity <= 0 {
		tuning.HolderCapacity = DefaultTuning().HolderCapacity
	}
	if tuning.FrameCapacity <= 0 {
		tuning.FrameCapacity = DefaultTuning().FrameCapacity
	}
	if tuning.StorageFS == nil {
		if tuning.DataDir != "" {
			tuning.StorageFS = lsm.NewOSFS()
		} else {
			tuning.StorageFS = lsm.NewMemFS()
		}
	}
	budget := tuning.BlockCacheBytes
	if budget == 0 {
		budget = lsm.DefaultBlockCacheBytes
	}
	tuning.Storage.BlockCache = lsm.NewBlockCache(budget)
	c := &Cluster{
		tuning:      tuning,
		cache:       tuning.Storage.BlockCache,
		datatypes:   make(map[string]*adm.Datatype),
		datasets:    make(map[string]*lsm.Dataset),
		opening:     make(map[string]bool),
		functions:   make(map[string]*query.Function),
		natives:     make(map[string]func([]adm.Value) (adm.Value, error)),
		predeployed: make(map[string]bool),
	}
	for i := 0; i < numNodes; i++ {
		c.nodes = append(c.nodes, &NodeController{ID: i, Holders: hyracks.NewHolderManager()})
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *NodeController { return c.nodes[i] }

// KillNode simulates the failure of node i's controller process: the
// node is marked dead and every partition holder registered on it is
// poisoned with ErrPartitionDown, so jobs touching its endpoints fail
// fast instead of wedging. The node's storage partition is NOT
// destroyed — like a real deployment's shared or replicated storage,
// the data outlives the compute node, and surviving nodes keep writing
// to all dataset partitions (see docs/ARCHITECTURE.md on this
// simulation substitution). Idempotent.
func (c *Cluster) KillNode(i int) {
	n := c.nodes[i]
	if n.down.Swap(true) {
		return
	}
	n.Holders.FailAll(ErrPartitionDown)
}

// NodeAlive reports whether node i is still up.
func (c *Cluster) NodeAlive(i int) bool { return c.nodes[i].Alive() }

// LiveNodes returns the IDs of the nodes still up, ascending.
func (c *Cluster) LiveNodes() []int {
	live := make([]int, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Alive() {
			live = append(live, n.ID)
		}
	}
	return live
}

// Tuning returns the cluster's tuning.
func (c *Cluster) Tuning() Tuning { return c.tuning }

// StorageStats is the cluster-wide storage snapshot: the shared block
// cache's counters and every dataset partition's counters summed, both
// embedded as their packages declare them (the public idea.StorageStats
// is this type, and the STATS verb is generated from it).
type StorageStats struct {
	lsm.CacheStats
	lsm.Stats
}

// StorageStats returns a point-in-time snapshot of the storage
// counters.
func (c *Cluster) StorageStats() StorageStats {
	st := StorageStats{CacheStats: c.cache.Stats()}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ds := range c.datasets {
		st.Stats.Add(ds.Stats())
	}
	return st
}

// --- catalog (DDL surface) ---

// CreateDatatype registers a datatype.
func (c *Cluster) CreateDatatype(dt *adm.Datatype) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.datatypes[dt.Name]; dup {
		return fmt.Errorf("cluster: datatype %q exists", dt.Name)
	}
	c.datatypes[dt.Name] = dt
	return nil
}

// CreateDataset creates a dataset with one storage partition per node,
// recovering whatever its directory already holds. The name is reserved
// under the catalog lock and the storage opened outside it: recovery
// (manifest load, run opens, WAL replay, per partition) must not stall
// the Dataset and Function lookups of running statements and feeds.
func (c *Cluster) CreateDataset(name, typeName, primaryKey string) (*lsm.Dataset, error) {
	c.mu.Lock()
	_, dup := c.datasets[name]
	dt, typed := c.datatypes[typeName]
	var err error
	switch {
	case dup || c.opening[name]:
		err = fmt.Errorf("cluster: dataset %q exists", name)
	case typeName != "" && !typed:
		err = fmt.Errorf("cluster: unknown datatype %q", typeName)
	default:
		c.opening[name] = true
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	ds, err := lsm.OpenDataset(c.tuning.StorageFS, path.Join(c.tuning.DataDir, name), name, dt, primaryKey, len(c.nodes), c.tuning.Storage)

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.opening, name)
	if err == nil && c.closed.Load() {
		// Close ran meanwhile and will not come back for this dataset.
		err = errors.Join(ErrClosed, ds.Close())
	}
	if err != nil {
		return nil, err
	}
	c.datasets[name] = ds
	return ds, nil
}

// Close shuts down every dataset's storage (partitions drain their
// flushers, flush their memtables, delete their covered WALs and close
// run files: see lsm.Partition.Close).
// The cluster must not execute statements afterwards. Close is
// idempotent: a second call is a no-op.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, ds := range c.datasets {
		if err := ds.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Closed reports whether Close has been called.
func (c *Cluster) Closed() bool { return c.closed.Load() }

// Dataset implements query.Catalog.
func (c *Cluster) Dataset(name string) (*lsm.Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	return ds, ok
}

// DropDataset removes a dataset from the catalog, shuts its storage
// down and deletes its files — a dataset created under the same name
// afterwards starts empty (experiments recreate target datasets between
// runs).
func (c *Cluster) DropDataset(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.datasets[name]
	if !ok {
		return fmt.Errorf("cluster: unknown dataset %q", name)
	}
	delete(c.datasets, name)
	return ds.Drop()
}

// CreateIndex creates a secondary index: kind is "BTREE" or "RTREE".
func (c *Cluster) CreateIndex(name, dataset, field, kind string) error {
	ds, ok := c.Dataset(dataset)
	if !ok {
		return fmt.Errorf("cluster: unknown dataset %q", dataset)
	}
	switch kind {
	case "RTREE":
		return ds.CreateSpatialIndex(name, field)
	case "BTREE", "":
		// Field-recording creation so the query planner can match WHERE
		// predicates on the field to this index.
		return ds.CreateFieldBTreeIndex(name, field)
	}
	return fmt.Errorf("cluster: unknown index kind %q", kind)
}

// CreateFunction registers a UDF (SQL++ or native-backed).
func (c *Cluster) CreateFunction(fn *query.Function) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.functions[fn.Name]; dup {
		return fmt.Errorf("cluster: function %q exists", fn.Name)
	}
	c.functions[fn.Name] = fn
	return nil
}

// Function implements query.Catalog.
func (c *Cluster) Function(name string) (*query.Function, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn, ok := c.functions[name]
	return fn, ok
}

// RegisterNative registers a namespaced library function (the lib#fn
// form SQL++ calls).
func (c *Cluster) RegisterNative(ns, name string, fn func([]adm.Value) (adm.Value, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.natives[ns+"#"+name] = fn
}

// Native implements query.Catalog.
func (c *Cluster) Native(ns, name string) (func([]adm.Value) (adm.Value, error), bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn, ok := c.natives[ns+"#"+name]
	return fn, ok
}

// --- job dispatch ---

// StartJob compiles-and-distributes a job: full dispatch overhead.
func (c *Cluster) StartJob(ctx context.Context, spec *hyracks.JobSpec) (*hyracks.Job, error) {
	c.chargeOverhead(c.tuning.DispatchOverheadPerNode)
	return spec.Run(ctx)
}

// Predeploy registers a job template on every node (the paper's
// parameterized predeployed jobs), paying the compile-and-distribute
// cost once; later invocations pay only the invocation message. Each
// invocation supplies its parameterized specification (the batch to
// process), mirroring how predeployed jobs are invoked with new
// parameters.
func (c *Cluster) Predeploy(id string) error {
	c.mu.Lock()
	if c.predeployed[id] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: job %q already predeployed", id)
	}
	c.predeployed[id] = true
	c.mu.Unlock()
	// Distribution cost is paid once, here.
	c.chargeOverhead(c.tuning.DispatchOverheadPerNode)
	return nil
}

// InvokePredeployed starts one invocation of a predeployed job with only
// the invocation overhead.
func (c *Cluster) InvokePredeployed(ctx context.Context, id string, spec *hyracks.JobSpec) (*hyracks.Job, error) {
	c.mu.RLock()
	ok := c.predeployed[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no predeployed job %q", id)
	}
	c.chargeOverhead(c.tuning.InvokeOverheadPerNode)
	return spec.Run(ctx)
}

// Undeploy removes a predeployed job.
func (c *Cluster) Undeploy(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.predeployed, id)
}

// chargeOverhead sleeps out the simulated per-node cost of cluster-wide
// task activation. It grows with the cluster, which is exactly the
// execution-overhead-vs-cluster-size effect in Figs 24, 28, and 30.
func (c *Cluster) chargeOverhead(perNode time.Duration) {
	if perNode > 0 {
		time.Sleep(time.Duration(len(c.nodes)) * perNode)
	}
}

var _ query.Catalog = (*Cluster)(nil)
