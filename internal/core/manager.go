package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/udf"
)

// Manager is the Active Feed Manager's control surface: it tracks
// declared feeds (CREATE FEED), their connections (CONNECT FEED), and
// their running pipelines (START/STOP FEED). One Manager lives on the
// cluster controller.
type Manager struct {
	cluster   *cluster.Cluster
	Natives   *udf.Registry
	Resources *udf.ResourceStore

	mu    sync.Mutex
	feeds map[string]*managedFeed
}

type managedFeed struct {
	name    string
	config  adm.Value // raw CREATE FEED WITH {...} config
	adapter func(i int) (Adapter, error)
	dataset string
	fn      string
	running *Feed
	// last is the most recent pipeline, retained after StopFeed so
	// final statistics stay readable (a stopped feed's counters are the
	// numbers operators actually want).
	last *Feed
	// failover enables automatic restart on ErrPartitionDown (WITH
	// {"failover": false} opts out); ctx is the StartFeed context the
	// failover restart reuses.
	failover bool
	ctx      context.Context
	// restartErr records a failover restart that itself failed — the
	// feed is gone and StopFeed reports why instead of a bare
	// "not running".
	restartErr error
}

// feedConfig builds the Config the WITH-clause describes; an absent key
// leaves its field zero, which Start defaults. Caller holds m.mu.
func (mf *managedFeed) feedConfig(natives *udf.Registry) Config {
	intKey := func(key string) int {
		n, _ := mf.config.Field(key).AsInt()
		return int(n)
	}
	rate, _ := mf.config.Field("sample-rate").AsDouble()
	return Config{
		Name:             mf.name,
		Dataset:          mf.dataset,
		Function:         mf.fn,
		NewAdapter:       mf.adapter,
		Natives:          natives,
		BatchSize:        intKey("batch-size"),
		Congestion:       mf.config.Field("congestion-policy").StringVal(),
		SampleRate:       rate,
		CheckpointEvery:  intKey("checkpoint-every"),
		MaxSpilledFrames: intKey("max-spilled-frames"),
	}
}

// NewManager returns a Manager bound to the cluster.
func NewManager(c *cluster.Cluster) *Manager {
	return &Manager{
		cluster:   c,
		Natives:   udf.NewRegistry(),
		Resources: udf.NewResourceStore(),
		feeds:     make(map[string]*managedFeed),
	}
}

// feedKeys is every key CREATE FEED ... WITH understands; anything else
// is rejected at declaration instead of silently running at a default.
// type-name, format and address-type are accepted as the paper's
// Figure 4 spells them and consulted by nothing: records are JSON, the
// type is the connected dataset's, and sockets are IP.
var feedKeys = map[string]bool{
	"adapter-name": true, "sockets": true,
	"type-name": true, "format": true, "address-type": true,
	"batch-size": true, "congestion-policy": true, "sample-rate": true,
	"checkpoint-every": true, "max-spilled-frames": true, "failover": true,
}

// CreateFeed declares a feed from its WITH-config. Supported adapters:
// "socket_adapter" (config key "sockets") and "channel_adapter" (the
// caller supplies the channel via SetAdapterFactory).
func (m *Manager) CreateFeed(name string, config adm.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.feeds[name]; dup {
		return fmt.Errorf("core: feed %q exists", name)
	}
	if o := config.ObjectVal(); o != nil {
		for i := 0; i < o.Len(); i++ {
			if !feedKeys[o.Name(i)] {
				return fmt.Errorf("core: feed %q: unknown WITH key %q", name, o.Name(i))
			}
		}
	}
	mf := &managedFeed{name: name, config: config}
	switch adapterName := config.Field("adapter-name").StringVal(); adapterName {
	case "socket_adapter":
		addr := config.Field("sockets").StringVal()
		if addr == "" {
			return fmt.Errorf("core: socket_adapter needs a \"sockets\" address")
		}
		mf.adapter = func(int) (Adapter, error) { return &SocketAdapter{Addr: addr}, nil }
	case "", "channel_adapter":
		// factory installed later via SetAdapterFactory
	default:
		return fmt.Errorf("core: unknown adapter %q", adapterName)
	}
	m.feeds[name] = mf
	return nil
}

// FeedNames lists the declared feeds, sorted.
func (m *Manager) FeedNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.feeds))
	for name := range m.feeds {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// SetAdapterFactory installs a programmatic adapter factory for a feed
// (generator and channel adapters).
func (m *Manager) SetAdapterFactory(feed string, factory func(i int) (Adapter, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mf, ok := m.feeds[feed]
	if !ok {
		return fmt.Errorf("core: unknown feed %q", feed)
	}
	mf.adapter = factory
	return nil
}

// ConnectFeed binds a feed to its target dataset and optional UDF.
func (m *Manager) ConnectFeed(feed, dataset, function string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mf, ok := m.feeds[feed]
	if !ok {
		return fmt.Errorf("core: unknown feed %q", feed)
	}
	if _, ok := m.cluster.Dataset(dataset); !ok {
		return fmt.Errorf("core: unknown dataset %q", dataset)
	}
	mf.dataset = dataset
	mf.fn = function
	return nil
}

// StartFeed launches the feed's dynamic pipeline.
func (m *Manager) StartFeed(ctx context.Context, name string) (*Feed, error) {
	m.mu.Lock()
	mf, ok := m.feeds[name]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: unknown feed %q", name)
	}
	if mf.running != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: feed %q already running", name)
	}
	if mf.dataset == "" {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: feed %q is not connected to a dataset", name)
	}
	if mf.adapter == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: feed %q has no adapter", name)
	}
	cfg := mf.feedConfig(m.Natives)
	mf.failover = true
	if v := mf.config.Field("failover"); v.Kind() == adm.KindBoolean {
		mf.failover = v.BoolVal()
	}
	mf.ctx = ctx
	m.mu.Unlock()

	f, err := Start(ctx, m.cluster, cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	mf.running = f
	mf.last = f
	mf.restartErr = nil
	m.mu.Unlock()
	go m.watch(mf, f)
	return f, nil
}

// watch is the failover watcher for one pipeline incarnation: when the
// pipeline dies of a killed partition, restart it on the surviving
// nodes — same slot identities, shared counters — and let it resume
// from the last checkpoint. Clean finishes and other errors are left
// for StopFeed/Wait to observe as before.
func (m *Manager) watch(mf *managedFeed, f *Feed) {
	err := f.Wait()
	if err == nil || !errors.Is(err, cluster.ErrPartitionDown) {
		return
	}
	m.mu.Lock()
	if mf.running != f || !mf.failover {
		// Stopped, superseded, or failover disabled: nothing to do.
		m.mu.Unlock()
		return
	}
	mf.running = nil
	live := m.cluster.LiveNodes()
	if len(live) == 0 {
		m.mu.Unlock()
		return
	}
	cfg := mf.feedConfig(m.Natives)
	ctx := mf.ctx
	m.mu.Unlock()

	cfg.Nodes = live
	cfg.counters = f.stats
	nf, serr := Start(ctx, m.cluster, cfg)
	if serr != nil {
		// The restart itself failed: the feed is dead. Record why so
		// StopFeed can surface it instead of a bare "not running".
		m.mu.Lock()
		if mf.running == nil {
			mf.restartErr = fmt.Errorf("core: feed %q failover restart: %w", mf.name, serr)
		}
		m.mu.Unlock()
		return
	}
	cfg.counters.add(&cfg.counters.st.Resumptions, 1)
	m.mu.Lock()
	if mf.running != nil {
		// Raced with a manual StartFeed; yield to it.
		m.mu.Unlock()
		nf.Stop()
		nf.Wait()
		return
	}
	mf.running = nf
	mf.last = nf
	m.mu.Unlock()
	go m.watch(mf, nf)
}

// StopFeed gracefully stops a running feed and waits for it to drain.
// A feed that died because its failover restart failed reports that
// restart error here.
func (m *Manager) StopFeed(name string) error {
	m.mu.Lock()
	mf, ok := m.feeds[name]
	if ok && mf.running == nil && mf.restartErr != nil {
		err := mf.restartErr
		m.mu.Unlock()
		return err
	}
	if !ok || mf.running == nil {
		m.mu.Unlock()
		return fmt.Errorf("core: feed %q is not running", name)
	}
	f := mf.running
	mf.running = nil
	m.mu.Unlock()
	f.Stop()
	return f.Wait()
}

// Lookup resolves a feed by name: it returns the
// running pipeline, or — after a stop — the most recent one, so final
// counters remain readable. known is false for names never declared
// via CREATE FEED; f may be nil for a declared feed that never
// started.
func (m *Manager) Lookup(name string) (f *Feed, running, known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mf, ok := m.feeds[name]
	if !ok {
		return nil, false, false
	}
	if mf.running != nil {
		return mf.running, true, true
	}
	return mf.last, false, true
}
