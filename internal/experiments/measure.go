package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/core"
	"github.com/ideadb/idea/internal/udf"
	"github.com/ideadb/idea/internal/workload"
)

// The paper's batch sizes: 1X = 420, 4X = 1680, 16X = 6720.
const (
	batch1X  = 420
	batch4X  = 1680
	batch16X = 6720
)

var batchLabels = []struct {
	label string
	size  int
}{
	{"1X", batch1X},
	{"4X", batch4X},
	{"16X", batch16X},
}

// bench is a loaded cluster plus its workload generator, reusable across
// the runs of one figure.
type bench struct {
	cluster *cluster.Cluster
	gen     *workload.Generator
	natives *udf.Registry
	opts    Options
}

// newBench builds a cluster with the full workload at the options'
// scale. withRefData=false skips reference loading (Fig 24 needs none).
func newBench(opts Options, nodes int, sizes workload.Sizes) (*bench, error) {
	c, err := cluster.New(nodes, opts.tuning())
	if err != nil {
		return nil, err
	}
	g, err := workload.Setup(c, opts.Seed, sizes)
	if err != nil {
		return nil, err
	}
	natives, err := workload.NativeUDFs(c)
	if err != nil {
		return nil, err
	}
	return &bench{cluster: c, gen: g, natives: natives, opts: opts}, nil
}

// resetTarget drops and recreates the target dataset between runs.
func (b *bench) resetTarget(name string) error {
	if err := b.cluster.DropDataset(name); err != nil {
		return err
	}
	_, err := b.cluster.CreateDataset(name, "TweetType", "id")
	return err
}

// runSpec describes one measured pipeline run.
type runSpec struct {
	name     string
	tweets   int
	fn       string // "" = plain ingestion
	batch    int
	balanced bool // one adapter per node
	static   bool // old-framework pipeline
	naive    bool // disable indexes
	fused    bool // fused insert-job ablation
	recomp   bool // recompile-per-batch ablation
	updates  struct {
		dataset string
		rate    int
	}
}

// result is one measured cell.
type result struct {
	throughput  float64 // records/second end-to-end
	refresh     time.Duration
	invocations int64
	// accessBuilds and accessPatches count the enrichment structures the
	// feed built and patched (core.FeedStats).
	accessBuilds, accessPatches int64
}

// run executes one pipeline to completion against the bench cluster.
func (b *bench) run(spec runSpec) (result, error) {
	if err := b.resetTarget("EnrichedTweets"); err != nil {
		return result{}, err
	}
	if err := b.resetTarget("Tweets"); err != nil {
		return result{}, err
	}
	target := "Tweets"
	if spec.fn != "" {
		target = "EnrichedTweets"
	}

	adapters := 1
	if spec.balanced {
		adapters = b.cluster.NumNodes()
	}
	all := b.gen.Tweets(0, spec.tweets)
	newAdapter := func(i int) (core.Adapter, error) {
		if !spec.balanced {
			return &core.GeneratorAdapter{Records: all}, nil
		}
		var shard [][]byte
		for j := i; j < len(all); j += adapters {
			shard = append(shard, all[j])
		}
		return &core.GeneratorAdapter{Records: shard}, nil
	}

	cfg := core.Config{
		Name:              spec.name,
		Dataset:           target,
		Function:          spec.fn,
		BatchSize:         spec.batch,
		Adapters:          adapters,
		NewAdapter:        newAdapter,
		DisableIndexes:    spec.naive,
		Natives:           b.natives,
		FusedInsert:       spec.fused,
		RecompilePerBatch: spec.recomp,
	}

	ctx := context.Background()
	var stopUpdates func()
	if spec.updates.rate > 0 {
		var err error
		stopUpdates, err = workload.StartUpdates(ctx, b.cluster, b.gen,
			spec.updates.dataset, spec.updates.rate)
		if err != nil {
			return result{}, err
		}
		defer stopUpdates()
	}

	start := time.Now()
	var stats core.FeedStats
	if spec.static {
		sf, err := core.StartStatic(ctx, b.cluster, cfg)
		if err != nil {
			return result{}, err
		}
		if err := sf.Wait(); err != nil {
			return result{}, fmt.Errorf("static run %s: %w", spec.name, err)
		}
		stats = sf.Stats()
	} else {
		f, err := core.Start(ctx, b.cluster, cfg)
		if err != nil {
			return result{}, err
		}
		if err := f.Wait(); err != nil {
			return result{}, fmt.Errorf("dynamic run %s: %w", spec.name, err)
		}
		stats = f.Stats()
	}
	elapsed := time.Since(start)

	stored := stats.Stored
	if stored != int64(spec.tweets) {
		return result{}, fmt.Errorf("run %s: stored %d of %d tweets", spec.name, stored, spec.tweets)
	}
	res := result{
		throughput:    float64(stored) / elapsed.Seconds(),
		refresh:       stats.MeanRefresh,
		invocations:   stats.Invocations,
		accessBuilds:  stats.AccessBuilds,
		accessPatches: stats.AccessPatches,
	}
	b.opts.logf("    %-34s %10.0f rec/s  refresh=%v", spec.name, res.throughput, res.refresh)
	return res, nil
}
