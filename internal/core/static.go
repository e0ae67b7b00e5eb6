package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/udf"
)

// ErrStatefulUDF is returned when a stateful SQL++ UDF is attached to
// the static pipeline — the very limitation of the old framework that
// motivates the paper ("the attached UDFs are limited to be stateless").
var ErrStatefulUDF = errors.New(
	"core: static pipeline cannot evaluate stateful SQL++ UDFs (the streaming model would freeze their intermediate state)")

// StaticFeed is the old AsterixDB ingestion pipeline baseline: one
// continuous job in which the adapter and parser are coupled on the
// intake node(s), the attached UDF is evaluated with the streaming model
// (state initialized once for the feed's lifetime), and records flow
// straight to storage. It is "Static Ingestion" / "Static Enrichment w/
// Java" in the paper's figures.
type StaticFeed struct {
	cfg       Config
	cluster   *cluster.Cluster
	job       *hyracks.Job
	cancel    context.CancelFunc
	adaptCtx  context.Context
	adaptStop context.CancelFunc
	stats     Stats
}

// Stats returns the pipeline's counters.
func (s *StaticFeed) Stats() *Stats { return &s.stats }

// StartStatic launches the old-framework pipeline.
func StartStatic(ctx context.Context, c *cluster.Cluster, cfg Config) (*StaticFeed, error) {
	if len(cfg.IntakeNodes) == 0 {
		cfg.IntakeNodes = []int{0}
	}
	if cfg.NewAdapter == nil {
		return nil, errors.New("core: feed needs an adapter factory")
	}
	ds, ok := c.Dataset(cfg.Dataset)
	if !ok {
		return nil, fmt.Errorf("core: unknown dataset %q", cfg.Dataset)
	}
	plan, native, err := resolveFunction(c, cfg)
	if err != nil {
		return nil, err
	}
	if plan != nil && !plan.Stateless() {
		return nil, ErrStatefulUDF
	}

	jobCtx, cancel := context.WithCancel(ctx)
	adaptCtx, adaptStop := context.WithCancel(jobCtx)
	sf := &StaticFeed{
		cfg: cfg, cluster: c, cancel: cancel,
		adaptCtx: adaptCtx, adaptStop: adaptStop,
	}
	n := c.NumNodes()
	tuning := c.Tuning()
	dt := ds.Datatype()
	pk := ds.PrimaryKey()

	// Streaming-model state: built once, reused for the entire feed.
	var prepared *query.PreparedEnrich
	if plan != nil {
		prepared, err = plan.Prepare(c)
		if err != nil {
			cancel()
			return nil, err
		}
	}
	var instances []udf.Instance
	if native != nil {
		if instances, err = newInstances(native, n); err != nil {
			cancel()
			return nil, err
		}
	}

	spec := hyracks.NewJobSpec()
	spec.QueueCapacity = tuning.HolderCapacity

	// Adapter + parser, coupled on the intake node(s) — the old
	// framework's bottleneck when there is a single intake node.
	adapterOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "adapter-parser",
		Parallelism: len(cfg.IntakeNodes),
		NodeOf:      func(p int) int { return cfg.IntakeNodes[p] },
		NewSource: func(p int) (hyracks.Source, error) {
			adapter, err := cfg.NewAdapter(p)
			if err != nil {
				return nil, err
			}
			return hyracks.SourceFunc(func(tc *hyracks.TaskContext, out hyracks.Writer) error {
				if err := out.Open(); err != nil {
					return err
				}
				b := hyracks.NewFrameBuilder(tuning.FrameCapacity, out)
				// One interning parser per adapter instance: the
				// adapter-parser coupling is the point of the static
				// baseline, but it need not re-allocate field names.
				parser := adm.NewParser()
				err := adapter.Run(sf.adaptCtx, func(raw []byte) error {
					rec, perr := parser.Parse(raw)
					rec, ok := admit(dt, &sf.stats, rec, perr)
					if !ok {
						return nil
					}
					sf.stats.Ingested.Add(1)
					return b.Add(rec)
				})
				if err != nil && !(errors.Is(err, context.Canceled) && sf.adaptCtx.Err() != nil) {
					return err
				}
				return b.Flush()
			}), nil
		},
	})

	// UDF evaluator with frozen state, spread over all nodes.
	evalOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "stream-udf-evaluator",
		Parallelism: n,
		NewPipe: func(p int) (hyracks.Pipe, error) {
			return newEvaluator(prepared, instances, p), nil
		},
	})

	writerOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "storage-partition-writer",
		Parallelism: n,
		NewPipe: func(p int) (hyracks.Pipe, error) {
			// Frame-granular batch writes, same as the dynamic feed.
			return newStorageWriter(ds.Partition(p), pk, &sf.stats.Stored), nil
		},
	})

	spec.Connect(adapterOp, evalOp, hyracks.RoundRobin, nil)
	spec.Connect(evalOp, writerOp, hyracks.HashPartition, keyHash(pk))

	sf.job, err = c.StartJob(jobCtx, spec, cfg.Name+"-static")
	if err != nil {
		cancel()
		return nil, err
	}
	return sf, nil
}

// Stop gracefully stops the adapters; in-flight data drains.
func (s *StaticFeed) Stop() { s.adaptStop() }

// Wait blocks until the pipeline finishes.
func (s *StaticFeed) Wait() error {
	err := s.job.Wait()
	s.cancel()
	return err
}
