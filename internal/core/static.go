package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/query"
)

// ErrStatefulUDF is returned when a stateful SQL++ UDF is attached to
// the static pipeline — the very limitation of the old framework that
// motivates the paper ("the attached UDFs are limited to be stateless").
var ErrStatefulUDF = errors.New(
	"core: static pipeline cannot evaluate stateful SQL++ UDFs (the streaming model would freeze their intermediate state)")

// StaticFeed is the old AsterixDB ingestion pipeline baseline: one
// continuous job in which the adapter and parser are coupled in each
// adapter instance, the attached UDF is evaluated with the streaming model
// (state initialized once for the feed's lifetime), and records flow
// straight to storage. It is "Static Ingestion" / "Static Enrichment w/
// Java" in the paper's figures. It runs until its adapters end or the
// context StartStatic was given is canceled.
type StaticFeed struct {
	job   *hyracks.Job
	stats feedCounters
}

// Stats returns the pipeline's counters.
func (s *StaticFeed) Stats() FeedStats { return s.stats.snapshot() }

// StartStatic launches the old-framework pipeline.
func StartStatic(ctx context.Context, c *cluster.Cluster, cfg Config) (*StaticFeed, error) {
	if cfg.Adapters <= 0 {
		cfg.Adapters = 1
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

	sf := &StaticFeed{stats: feedCounters{st: FeedStats{Name: cfg.Name}}}
	tuning := c.Tuning()
	dt := ds.Datatype()
	pk := ds.PrimaryKey()

	// Streaming-model state: built once, reused for the entire feed.
	var prepared *query.PreparedEnrich
	if plan != nil {
		prepared, err = plan.Prepare(c)
		if err != nil {
			return nil, err
		}
	}
	calls, err := udfCalls(prepared, native, c.NumNodes())
	if err != nil {
		return nil, err
	}

	spec := hyracks.NewJobSpec()
	spec.QueueCapacity = tuning.HolderCapacity

	// Adapter + parser, coupled in each adapter instance — the old
	// framework's bottleneck when there is a single adapter. Lines
	// become records as in the dynamic feed's collector (recordEncoder):
	// with no function, framed per storage partition; with one, in one
	// frame for the evaluator.
	var route func(adm.Value) int
	if plan == nil && native == nil {
		route = ds.Route
	}
	adapterOp := spec.AddOperator(&hyracks.Descriptor{
		Name:        "adapter-parser",
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
				enc := newRecordEncoder(tuning.FrameCapacity, ds.NumPartitions(), pk, route)
				if route != nil {
					enc.slab = ds.Slab
				}
				// Lines are counted here and reported a frame's worth at a
				// time, and once more at the end of the stream.
				var admitted, rejected int64
				err := adapter.Run(tc.Ctx, func(raw []byte) error {
					// A stream has no batch size: every target may expect a
					// full frame more.
					enc.begin(tuning.FrameCapacity * len(enc.parts))
					ok, err := enc.encode(raw, dt, nil, out)
					if ok {
						admitted++
					} else {
						rejected++
					}
					if admitted+rejected == int64(tuning.FrameCapacity) {
						sf.stats.intake(admitted, rejected)
						admitted, rejected = 0, 0
					}
					return err
				})
				sf.stats.intake(admitted, rejected)
				if err != nil {
					return err
				}
				return enc.flush(out)
			}), nil
		},
	})

	// UDF evaluator with frozen state, spread over all nodes; it routes
	// what the function makes of each record.
	last := adapterOp
	if route == nil {
		last = spec.AddOperator(&hyracks.Descriptor{
			Name:        "stream-udf-evaluator",
			Parallelism: c.NumNodes(),
			NewPipe: func(p int) (hyracks.Pipe, error) {
				router := newFrameRouter(tuning.FrameCapacity, ds.NumPartitions(), pk, ds.Route)
				router.slab = ds.Slab
				return &evaluator{router: router, udfCall: calls[p]}, nil
			},
		})
		spec.Connect(adapterOp, last, hyracks.RoundRobin, nil)
	}
	// Frame-granular batch writes, same as the dynamic feed.
	connectStorage(spec, last, "storage-partition-writer", ds, &sf.stats)

	sf.job, err = c.StartJob(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sf, nil
}

// evaluator is the static pipeline's UDF step at one partition, with the
// function's state frozen for the feed's lifetime: each record of an
// input frame — read as a view of the adapter-parser's slab — goes
// through the function (udfCall.frame), and its row is framed for the
// storage partition that owns its key. Each input frame is a batch of
// its own, so its rows go on to storage before the next frame is read.
type evaluator struct {
	router frameRouter
	udfCall
}

// Open implements hyracks.Pipe.
func (ev *evaluator) Open(*hyracks.TaskContext, hyracks.Writer) error { return nil }

// Push implements hyracks.Pipe.
func (ev *evaluator) Push(_ *hyracks.TaskContext, fr hyracks.Frame, out hyracks.Writer) error {
	ev.router.begin(fr.N)
	for off := 0; off < len(fr.Enc); {
		n, err := adm.SkipBinary(fr.Enc[off:])
		if err != nil {
			return fmt.Errorf("core: evaluator input at offset %d: %w", off, err)
		}
		err = ev.frame(&ev.router, adm.View(fr.Enc[off:off+n]), out)
		ev.router.pending--
		if err != nil {
			return err
		}
		off += n
	}
	return ev.router.flush(out)
}

// Close implements hyracks.Pipe.
func (ev *evaluator) Close(*hyracks.TaskContext, hyracks.Writer) error { return nil }

// Wait blocks until the pipeline finishes.
func (s *StaticFeed) Wait() error { return s.job.Wait() }
