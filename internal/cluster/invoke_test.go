package cluster

import (
	"context"
	"testing"

	"github.com/ideadb/idea/internal/hyracks"
)

// passPipe forwards every frame: an evaluator with nothing to evaluate.
type passPipe struct{}

func (passPipe) Open(*hyracks.TaskContext, hyracks.Writer) error { return nil }

func (passPipe) Push(_ *hyracks.TaskContext, f hyracks.Frame, out hyracks.Writer) error {
	return out.Push(f)
}

func (passPipe) Close(*hyracks.TaskContext, hyracks.Writer) error { return nil }

// BenchmarkInvokePredeployed prices one invocation of a predeployed job
// that moves no data — a source, a pass-through and a sink on each of
// two nodes, the computing job's shape — so what is left is the job
// machinery every invocation builds (channels, connector writers, the
// task context) and the simulated invocation message of DefaultTuning.
// Divided by the records an invocation carries, it is the per-record
// share of invoking a job per batch. core's BenchmarkInvokeComputeJob
// prices the feed's own computing job the same way.
func BenchmarkInvokePredeployed(b *testing.B) {
	const nodes = 2
	c, err := New(nodes, DefaultTuning())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	spec := hyracks.NewJobSpec()
	src := spec.AddOperator(&hyracks.Descriptor{Name: "noop-source", Parallelism: nodes,
		NewSource: func(int) (hyracks.Source, error) {
			return hyracks.SourceFunc(func(_ *hyracks.TaskContext, out hyracks.Writer) error { return out.Open() }), nil
		}})
	pass := spec.AddOperator(&hyracks.Descriptor{Name: "noop-pass", Parallelism: nodes,
		NewPipe: func(int) (hyracks.Pipe, error) { return passPipe{}, nil }})
	sink := spec.AddOperator(&hyracks.Descriptor{Name: "noop-sink", Parallelism: nodes,
		NewPipe: func(int) (hyracks.Pipe, error) {
			return &hyracks.SinkPipe{Fn: func(*hyracks.TaskContext, hyracks.Frame) error { return nil }}, nil
		}})
	spec.Connect(src, pass, hyracks.OneToOne, nil)
	spec.Connect(pass, sink, hyracks.OneToOne, nil)
	if err := c.Predeploy("noop"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := c.InvokePredeployed(ctx, "noop", spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
