package hyracks

import (
	"context"
	"fmt"
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// Routing is a connector's partitioning strategy.
type Routing int

const (
	// OneToOne connects partition i to partition i (parallelism must
	// match).
	OneToOne Routing = iota
	// RoundRobin spreads frames evenly over target partitions — the
	// static pipeline uses it so UDF work is balanced (Section 6.2).
	RoundRobin
	// Partitioned sends each frame whole to the target partition its
	// Part names — the storage exchange, into the partition that owns
	// the frame's primary keys. Its producers route; a Part outside the
	// targets fails the job.
	Partitioned
)

// TaskContext is handed to the operator instances of a job; one is
// shared by all of them.
type TaskContext struct {
	// Ctx is canceled when the job fails, is aborted or has finished.
	Ctx context.Context
}

// Source is a self-driving operator instance (adapters, holders): it
// produces frames until done, then returns.
type Source interface {
	Run(tc *TaskContext, out Writer) error
}

// Pipe is a push-driven operator instance (parsers, evaluators, sinks).
type Pipe interface {
	Open(tc *TaskContext, out Writer) error
	Push(tc *TaskContext, f Frame, out Writer) error
	Close(tc *TaskContext, out Writer) error
}

// SourceFunc adapts a function to Source.
type SourceFunc func(tc *TaskContext, out Writer) error

// Run implements Source.
func (f SourceFunc) Run(tc *TaskContext, out Writer) error { return f(tc, out) }

// Descriptor declares one operator of a job: its parallelism and a
// factory for per-partition instances. Exactly one of NewSource /
// NewPipe must be set (sources have no dataflow input).
type Descriptor struct {
	Name        string
	Parallelism int
	// NewSource builds a source instance for a partition.
	NewSource func(partition int) (Source, error)
	// NewPipe builds a push-driven instance for a partition.
	NewPipe func(partition int) (Pipe, error)
}

// connectorSpec links two operators.
type connectorSpec struct {
	from, to int
	routing  Routing
}

// JobSpec is the compiled description of a dataflow job (the paper's
// "job specification"): operators plus connectors. Specs are reusable —
// predeployed jobs keep one and instantiate it per invocation.
type JobSpec struct {
	ops        []*Descriptor
	connectors []connectorSpec
	// QueueCapacity bounds each connector channel (frames); a feed's
	// backpressure knob is its holders' rings.
	QueueCapacity int
}

// NewJobSpec returns an empty spec.
func NewJobSpec() *JobSpec { return &JobSpec{QueueCapacity: 64} }

// AddOperator registers an operator and returns its id.
func (s *JobSpec) AddOperator(d *Descriptor) int {
	s.ops = append(s.ops, d)
	return len(s.ops) - 1
}

// Connect links from → to with the given routing. No routing reads
// hashKey: a Partitioned frame names its target (Frame.Part). The
// parameter stays because bench/ passes nil for it.
func (s *JobSpec) Connect(from, to int, routing Routing, hashKey func(adm.Value) uint64) {
	s.connectors = append(s.connectors, connectorSpec{from: from, to: to, routing: routing})
}

// Job is one running instantiation of a JobSpec.
type Job struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

func (j *Job) fail(err error) {
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	j.cancel()
}

// Wait blocks until every operator instance finishes, releases the
// job's context, and returns the first error.
func (j *Job) Wait() error {
	j.wg.Wait()
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Run validates the spec, instantiates every operator partition, wires
// the connectors, and starts the dataflow. The returned Job is already
// running; call Wait for the outcome.
func (s *JobSpec) Run(parent context.Context) (*Job, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(parent)
	job := &Job{cancel: cancel}
	tc := &TaskContext{Ctx: ctx}

	// inputs[op][partition] is the channel feeding that pipe instance;
	// nil for sources.
	inputs := make([][]chan Frame, len(s.ops))
	// upstreamCount[op] tracks how many sending instances feed the op's
	// channels (for close bookkeeping).
	type fanIn struct {
		senders sync.WaitGroup
	}
	fans := make([]*fanIn, len(s.ops))
	for i, d := range s.ops {
		if d.NewPipe != nil {
			chans := make([]chan Frame, d.Parallelism)
			for p := range chans {
				chans[p] = make(chan Frame, s.QueueCapacity)
			}
			inputs[i] = chans
			fans[i] = &fanIn{}
		}
	}

	// outputs[op][partition] is the Writer the instance pushes into.
	outputs := make([][]Writer, len(s.ops))
	for i, d := range s.ops {
		outputs[i] = make([]Writer, d.Parallelism)
		for p := range outputs[i] {
			outputs[i][p] = Discard
		}
	}
	for _, c := range s.connectors {
		from := s.ops[c.from]
		for p := 0; p < from.Parallelism; p++ {
			fans[c.to].senders.Add(1)
			outputs[c.from][p] = &connectorWriter{
				ctx:     ctx,
				spec:    c,
				targets: inputs[c.to],
				srcPart: p,
				done:    &fans[c.to].senders,
			}
		}
	}
	// Close target channels once every sender is done.
	for i := range s.ops {
		if fans[i] == nil {
			continue
		}
		chans := inputs[i]
		fan := fans[i]
		go func() {
			fan.senders.Wait()
			for _, ch := range chans {
				close(ch)
			}
		}()
	}

	// Launch instances.
	for i, d := range s.ops {
		for p := 0; p < d.Parallelism; p++ {
			out := outputs[i][p]
			job.wg.Add(1)
			switch {
			case d.NewSource != nil:
				src, err := d.NewSource(p)
				if err != nil {
					job.wg.Done()
					cancel()
					return nil, fmt.Errorf("hyracks: %s[%d]: %w", d.Name, p, err)
				}
				go func(name string) {
					defer job.wg.Done()
					if err := src.Run(tc, out); err != nil {
						job.fail(fmt.Errorf("%s: %w", name, err))
					}
					if err := out.Close(); err != nil {
						job.fail(fmt.Errorf("%s: close: %w", name, err))
					}
				}(d.Name)
			default:
				pipe, err := d.NewPipe(p)
				if err != nil {
					job.wg.Done()
					cancel()
					return nil, fmt.Errorf("hyracks: %s[%d]: %w", d.Name, p, err)
				}
				in := inputs[i][p]
				go func(name string) {
					defer job.wg.Done()
					if err := runPipe(tc, pipe, in, out); err != nil {
						job.fail(fmt.Errorf("%s: %w", name, err))
					}
				}(d.Name)
			}
		}
	}
	return job, nil
}

// runPipe drives one pipe instance until its input closes or the job's
// context ends. It closes its output on every path, a failed Push's
// included, so the operator downstream always learns this sender is
// done and its input channels close.
func runPipe(tc *TaskContext, pipe Pipe, in <-chan Frame, out Writer) (err error) {
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	if err := out.Open(); err != nil {
		return err
	}
	if err := pipe.Open(tc, out); err != nil {
		return err
	}
	for {
		select {
		case f, ok := <-in:
			if !ok {
				return pipe.Close(tc, out)
			}
			if err := pipe.Push(tc, f, out); err != nil {
				return err
			}
		case <-tc.Ctx.Done():
			// Drain nothing; the job is failing or aborted.
			_ = pipe.Close(tc, out)
			return tc.Ctx.Err()
		}
	}
}

func (s *JobSpec) validate() error {
	hasInput := make([]bool, len(s.ops))
	for _, c := range s.connectors {
		if c.from < 0 || c.from >= len(s.ops) || c.to < 0 || c.to >= len(s.ops) {
			return fmt.Errorf("hyracks: connector references unknown operator")
		}
		if hasInput[c.to] {
			return fmt.Errorf("hyracks: operator %s has multiple inputs", s.ops[c.to].Name)
		}
		hasInput[c.to] = true
		if c.routing == OneToOne && s.ops[c.from].Parallelism != s.ops[c.to].Parallelism {
			return fmt.Errorf("hyracks: one-to-one connector between %s and %s with mismatched parallelism",
				s.ops[c.from].Name, s.ops[c.to].Name)
		}
	}
	for i, d := range s.ops {
		if d.Parallelism <= 0 {
			return fmt.Errorf("hyracks: operator %s has parallelism %d", d.Name, d.Parallelism)
		}
		if (d.NewSource == nil) == (d.NewPipe == nil) {
			return fmt.Errorf("hyracks: operator %s must define exactly one of NewSource/NewPipe", d.Name)
		}
		if d.NewSource != nil && hasInput[i] {
			return fmt.Errorf("hyracks: source operator %s cannot have an input", d.Name)
		}
		if d.NewPipe != nil && !hasInput[i] {
			return fmt.Errorf("hyracks: pipe operator %s has no input", d.Name)
		}
	}
	return nil
}

// connectorWriter routes one upstream partition's frames to the target
// partitions' channels.
type connectorWriter struct {
	ctx     context.Context
	spec    connectorSpec
	targets []chan Frame
	srcPart int
	done    *sync.WaitGroup

	rr     int // round-robin cursor
	closed bool
}

func (w *connectorWriter) Open() error { return nil }

func (w *connectorWriter) send(target int, f Frame) error {
	select {
	case w.targets[target] <- f:
		return nil
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
}

func (w *connectorWriter) Push(f Frame) error {
	switch w.spec.routing {
	case OneToOne:
		return w.send(w.srcPart, f)
	case RoundRobin:
		t := w.rr % len(w.targets)
		w.rr++
		return w.send(t, f)
	default: // Partitioned
		if f.Part < 0 || f.Part >= len(w.targets) {
			return fmt.Errorf("hyracks: frame for partition %d reached a connector with %d targets", f.Part, len(w.targets))
		}
		return w.send(f.Part, f)
	}
}

func (w *connectorWriter) Close() error {
	if !w.closed {
		w.closed = true
		w.done.Done()
	}
	return nil
}
