package hyracks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

func intRecords(n int) []adm.Value {
	out := make([]adm.Value, n)
	for i := range out {
		o := adm.NewObject(1)
		o.Set("id", adm.Int(int64(i)))
		out[i] = adm.ObjectValue(o)
	}
	return out
}

func TestJobLinearPipeline(t *testing.T) {
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return &SliceSource{Records: intRecords(1000), FrameCap: 64}, nil
		},
	})
	var col Collector
	mapped := spec.AddOperator(&Descriptor{
		Name: "double", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) {
			return &MapPipe{Fn: func(v adm.Value) (adm.Value, bool, error) {
				o := adm.NewObject(1)
				o.Set("id", adm.Int(v.Field("id").IntVal()*2))
				return adm.ObjectValue(o), true, nil
			}}, nil
		},
	})
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return col.Sink(), nil },
	})
	spec.Connect(src, mapped, OneToOne, nil)
	spec.Connect(mapped, sink, OneToOne, nil)

	job, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 1000 {
		t.Fatalf("collected %d, want 1000", len(recs))
	}
	sum := int64(0)
	for _, r := range recs {
		sum += r.Field("id").IntVal()
	}
	if sum != 999*1000 { // 2 * sum(0..999)
		t.Errorf("sum = %d", sum)
	}
}

func TestJobRoundRobinBalances(t *testing.T) {
	const parts = 4
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return &SliceSource{Records: intRecords(4000), FrameCap: 10}, nil
		},
	})
	var counts [parts]atomic.Int64
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: parts,
		NewPipe: func(p int) (Pipe, error) {
			return &SinkPipe{Fn: func(_ *TaskContext, f Frame) error {
				counts[p].Add(int64(f.Len()))
				return nil
			}}, nil
		},
	})
	spec.Connect(src, sink, RoundRobin, nil)
	job, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := range counts {
		c := counts[i].Load()
		total += c
		if c != 1000 {
			t.Errorf("partition %d got %d records, want 1000 (round robin of 10-record frames)", i, c)
		}
	}
	if total != 4000 {
		t.Errorf("total = %d", total)
	}
}

// routedSource emits records as a Partitioned connector's producer
// must: each frame holds records of one target only and names it in
// Part.
func routedSource(recs []adm.Value, frameCap, targets int, keyFn func(adm.Value) uint64) Source {
	return SourceFunc(func(tc *TaskContext, out Writer) error {
		if err := out.Open(); err != nil {
			return err
		}
		for t := 0; t < targets; t++ {
			var mine []adm.Value
			for _, rec := range recs {
				if int(keyFn(rec)%uint64(targets)) == t {
					mine = append(mine, rec)
				}
			}
			for len(mine) > 0 {
				n := min(frameCap, len(mine))
				if err := out.Push(Frame{Records: append(GetRecordSlice(n), mine[:n]...), Part: t}); err != nil {
					return err
				}
				mine = mine[n:]
			}
		}
		return nil
	})
}

// TestJobHashPartitioning: frames a producer addresses by Part reach
// exactly that partition, all of them.
func TestJobHashPartitioning(t *testing.T) {
	const parts = 3
	keyFn := func(rec adm.Value) uint64 { return adm.Hash(rec.Field("id")) }
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 2,
		NewSource: func(p int) (Source, error) {
			return routedSource(intRecords(999), 32, parts, keyFn), nil
		},
	})
	var collectors [parts]Collector
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: parts,
		NewPipe: func(p int) (Pipe, error) { return collectors[p].Sink(), nil },
	})
	spec.Connect(src, sink, Partitioned, nil)
	job, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < parts; p++ {
		recs := collectors[p].Records()
		total += len(recs)
		// Every record in partition p was addressed there.
		for _, r := range recs {
			if int(keyFn(r)%parts) != p {
				t.Fatalf("record %v addressed elsewhere reached partition %d", r, p)
			}
		}
	}
	if total != 2*999 { // two source partitions × 999 records
		t.Errorf("total = %d", total)
	}
}

// TestPartitionedConnectorRejectsOutOfRangePart: a frame whose Part
// names no target fails the job, and nothing reaches any target.
func TestPartitionedConnectorRejectsOutOfRangePart(t *testing.T) {
	const parts = 2
	for _, part := range []int{parts, -1} {
		spec := NewJobSpec()
		src := spec.AddOperator(&Descriptor{
			Name: "src", Parallelism: 1,
			NewSource: func(int) (Source, error) {
				return SourceFunc(func(_ *TaskContext, out Writer) error {
					if err := out.Open(); err != nil {
						return err
					}
					return out.Push(Frame{Records: append(GetRecordSlice(2), intRecords(2)...), Part: part})
				}), nil
			},
		})
		var collectors [parts]Collector
		sink := spec.AddOperator(&Descriptor{
			Name: "sink", Parallelism: parts,
			NewPipe: func(p int) (Pipe, error) { return collectors[p].Sink(), nil },
		})
		spec.Connect(src, sink, Partitioned, nil)
		job, err := spec.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("frame for partition %d", part)
		if err := job.Wait(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Part %d: Wait = %v, want an error naming %q", part, err, want)
		}
		for p := range collectors {
			if n := collectors[p].Len(); n != 0 {
				t.Fatalf("Part %d: target %d received %d records", part, p, n)
			}
		}
	}
}

func TestJobErrorPropagation(t *testing.T) {
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return &SliceSource{Records: intRecords(100000), FrameCap: 8}, nil
		},
	})
	boom := errors.New("boom")
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) {
			n := 0
			return &SinkPipe{Fn: func(*TaskContext, Frame) error {
				n++
				if n > 3 {
					return boom
				}
				return nil
			}}, nil
		},
	})
	spec.Connect(src, sink, OneToOne, nil)
	job, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	werr := job.Wait()
	if werr == nil || !errors.Is(werr, boom) {
		t.Fatalf("Wait = %v, want boom", werr)
	}
}

// TestJobAbort: cancelling the context a job runs under aborts it.
func TestJobAbort(t *testing.T) {
	spec := NewJobSpec()
	spec.AddOperator(&Descriptor{
		Name: "blocked-src", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return SourceFunc(func(tc *TaskContext, out Writer) error {
				<-tc.Ctx.Done() // simulate a stuck adapter
				return tc.Ctx.Err()
			}), nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	job, err := spec.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- job.Wait() }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the parent context did not unblock the job")
	}
}

// foreignCtx is a parent context the context package cannot see into:
// a cancelable child of it is watched by a goroutine of its own until
// the child is canceled.
type foreignCtx struct {
	context.Context
	done chan struct{}
}

func (c foreignCtx) Done() <-chan struct{} { return c.done }

func (c foreignCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestFinishedJobReleasesItsContext: a job that ran to completion cancels
// its context, so it is no longer a child of the caller's (a feed runs
// one computing job per batch under one long-lived context), and under a
// parent like foreignCtx it leaves no goroutine behind.
func TestFinishedJobReleasesItsContext(t *testing.T) {
	parent := foreignCtx{Context: context.Background(), done: make(chan struct{})}
	defer close(parent.done)
	var jobCtx context.Context
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{Name: "src", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return SourceFunc(func(tc *TaskContext, out Writer) error {
				jobCtx = tc.Ctx
				return out.Open()
			}), nil
		}})
	sink := spec.AddOperator(&Descriptor{Name: "sink", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return &SinkPipe{Fn: func(*TaskContext, Frame) error { return nil }}, nil }})
	spec.Connect(src, sink, OneToOne, nil)
	run := func() {
		job, err := spec.Run(parent)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if jobCtx.Err() == nil {
		t.Error("a finished job's context is still live")
	}
	base := runtime.NumGoroutine()
	const jobs = 200
	for i := 0; i < jobs; i++ {
		run()
	}
	// The instances' goroutines end just after Wait returns; give them a
	// moment, then compare with the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Fatalf("%d finished jobs left %d goroutines behind", jobs, extra)
	}
}

// TestFailedPipeClosesItsOutput: a pipe whose Push fails still closes its
// output, so the operator after it sees its input end: a job that fails
// in a middle operator leaves no goroutine behind.
func TestFailedPipeClosesItsOutput(t *testing.T) {
	boom := errors.New("boom")
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{Name: "src", Parallelism: 1,
		NewSource: func(int) (Source, error) { return &SliceSource{Records: intRecords(64), FrameCap: 8}, nil }})
	mid := spec.AddOperator(&Descriptor{Name: "mid", Parallelism: 2,
		NewPipe: func(int) (Pipe, error) {
			return &SinkPipe{Fn: func(*TaskContext, Frame) error { return boom }}, nil
		}})
	sink := spec.AddOperator(&Descriptor{Name: "sink", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return &SinkPipe{Fn: func(*TaskContext, Frame) error { return nil }}, nil }})
	spec.Connect(src, mid, RoundRobin, nil)
	spec.Connect(mid, sink, RoundRobin, nil)
	base := runtime.NumGoroutine()
	const jobs = 50
	for range jobs {
		job, err := spec.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); !errors.Is(err, boom) {
			t.Fatalf("Wait = %v, want boom", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Fatalf("%d jobs that failed in a middle operator left %d goroutines behind", jobs, extra)
	}
}

func TestJobSpecValidation(t *testing.T) {
	mkSrc := func(spec *JobSpec, par int) int {
		return spec.AddOperator(&Descriptor{Name: "s", Parallelism: par,
			NewSource: func(int) (Source, error) { return &SliceSource{}, nil }})
	}
	mkSink := func(spec *JobSpec, par int) int {
		return spec.AddOperator(&Descriptor{Name: "k", Parallelism: par,
			NewPipe: func(int) (Pipe, error) { return &SinkPipe{Fn: func(*TaskContext, Frame) error { return nil }}, nil }})
	}
	// Mismatched one-to-one parallelism.
	spec := NewJobSpec()
	a, b := mkSrc(spec, 2), mkSink(spec, 3)
	spec.Connect(a, b, OneToOne, nil)
	if _, err := spec.Run(context.Background()); err == nil {
		t.Error("mismatched one-to-one should fail validation")
	}
	// Pipe with no input.
	spec = NewJobSpec()
	mkSink(spec, 1)
	if _, err := spec.Run(context.Background()); err == nil {
		t.Error("pipe with no input should fail validation")
	}
	// Source with input.
	spec = NewJobSpec()
	a, b = mkSrc(spec, 1), mkSrc(spec, 1)
	spec.Connect(a, b, OneToOne, nil)
	if _, err := spec.Run(context.Background()); err == nil {
		t.Error("source with input should fail validation")
	}
	// Multiple inputs.
	spec = NewJobSpec()
	a = mkSrc(spec, 1)
	c := mkSrc(spec, 1)
	b = mkSink(spec, 1)
	spec.Connect(a, b, OneToOne, nil)
	spec.Connect(c, b, OneToOne, nil)
	if _, err := spec.Run(context.Background()); err == nil {
		t.Error("multiple inputs should fail validation")
	}
}

func TestFrameBuilder(t *testing.T) {
	var frames, lines int
	b := NewFrameBuilder(3, writerFunc(func(f Frame) error {
		frames++
		lines += f.Len()
		RecycleFrame(f)
		return nil
	}))
	for i := 0; i < 7; i++ {
		if err := b.AddRawCopy([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if frames != 3 || lines != 7 {
		t.Errorf("%d lines in %d frames, want 7 in 3", lines, frames)
	}
}

func ExampleJobSpec() {
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "numbers", Parallelism: 1,
		NewSource: func(int) (Source, error) {
			return &SliceSource{Records: []adm.Value{adm.Int(1), adm.Int(2), adm.Int(3)}}, nil
		},
	})
	var col Collector
	sink := spec.AddOperator(&Descriptor{
		Name: "collect", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return col.Sink(), nil },
	})
	spec.Connect(src, sink, OneToOne, nil)
	job, _ := spec.Run(context.Background())
	_ = job.Wait()
	fmt.Println(col.Len())
	// Output: 3
}
