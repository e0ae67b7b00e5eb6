package hyracks

import (
	"context"
	"errors"
	"fmt"
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

	job, err := spec.Run(context.Background(), "test")
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
			return &SinkPipe{Fn: func(tc *TaskContext, f Frame) error {
				counts[tc.Partition].Add(int64(f.Len()))
				return nil
			}}, nil
		},
	})
	spec.Connect(src, sink, RoundRobin, nil)
	job, err := spec.Run(context.Background(), "rr")
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

func TestJobHashPartitioning(t *testing.T) {
	const parts = 3
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 2,
		NewSource: func(p int) (Source, error) {
			return &SliceSource{Records: intRecords(999), FrameCap: 32}, nil
		},
	})
	var collectors [parts]Collector
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: parts,
		NewPipe: func(p int) (Pipe, error) { return collectors[p].Sink(), nil },
	})
	keyFn := func(rec adm.Value) uint64 { return adm.Hash(rec.Field("id")) }
	spec.Connect(src, sink, HashPartition, keyFn)
	job, err := spec.Run(context.Background(), "hash")
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
		// Every record in partition p must hash there.
		for _, r := range recs {
			if int(keyFn(r)%parts) != p {
				t.Fatalf("record %v routed to wrong partition %d", r, p)
			}
		}
	}
	if total != 2*999 { // two source partitions × 999 records
		t.Errorf("total = %d", total)
	}
}

// TestJobHashMixedFrameOrder pins the histogram/run-copy re-bucketing
// of mixed-target frames: every record must still land on its hash
// target, and the relative order of records bound for the same target
// must survive exactly (the storage layer's last-wins upsert semantics
// depend on it).
func TestJobHashMixedFrameOrder(t *testing.T) {
	const parts = 4
	const n = 5000
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "src", Parallelism: 1,
		NewSource: func(p int) (Source, error) {
			// Sequential ids hash to interleaved targets, so every frame
			// is mixed-target.
			return &SliceSource{Records: intRecords(n), FrameCap: 64}, nil
		},
	})
	var collectors [parts]Collector
	sink := spec.AddOperator(&Descriptor{
		Name: "sink", Parallelism: parts,
		NewPipe: func(p int) (Pipe, error) { return collectors[p].Sink(), nil },
	})
	keyFn := func(rec adm.Value) uint64 { return adm.Hash(rec.Field("id")) }
	spec.Connect(src, sink, HashPartition, keyFn)
	job, err := spec.Run(context.Background(), "hash-mixed")
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
		prev := int64(-1)
		for _, r := range recs {
			if int(keyFn(r)%parts) != p {
				t.Fatalf("record %v routed to wrong partition %d", r, p)
			}
			id := r.Field("id").IntVal()
			if id <= prev {
				t.Fatalf("partition %d: order broken, id %d after %d", p, id, prev)
			}
			prev = id
		}
	}
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
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
	job, err := spec.Run(context.Background(), "err")
	if err != nil {
		t.Fatal(err)
	}
	werr := job.Wait()
	if werr == nil || !errors.Is(werr, boom) {
		t.Fatalf("Wait = %v, want boom", werr)
	}
}

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
	job, err := spec.Run(context.Background(), "abort")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- job.Wait() }()
	job.Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unblock the job")
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
	if _, err := spec.Run(context.Background(), "v"); err == nil {
		t.Error("mismatched one-to-one should fail validation")
	}
	// Hash without key.
	spec = NewJobSpec()
	a, b = mkSrc(spec, 1), mkSink(spec, 2)
	spec.Connect(a, b, HashPartition, nil)
	if _, err := spec.Run(context.Background(), "v"); err == nil {
		t.Error("hash without key should fail validation")
	}
	// Pipe with no input.
	spec = NewJobSpec()
	mkSink(spec, 1)
	if _, err := spec.Run(context.Background(), "v"); err == nil {
		t.Error("pipe with no input should fail validation")
	}
	// Source with input.
	spec = NewJobSpec()
	a, b = mkSrc(spec, 1), mkSrc(spec, 1)
	spec.Connect(a, b, OneToOne, nil)
	if _, err := spec.Run(context.Background(), "v"); err == nil {
		t.Error("source with input should fail validation")
	}
	// Multiple inputs.
	spec = NewJobSpec()
	a = mkSrc(spec, 1)
	c := mkSrc(spec, 1)
	b = mkSink(spec, 1)
	spec.Connect(a, b, OneToOne, nil)
	spec.Connect(c, b, OneToOne, nil)
	if _, err := spec.Run(context.Background(), "v"); err == nil {
		t.Error("multiple inputs should fail validation")
	}
}

func TestFrameBuilder(t *testing.T) {
	var col Collector
	sink := col.Sink()
	w := &pipeAsWriter{pipe: sink}
	b := NewFrameBuilder(3, w)
	for i := 0; i < 7; i++ {
		if err := b.Add(adm.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 7 {
		t.Errorf("collected %d", col.Len())
	}
}

// pipeAsWriter adapts a Pipe to a Writer for direct tests.
type pipeAsWriter struct {
	pipe Pipe
	tc   TaskContext
}

func (p *pipeAsWriter) Open() error { return p.pipe.Open(&p.tc, Discard) }
func (p *pipeAsWriter) Push(f Frame) error {
	return p.pipe.Push(&p.tc, f, Discard)
}
func (p *pipeAsWriter) Close() error { return p.pipe.Close(&p.tc, Discard) }

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
	job, _ := spec.Run(context.Background(), "example")
	_ = job.Wait()
	fmt.Println(col.Len())
	// Output: 3
}
