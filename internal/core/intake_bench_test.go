package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/query"
)

// pushWriter bridges a FrameBuilder to a PassiveHolder for the intake
// micro-benchmark.
type pushWriter struct {
	ctx context.Context
	h   *hyracks.PassiveHolder
}

func (w *pushWriter) Open() error { return nil }
func (w *pushWriter) Push(f hyracks.Frame) error {
	return w.h.PushFrame(w.ctx, f)
}
func (w *pushWriter) Close() error { return nil }

// BenchmarkIntakePath measures the intake→parse half of the feed in
// isolation: adapter bytes ride raw frames through a partition holder
// and come out as parsed ADM records — no UDF, no storage, no cluster
// simulation: lines are staged into pooled line arenas, whole frames
// are pulled without copying record headers, and each line is parsed,
// encoded into its frame's slab and handed on as a view (recordEncoder),
// as the collector does, so a record costs no allocation of its own.
func BenchmarkIntakePath(b *testing.B) {
	const n = 10_000
	records := make([][]byte, n)
	for i := range records {
		records[i] = fmt.Appendf(nil,
			`{"id":%d,"text":"benchmark tweet with some padding text","lang":"en","user":{"id":%d,"screen_name":"bench"}}`,
			i, i%97)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		h := hyracks.NewPassiveHolder(64)
		adapter := &GeneratorAdapter{Records: records}
		go func() {
			builder := hyracks.NewFrameBuilder(128, &pushWriter{ctx: ctx, h: h})
			if err := adapter.Run(ctx, builder.AddRawCopy); err != nil {
				b.Error(err)
				return
			}
			if err := builder.Flush(); err != nil {
				b.Error(err)
				return
			}
			h.CloseInput()
		}()
		enc := newRecordEncoder(128, 1, "", nil)
		var sink frameSink
		parsed := 0
		for {
			frames, eof, err := h.PullFrames(ctx, 420)
			if err != nil {
				b.Fatal(err)
			}
			for _, fr := range frames {
				enc.begin(len(fr.Raw))
				for _, raw := range fr.Raw {
					if ok, err := enc.encode(raw, nil, nil, &sink); !ok || err != nil {
						b.Fatalf("line rejected (%v)", err)
					}
					parsed++
				}
				hyracks.RecycleFrame(fr)
				if err := enc.flush(&sink); err != nil {
					b.Fatal(err)
				}
				// A real collector pushes its frames downstream, and the
				// records keep their frame's slab alive.
				sink.recycle()
			}
			if eof {
				break
			}
		}
		if parsed != n {
			b.Fatalf("parsed %d records, want %d", parsed, n)
		}
		total += parsed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkInvokeComputeJob prices one invocation of a function feed's
// own predeployed computing job — buildComputeSpec's collector, which
// runs the UDF and writes into its node's storage holder, on each of two
// nodes — over a batch of no records (every collector's intake is at
// EOF). Like cluster's
// BenchmarkInvokePredeployed, what is left is the machinery an
// invocation builds, here with the feed's closures and queue capacity,
// plus the simulated invocation message of DefaultTuning.
func BenchmarkInvokeComputeJob(b *testing.B) {
	const nodes = 2
	c, err := cluster.New(nodes, cluster.DefaultTuning())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	f := &Feed{cluster: c, plan: &query.EnrichPlan{}, nodes: []int{0, 1}, computeID: "compute",
		eof: make([]atomic.Bool, nodes), encoders: make([]recordEncoder, nodes), stats: &feedCounters{}}
	for p := range f.eof {
		f.eof[p].Store(true)
	}
	f.curInv.Store(&invocation{})
	spec := f.buildComputeSpec()
	if err := c.Predeploy(f.computeID); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := c.InvokePredeployed(ctx, f.computeID, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
