package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/hyracks"
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
// are pulled without copying record headers, and records are parsed
// into a fresh per-frame arena sized from the previous frame, as the
// collector does, so string values and objects cost no per-value
// allocations.
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
		parser := adm.NewParser()
		parsed := 0
		spine := hyracks.GetRecordSlice(128)
		arena := adm.NewArena(0)
		for {
			frames, eof, err := h.PullFrames(ctx, 420)
			if err != nil {
				b.Fatal(err)
			}
			for _, fr := range frames {
				for _, raw := range fr.Raw {
					var perr error
					spine, perr = parser.ParseInto(raw, spine, arena)
					if perr != nil {
						b.Fatal(perr)
					}
					parsed++
				}
				hyracks.RecycleFrame(fr)
				// A real collector would push the spine downstream here
				// and let the records keep the arena's slabs alive.
				spine = spine[:0]
				arena = arena.Successor()
			}
			if eof {
				break
			}
		}
		hyracks.PutRecordSlice(spine)
		if parsed != n {
			b.Fatalf("parsed %d records, want %d", parsed, n)
		}
		total += parsed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
}
