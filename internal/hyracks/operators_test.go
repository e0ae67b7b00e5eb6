package hyracks

import (
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// SliceSource emits a record slice, in order, as frames of up to
// FrameCap records (default 128).
type SliceSource struct {
	Records  []adm.Value
	FrameCap int
}

// Run implements Source.
func (s *SliceSource) Run(tc *TaskContext, out Writer) error {
	if err := out.Open(); err != nil {
		return err
	}
	frameCap := s.FrameCap
	if frameCap <= 0 {
		frameCap = 128
	}
	for recs := s.Records; len(recs) > 0; {
		if err := tc.Ctx.Err(); err != nil {
			return err
		}
		n := min(frameCap, len(recs))
		if err := out.Push(Frame{Records: append(GetRecordSlice(n), recs[:n]...)}); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// Collector is a concurrency-safe record sink.
type Collector struct {
	mu   sync.Mutex
	recs []adm.Value
}

// Sink returns a SinkPipe appending into the collector.
func (c *Collector) Sink() *SinkPipe {
	return &SinkPipe{Fn: func(_ *TaskContext, f Frame) error {
		c.mu.Lock()
		c.recs = append(c.recs, f.Records...)
		c.mu.Unlock()
		RecycleFrame(f)
		return nil
	}}
}

// Records returns a copy of everything collected.
func (c *Collector) Records() []adm.Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]adm.Value(nil), c.recs...)
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}
