package hyracks

import (
	"errors"
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// MapPipe applies Fn to each record; keep=false drops the record
// (filtering). Fn may retain what it is given.
type MapPipe struct {
	Fn func(adm.Value) (adm.Value, bool, error)
}

// Open implements Pipe.
func (m *MapPipe) Open(*TaskContext, Writer) error { return nil }

// Push implements Pipe.
func (m *MapPipe) Push(_ *TaskContext, f Frame, out Writer) error {
	if len(f.Raw) > 0 {
		// Dropping unparsed records silently would be data loss; raw
		// frames must go through a parser before any record operator.
		return errors.New("hyracks: raw-lane frame reached MapPipe; parse records first")
	}
	outRecs := GetRecordSlice(len(f.Records))
	for _, rec := range f.Records {
		v, keep, err := m.Fn(rec)
		if err != nil {
			PutRecordSlice(outRecs)
			RecycleFrame(f)
			return err
		}
		if keep {
			outRecs = append(outRecs, v)
		}
	}
	RecycleFrame(f)
	if len(outRecs) == 0 {
		PutRecordSlice(outRecs)
		return nil
	}
	return out.Push(Frame{Records: outRecs})
}

// Close implements Pipe.
func (m *MapPipe) Close(*TaskContext, Writer) error { return nil }

// SinkPipe consumes records with fn and forwards nothing.
type SinkPipe struct {
	Fn      func(tc *TaskContext, f Frame) error
	OnClose func(tc *TaskContext) error
}

// Open implements Pipe.
func (s *SinkPipe) Open(*TaskContext, Writer) error { return nil }

// Push implements Pipe.
func (s *SinkPipe) Push(tc *TaskContext, f Frame, _ Writer) error {
	return s.Fn(tc, f)
}

// Close implements Pipe.
func (s *SinkPipe) Close(tc *TaskContext, _ Writer) error {
	if s.OnClose != nil {
		return s.OnClose(tc)
	}
	return nil
}

// SliceSource emits a record slice, in order, as frames of up to
// FrameCap records (default 128) (tests and bulk loads).
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

// Collector is a concurrency-safe record sink used by tests and result
// delivery.
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
