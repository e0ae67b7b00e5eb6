package hyracks

import (
	"errors"

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
	Fn func(tc *TaskContext, f Frame) error
}

// Open implements Pipe.
func (s *SinkPipe) Open(*TaskContext, Writer) error { return nil }

// Push implements Pipe.
func (s *SinkPipe) Push(tc *TaskContext, f Frame, _ Writer) error {
	return s.Fn(tc, f)
}

// Close implements Pipe.
func (s *SinkPipe) Close(*TaskContext, Writer) error { return nil }
