package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/hyracks"
)

// SpillQueue is the disk-backed overflow lane behind a Spill-policy
// intake holder (hyracks.FrameSpiller): a FIFO of frames encoded into a
// single append-only file through the same FS seam and byte envelope
// (internal/frame) as the WAL. Spill takes ownership of the frame,
// encodes it (raw lines length-prefixed, offset provenance in the
// header — intake frames are raw-only), and recycles it; Unspill
// decodes the oldest un-read frame into a pooled spine and line arena
// the caller owns.
//
// Durability is deliberately NOT provided: spilled frames are by
// definition not yet checkpointed, so after a crash they are replayed
// from the source adapter, not from the spill file. The queue therefore
// never fsyncs — writes land in the page cache (or MemFS unsynced
// bytes) and the file is truncated back to zero whenever the lane
// drains, reclaiming space without rotation bookkeeping.
//
// Each frame's payload (the envelope is docs/ARCHITECTURE.md's):
//
//	payload := adapter:uvarint firstOff:uvarint lastOff:uvarint
//	           nRaw:uvarint rawLine*  (len:uvarint bytes)
//
// The holder serializes Spill against Unspill (see
// hyracks.FrameSpiller); the internal mutex exists so Len and Close are
// safe from any goroutine.
type SpillQueue struct {
	mu      sync.Mutex
	fsys    FS
	path    string
	f       File
	readOff int64 // next frame to Unspill starts here
	writeAt int64 // current end of file
	count   int   // frames written but not yet unspilled
	closed  bool

	encBuf []byte // reused encoding buffer
}

// NewSpillQueue creates (truncating) the spill file at dir/name inside
// fsys. The directory is created if needed.
func NewSpillQueue(fsys FS, dir, name string) (*SpillQueue, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("lsm: spill dir: %w", err)
	}
	p := joinPath(dir, name)
	f, err := fsys.Create(p)
	if err != nil {
		return nil, fmt.Errorf("lsm: spill file: %w", err)
	}
	return &SpillQueue{fsys: fsys, path: p, f: f}, nil
}

// Len reports frames spilled but not yet unspilled.
func (q *SpillQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Spill appends the frame to the lane, taking ownership: the frame is
// fully encoded before return and recycled.
func (q *SpillQueue) Spill(f hyracks.Frame) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("lsm: spill queue closed")
	}
	if f.Len() > len(f.Raw) {
		return fmt.Errorf("lsm: spill: record-lane frame (the intake lane is raw-only)")
	}

	buf := frame.Begin(q.encBuf[:0])
	buf = binary.AppendUvarint(buf, uint64(f.Adapter))
	buf = binary.AppendUvarint(buf, f.FirstOff)
	buf = binary.AppendUvarint(buf, f.LastOff)
	buf = binary.AppendUvarint(buf, uint64(len(f.Raw)))
	for _, line := range f.Raw {
		buf = binary.AppendUvarint(buf, uint64(len(line)))
		buf = append(buf, line...)
	}
	frame.Seal(buf, 0)
	q.encBuf = buf

	if _, err := q.f.Write(buf); err != nil {
		return fmt.Errorf("lsm: spill write: %w", err)
	}
	q.writeAt += int64(len(buf))
	q.count++
	hyracks.RecycleFrame(f)
	return nil
}

// Unspill decodes and returns the oldest spilled frame (ok=false when
// the lane is empty). The returned frame uses pooled spines and a
// pooled arena for raw lines; the caller owns it like any pulled frame.
// Draining the lane truncates the file back to zero.
func (q *SpillQueue) Unspill() (hyracks.Frame, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 || q.closed {
		return hyracks.Frame{}, false, nil
	}

	// The limit is what the file still holds: a corrupt length field
	// fails as a decode error, not as an enormous allocation.
	payload, err := frame.ReadAt(q.f, q.readOff, q.writeAt-q.readOff-frame.HeaderSize)
	if err != nil {
		return hyracks.Frame{}, false, fmt.Errorf("lsm: spill frame at %d: %w", q.readOff, err)
	}
	f, err := decodeSpillFrame(payload)
	if err != nil {
		return hyracks.Frame{}, false, err
	}
	q.readOff += int64(frame.HeaderSize + len(payload))
	q.count--
	if q.count == 0 {
		// Lane drained: reclaim the file. Failure to truncate is not
		// fatal — the next spill simply appends past the dead bytes.
		if err := q.f.Truncate(0); err == nil {
			q.readOff, q.writeAt = 0, 0
		} else {
			q.readOff = q.writeAt
		}
	}
	return f, true, nil
}

func decodeSpillFrame(payload []byte) (hyracks.Frame, error) {
	r := frame.NewReader(payload)
	f := hyracks.Frame{Adapter: r.Int(math.MaxInt32), FirstOff: r.Uvarint(), LastOff: r.Uvarint()}
	// Every raw line costs at least one payload byte.
	if nRaw := r.Count(1); nRaw > 0 {
		f.Raw = hyracks.GetRawSlice(nRaw)
		f.Arena = hyracks.GetArena()
		for ; nRaw > 0 && r.Err() == nil; nRaw-- {
			f.Raw = append(f.Raw, f.Arena.AppendBytes(r.Take(r.Count(1))))
		}
	}
	if err := r.Done(); err != nil {
		return f, fmt.Errorf("lsm: spill frame: %w", err)
	}
	return f, nil
}

// Close releases the file handle and removes the spill file. Frames
// still parked in the lane are discarded — teardown only happens after
// the feed has stopped, when un-drained spilled frames are replayed
// from the source on resume.
func (q *SpillQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	err := q.f.Close()
	if rerr := q.fsys.Remove(q.path); err == nil {
		err = rerr
	}
	return err
}
