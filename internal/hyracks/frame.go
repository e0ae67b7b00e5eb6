// Package hyracks implements the partitioned-parallel dataflow runtime
// the ingestion framework runs on, mirroring the architecture of the
// Hyracks engine underneath AsterixDB: jobs are DAGs of operators and
// connectors; data flows in frames of records; each operator runs one
// instance per partition; connectors move whole frames between
// partitions (one-to-one, round-robin, or to the partition each frame
// names).
//
// It also provides the paper's partition holders: queue-guarded
// endpoints that let one job hand frames to another at runtime, which
// plain Hyracks jobs cannot do ("data exchanges in Hyracks are limited
// to being within the scope of a job"). One type, PassiveHolder, serves
// both of the paper's kinds: a job ends in a holder that another job
// pulls from (PullFrames), or starts at one that other jobs push into
// (Run makes it the job's Source).
//
// # Frame ownership and recycling
//
// Bytes are pooled, values are garbage-collected. Three rules:
//
//   - Pushing a frame into a Writer or holder (or handing it to the
//     storage layer) transfers ownership of its Records/Raw slices and
//     its Arena downstream; the producer must not touch them
//     afterwards. A frame has exactly one consumer.
//   - A raw frame's Arena backs its Raw lines and nothing else. The
//     lines are valid until the frame's consumer calls RecycleFrame,
//     which is always safe on a frame it consumed: the spines and the
//     line arena go back to their pools.
//   - Record values are never pooled and never invalidated: adm.Value
//     payloads are immutable-by-convention and live as long as anything
//     references them, so operators, UDFs and storage may keep them.
package hyracks

import (
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// Frame is a batch of records moving through a dataflow, the unit of
// transfer between operators. It uses one of two lanes: Raw carries an
// adapter's unparsed lines, staged by a FrameBuilder, so they reach the
// parser without being copied or wrapped again; Records carries ADM
// values — what a parser or an evaluator emits.
type Frame struct {
	Records []adm.Value
	Raw     [][]byte
	// Arena, when non-nil, owns the bytes of the Raw lines (and only
	// those). It moves with the frame and is reset + pooled by
	// RecycleFrame.
	Arena *adm.Arena
	// Enc, when non-nil, is the byte slab the Records are views of, laid
	// out as a storage partition logs them: each record's primary key
	// encoding, then the record's, pair after pair, nothing else. A feed
	// emits such frames, one per storage partition (core's collector, or
	// the static pipeline's evaluator); the storage writer hands Enc
	// to the partition as the write's log payload. Enc is a hint the
	// partition verifies, never trusts. It is garbage-collected like the
	// records, never pooled, and anything that rebuilds a frame's Records
	// (a MapPipe) drops it; a Partitioned connector forwards it with the
	// frame.
	Enc []byte
	// Part is the target partition a Partitioned connector sends the
	// frame to: its producer routed every record of it there (core's
	// frameRouter names a storage partition). Other routings ignore it.
	Part int

	// Adapter and FirstOff/LastOff locate the frame in its source
	// adapter's offset space for at-least-once checkpointing: the frame
	// carries records with source offsets FirstOff..LastOff (inclusive,
	// dense) emitted by intake adapter slot Adapter. FirstOff == 0 means
	// the frame carries no offset provenance (a non-resumable source).
	// The metadata travels with the frame through connectors and the
	// spill lane; consumers report delivered ranges to their feed's
	// offset tracker before recycling.
	Adapter  int
	FirstOff uint64
	LastOff  uint64
}

// Len returns the number of records in the frame across both lanes.
func (f Frame) Len() int { return len(f.Records) + len(f.Raw) }

// Writer is the push-based receiving surface of a downstream operator or
// connector (Hyracks' IFrameWriter).
type Writer interface {
	// Open readies the writer; it is called exactly once before any Push.
	Open() error
	// Push delivers one frame, transferring ownership of its slices.
	Push(f Frame) error
	// Close signals end-of-data; no Push may follow.
	Close() error
}

// discardWriter terminates a dataflow branch with no consumers.
type discardWriter struct{}

func (discardWriter) Open() error { return nil }
func (discardWriter) Push(f Frame) error {
	RecycleFrame(f)
	return nil
}
func (discardWriter) Close() error { return nil }

// Discard is a Writer that drops everything (the output of sink
// operators).
var Discard Writer = discardWriter{}

// minPooledCap is the smallest capacity for freshly allocated pooled
// slices, so tiny first requests still produce reusable buffers.
const minPooledCap = 64

// slicePool pools slice spines without allocating on Put: the *[]T
// boxes that carry spines through the underlying sync.Pool are
// themselves recycled through a second pool, so a steady-state
// get/put cycle allocates nothing. (A naive sync.Pool of []T boxes a
// fresh *[]T on every Put — at frame rates that box churn shows up in
// the end-to-end alloc profile.)
type slicePool[T any] struct {
	full  sync.Pool // *[]T holding pooled spines
	spent sync.Pool // *[]T with nil slices, ready to carry the next Put
}

func (p *slicePool[T]) get(capacity int) []T {
	if v := p.full.Get(); v != nil {
		b := v.(*[]T)
		s := (*b)[:0]
		*b = nil
		p.spent.Put(b)
		// A pooled spine smaller than the hint is dropped rather than
		// recirculated, so undersized spines don't keep forcing
		// regrowth at large-batch sites; the pool converges on spines
		// big enough for every caller.
		if cap(s) >= capacity {
			return s
		}
	}
	if capacity < minPooledCap {
		capacity = minPooledCap
	}
	return make([]T, 0, capacity)
}

func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	var b *[]T
	if v := p.spent.Get(); v != nil {
		b = v.(*[]T)
	} else {
		b = new([]T)
	}
	*b = s
	p.full.Put(b)
}

var recordSlicePool slicePool[adm.Value]

// GetRecordSlice returns an empty record slice with at least the given
// capacity hint, reusing a pooled spine when one is available.
func GetRecordSlice(capacity int) []adm.Value {
	return recordSlicePool.get(capacity)
}

// PutRecordSlice returns a record slice's spine to the pool. The caller
// must own the full backing array: no other holder of the slice (or any
// subslice) may use it afterwards. The array is cleared so pooled spines
// do not pin record payloads.
func PutRecordSlice(s []adm.Value) {
	recordSlicePool.put(s)
}

var rawSlicePool slicePool[[]byte]

// GetRawSlice is GetRecordSlice for the raw-bytes lane.
func GetRawSlice(capacity int) [][]byte {
	return rawSlicePool.get(capacity)
}

// PutRawSlice is PutRecordSlice for the raw-bytes lane.
func PutRawSlice(s [][]byte) {
	rawSlicePool.put(s)
}

// defaultArenaBytes sizes a fresh pooled arena's byte buffer when nothing
// says better; arenas converge on whatever their frames actually need as
// they recirculate.
const defaultArenaBytes = 8 << 10

var arenaPool = sync.Pool{}

// GetArena returns a reset arena from the pool, or a fresh one.
func GetArena() *adm.Arena { return getArena(defaultArenaBytes) }

// getArena is GetArena with the byte capacity a fresh arena should start
// at. Each of the ~300 frames a feed has in flight warms up its own
// arena, so starting one at the size its frame will need saves the
// doublings that would get it there.
func getArena(size int) *adm.Arena {
	if v := arenaPool.Get(); v != nil {
		return v.(*adm.Arena)
	}
	return adm.NewArena(size)
}

// PutArena resets an arena and returns it to the pool. The caller must
// own everything in it: the next frame will overwrite it.
func PutArena(a *adm.Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// RecycleFrame returns a consumed frame's spines and line arena to
// their pools. The frame's records stay valid; its raw lines do not.
func RecycleFrame(f Frame) {
	if f.Records != nil {
		PutRecordSlice(f.Records)
	}
	if f.Raw != nil {
		PutRawSlice(f.Raw)
	}
	PutArena(f.Arena)
}

// FrameBuilder stages an adapter's lines into raw frames and emits full
// frames to a Writer. Its spines and arenas come from the pools; each
// Flush transfers them downstream and the next AddRawCopy draws fresh
// (usually recycled) ones.
type FrameBuilder struct {
	capacity int
	raw      [][]byte
	arena    *adm.Arena
	out      Writer
	// staged and lastStaged are the line bytes staged into the frame
	// under construction and into the one before it.
	staged, lastStaged int

	// Offset provenance for the frame under construction (see
	// Frame.Adapter/FirstOff/LastOff). adapter is stamped on every frame;
	// firstOff/lastOff reset at each Flush.
	adapter  int
	firstOff uint64
	lastOff  uint64
}

// SetAdapter records the intake adapter slot whose records this builder
// frames; every emitted frame is stamped with it.
func (b *FrameBuilder) SetAdapter(slot int) { b.adapter = slot }

// NoteOffset records the source offset of the record about to be added.
// Offsets must be dense and ascending within a frame; callers invoke it
// immediately before the AddRawCopy call for that record so a flush
// triggered by the add carries the right range.
func (b *FrameBuilder) NoteOffset(off uint64) {
	if b.firstOff == 0 {
		b.firstOff = off
	}
	b.lastOff = off
}

// NewFrameBuilder returns a builder emitting frames of up to capacity
// records into out.
func NewFrameBuilder(capacity int, out Writer) *FrameBuilder {
	if capacity <= 0 {
		capacity = 128
	}
	return &FrameBuilder{capacity: capacity, out: out}
}

// AddRawCopy stages one raw record: the bytes are copied into the
// frame's pooled line arena (one memcpy, no per-record allocation) and
// the copy rides the raw lane, so the caller may reuse its buffer as
// soon as the call returns. The frame flushes when full. When the pool
// has no arena to give, a fresh one starts at the previous frame's line
// bytes plus a quarter.
func (b *FrameBuilder) AddRawCopy(rec []byte) error {
	if b.raw == nil {
		b.raw = GetRawSlice(b.capacity)
		size := defaultArenaBytes
		if b.lastStaged > 0 {
			size = b.lastStaged + b.lastStaged/4
		}
		b.arena = getArena(size)
	}
	b.staged += len(rec)
	b.raw = append(b.raw, b.arena.AppendBytes(rec))
	if len(b.raw) >= b.capacity {
		return b.Flush()
	}
	return nil
}

// Flush emits any staged lines as a frame, transferring spine and arena
// ownership downstream.
func (b *FrameBuilder) Flush() error {
	if len(b.raw) == 0 {
		return nil
	}
	f := Frame{
		Raw: b.raw, Arena: b.arena,
		Adapter: b.adapter, FirstOff: b.firstOff, LastOff: b.lastOff,
	}
	b.raw, b.arena = nil, nil
	b.firstOff, b.lastOff = 0, 0
	if b.staged > 0 {
		b.lastStaged, b.staged = b.staged, 0
	}
	return b.out.Push(f)
}
