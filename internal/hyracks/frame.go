// Package hyracks implements the partitioned-parallel dataflow runtime
// the ingestion framework runs on, mirroring the architecture of the
// Hyracks engine underneath AsterixDB: jobs are DAGs of operators and
// connectors; data flows in frames of records; each operator runs one
// instance per partition; connectors route frames between partitions
// (one-to-one, round-robin, hash, broadcast).
//
// It also provides the paper's partition holders: queue-guarded
// endpoints that let one job hand frames to another at runtime, which
// plain Hyracks jobs cannot do ("data exchanges in Hyracks are limited
// to being within the scope of a job").
//
// # Frame ownership and recycling
//
// Frame slices and byte arenas are pooled to keep the ingestion hot
// path allocation-lean. This comment is the normative statement of the
// discipline; docs/ARCHITECTURE.md walks through it with examples.
//
//   - Pushing a frame into a Writer or holder transfers ownership of
//     its Records/Raw slices and its Arena downstream; the producer
//     must not touch them afterwards.
//   - A frame's Arena backs its payloads: raw-lane line bytes and the
//     string/object memory of records parsed into it (adm.Arena). The
//     records are valid only while the arena is live and un-Reset.
//   - RecycleFrame is the full recycle — spines and arena go back to
//     their pools. Only a consumer that has dropped or Materialized
//     every record (and copied every raw line it needs) may call it;
//     the arena will be reset and its bytes overwritten by the next
//     frame.
//   - RecycleFrameSpines recycles only the slice spines. A consumer
//     that retains records un-materialized (the storage writer, the
//     test Collector) uses it: the retained values keep the arena
//     alive and the garbage collector reclaims it when they die.
//   - Operators that forward values from an input frame to an output
//     frame (MapPipe, single-target hash flushes) move the Arena to
//     the output frame so it travels with the values that reference
//     it.
//   - A frame has exactly one consumer (no connector replicates
//     frames), so whoever holds it may recycle it under these rules.
//   - Record values are never pooled: adm.Value payloads are
//     immutable-by-convention. Arena-backed payloads may outlive any
//     frame via RecycleFrameSpines; heap payloads always may.
//   - Handing a frame to the storage layer (a storage writer calling
//     lsm.Partition.UpsertBatch) transfers ownership like a Push:
//     storage retains the records, the writer recycles the spines
//     after UpsertBatch returns, and nobody resets the arena — it stays
//     alive through the retained values. The producer must not touch
//     the frame after the call.
package hyracks

import (
	"sync"

	"github.com/ideadb/idea/internal/adm"
)

// Frame is a batch of records moving through a dataflow, the unit of
// transfer between operators. It has two lanes: Records carries parsed
// ADM values; Raw carries unparsed record bytes so adapters can ship
// data to the parser without copying or wrapping it. A frame normally
// uses exactly one lane.
type Frame struct {
	Records []adm.Value
	Raw     [][]byte
	// Arena, when non-nil, owns the byte/object memory backing this
	// frame's payloads: raw-lane lines staged from volatile adapter
	// buffers, or the string/object storage of records parsed into it.
	// It moves with the frame (see the package comment's ownership
	// rules) and is reset + pooled by RecycleFrame.
	Arena *adm.Arena

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

// defaultArenaBytes sizes a fresh pooled arena's byte buffer; arenas
// converge on whatever their frames actually need as they recirculate.
const defaultArenaBytes = 8 << 10

var arenaPool = sync.Pool{}

// GetArena returns a reset arena from the pool, or a fresh one.
func GetArena() *adm.Arena {
	if v := arenaPool.Get(); v != nil {
		return v.(*adm.Arena)
	}
	return adm.NewArena(defaultArenaBytes)
}

// PutArena resets an arena and returns it to the pool. The caller must
// guarantee no live value still references the arena's memory: the next
// frame will overwrite it.
func PutArena(a *adm.Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// RecycleFrame is the full recycle: spines and arena back to their
// pools. Only the frame's final consumer may call it, and only after
// dropping or Materializing every record — the arena is reset and its
// bytes will be overwritten (see the package comment for the ownership
// rules).
func RecycleFrame(f Frame) {
	RecycleFrameSpines(f)
	PutArena(f.Arena)
}

// RecycleFrameSpines returns only the frame's slice spines to their
// pools, leaving the arena untouched. Consumers that retain the frame's
// records un-materialized (the storage writer after its WAL commit)
// use this: the retained values keep the arena alive and the garbage
// collector reclaims it when the last of them dies.
func RecycleFrameSpines(f Frame) {
	if f.Records != nil {
		PutRecordSlice(f.Records)
	}
	if f.Raw != nil {
		PutRawSlice(f.Raw)
	}
}

// FrameBuilder accumulates records and emits full frames to a Writer.
// Its buffers come from the frame pool; each Flush transfers the buffer
// downstream and the next Add draws a fresh (usually recycled) one.
type FrameBuilder struct {
	capacity int
	buf      []adm.Value
	raw      [][]byte
	arena    *adm.Arena
	out      Writer

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
// immediately before the Add/AddRaw call for that record so a flush
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

// Add appends one parsed record, flushing when the frame is full.
func (b *FrameBuilder) Add(rec adm.Value) error {
	if b.buf == nil {
		b.buf = GetRecordSlice(b.capacity)
	}
	b.buf = append(b.buf, rec)
	if len(b.buf)+len(b.raw) >= b.capacity {
		return b.Flush()
	}
	return nil
}

// AddRaw appends one raw record's bytes (not copied — the caller must
// not mutate them afterwards), flushing when the frame is full.
func (b *FrameBuilder) AddRaw(rec []byte) error {
	if b.raw == nil {
		b.raw = GetRawSlice(b.capacity)
	}
	b.raw = append(b.raw, rec)
	if len(b.buf)+len(b.raw) >= b.capacity {
		return b.Flush()
	}
	return nil
}

// AddRawCopy stages one raw record from a volatile buffer: the bytes
// are copied into the frame's pooled arena (one memcpy, no per-record
// allocation) and the arena-owned copy rides the raw lane. The caller
// may reuse its buffer immediately — this is the emit path for adapters
// that scan into a recycled read buffer (core.SocketAdapter).
func (b *FrameBuilder) AddRawCopy(rec []byte) error {
	if b.arena == nil {
		b.arena = GetArena()
	}
	return b.AddRaw(b.arena.AppendBytes(rec))
}

// Flush emits any buffered records as a frame, transferring buffer and
// arena ownership downstream.
func (b *FrameBuilder) Flush() error {
	if len(b.buf) == 0 && len(b.raw) == 0 {
		// A drawn but unused arena is kept for the next frame.
		return nil
	}
	f := Frame{
		Records: b.buf, Raw: b.raw, Arena: b.arena,
		Adapter: b.adapter, FirstOff: b.firstOff, LastOff: b.lastOff,
	}
	b.buf, b.raw, b.arena = nil, nil, nil
	b.firstOff, b.lastOff = 0, 0
	return b.out.Push(f)
}
