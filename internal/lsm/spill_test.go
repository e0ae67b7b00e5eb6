package lsm

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/hyracks"
)

// spillFrame builds an intake frame: n raw lines plus offset provenance.
func spillFrame(adapter int, first, last uint64, n int) hyracks.Frame {
	f := hyracks.Frame{Adapter: adapter, FirstOff: first, LastOff: last}
	for i := 0; i < n; i++ {
		f.Raw = append(f.Raw, []byte(fmt.Sprintf(`{"id": %d}`, i)))
	}
	return f
}

func TestSpillQueueRoundTrip(t *testing.T) {
	fs := NewMemFS()
	q, err := NewSpillQueue(fs, "spill", "p000.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const frames = 10
	for i := 0; i < frames; i++ {
		first := uint64(i*4 + 1)
		if err := q.Spill(spillFrame(2, first, first+3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != frames {
		t.Fatalf("Len = %d, want %d", q.Len(), frames)
	}
	for i := 0; i < frames; i++ {
		f, ok, err := q.Unspill()
		if err != nil || !ok {
			t.Fatalf("Unspill %d: ok=%v err=%v", i, ok, err)
		}
		wantFirst := uint64(i*4 + 1)
		if f.Adapter != 2 || f.FirstOff != wantFirst || f.LastOff != wantFirst+3 {
			t.Fatalf("frame %d provenance = adapter=%d %d..%d", i, f.Adapter, f.FirstOff, f.LastOff)
		}
		if f.Len() != 4 || len(f.Raw) != 4 {
			t.Fatalf("frame %d has %d records / %d raw", i, f.Len(), len(f.Raw))
		}
		for j, line := range f.Raw {
			if want := fmt.Sprintf(`{"id": %d}`, j); string(line) != want {
				t.Fatalf("frame %d raw %d = %q", i, j, line)
			}
		}
		hyracks.RecycleFrame(f)
	}
	if _, ok, _ := q.Unspill(); ok {
		t.Fatal("Unspill on drained lane returned a frame")
	}
	// The lane carries intake frames, which are raw-only: parsed records
	// are refused, not silently dropped.
	if err := q.Spill(hyracks.Frame{Enc: adm.AppendBinary(nil, adm.Int(1)), N: 1}); err == nil {
		t.Fatal("encoded frame spilled without error")
	}
}

// TestLineArenasRoundTrip: a line arena travels adapter → holder
// (→ spill lane) → collector → pool → adapter, so after warm-up staging
// more frames draws no line storage; through the spill lane the only
// per-frame allocation is the codec's payload read.
func TestLineArenasRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts at random under -race")
	}
	// A collection empties sync.Pool, and whether one falls inside the
	// measured rounds depends on the garbage other tests left behind —
	// including a cycle already under way when collection is switched
	// off, which the forced one waits out.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	const frames, lines = 32, 128
	line := bytes.Repeat([]byte("t"), 435)
	frameBytes := uint64(lines * len(line))
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		spill  bool
		budget uint64
	}{
		{"ring", false, frameBytes / 2},
		// Every other frame spills, and costs the codec's payload read
		// plus MemFS regrowing the file it truncated; drawing line
		// storage afresh would be a third frame's worth.
		{"spill lane", true, frames / 2 * frameBytes * 5 / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := hyracks.HolderOptions{Capacity: 2}
			if tc.spill {
				opts.Capacity = 1
				q, err := NewSpillQueue(NewMemFS(), "spill", "p000.spill")
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				opts.Policy, opts.Spiller = hyracks.Spill, q
			}
			h := hyracks.NewPassiveHolderOpts(opts)
			b := hyracks.NewFrameBuilder(lines, holderWriter{ctx, h})
			// Each round stages two frames — with a spill lane the ring
			// has one slot and the second overflows into the lane —
			// then consumes both as the collector does.
			round := func() {
				for i := 0; i < 2*lines; i++ {
					if err := b.AddRawCopy(line); err != nil {
						t.Fatal(err)
					}
				}
				for got := 0; got < 2; {
					pulled, _, err := h.PullFrames(ctx, lines)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range pulled {
						if len(f.Raw) != lines || !bytes.Equal(f.Raw[lines-1], line) {
							t.Fatalf("frame came back with %d lines", len(f.Raw))
						}
						hyracks.RecycleFrame(f)
						got++
					}
				}
			}
			// sync.Pool keeps a free list per P, and a goroutine that
			// moves to another P between a Put and the next Get misses
			// the arena it returned: one fresh frame-sized arena, more
			// than the budget. With one P there is nowhere to move.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			// Warm the pools; a fresh arena starts at the size of the
			// builder's previous frame plus a quarter.
			round()
			round()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < frames/2; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
				t.Fatalf("%d frames of %d line bytes allocated %d, budget %d", frames, frameBytes, got, tc.budget)
			}
		})
	}
}

// holderWriter feeds a FrameBuilder's frames to a holder.
type holderWriter struct {
	ctx context.Context
	h   *hyracks.PassiveHolder
}

func (holderWriter) Open() error                  { return nil }
func (w holderWriter) Push(f hyracks.Frame) error { return w.h.PushFrame(w.ctx, f) }
func (holderWriter) Close() error                 { return nil }

func TestSpillQueueTruncatesWhenDrained(t *testing.T) {
	fs := NewMemFS()
	q, err := NewSpillQueue(fs, "spill", "p000.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Two spill/drain cycles: the file must not grow across cycles.
	for cycle := 0; cycle < 2; cycle++ {
		for i := 0; i < 5; i++ {
			if err := q.Spill(spillFrame(0, 1, 4, 4)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			f, ok, err := q.Unspill()
			if err != nil || !ok {
				t.Fatalf("cycle %d unspill %d: ok=%v err=%v", cycle, i, ok, err)
			}
			hyracks.RecycleFrame(f)
		}
		if q.writeAt != 0 || q.readOff != 0 {
			t.Fatalf("cycle %d: file not reclaimed (writeAt=%d readOff=%d)", cycle, q.writeAt, q.readOff)
		}
	}
}

func TestSpillQueueCloseRemovesFile(t *testing.T) {
	fs := NewMemFS()
	q, err := NewSpillQueue(fs, "spill", "p000.spill")
	if err != nil {
		t.Fatal(err)
	}
	q.Spill(spillFrame(0, 1, 4, 4))
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open(joinPath("spill", "p000.spill")); err == nil {
		t.Fatal("spill file survived Close")
	}
	if err := q.Spill(spillFrame(0, 5, 8, 4)); err == nil {
		t.Fatal("Spill after Close succeeded")
	}
}

// TestSpillQueueCorruptHeaderLength: a frame header whose length field
// exceeds what the file holds must fail as a decode error, not allocate
// gigabytes or panic.
func TestSpillQueueCorruptHeaderLength(t *testing.T) {
	fs := NewMemFS()
	q, err := NewSpillQueue(fs, "spill", "p000.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Hand-write a frame whose header claims a ~4GB payload the file
	// does not contain.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFF0)
	if _, err := q.f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	q.writeAt = int64(len(hdr))
	q.count = 1
	if _, ok, err := q.Unspill(); err == nil || ok {
		t.Fatalf("Unspill on corrupt length: ok=%v err=%v, want error", ok, err)
	}
}

// TestDecodeSpillFrameCorrupt: crafted payloads with oversized uvarint
// lengths/counts must come back as decode errors, never slice panics or
// huge allocations.
func TestDecodeSpillFrameCorrupt(t *testing.T) {
	// Raw-line length of MaxUint64: int(l) goes negative, which an
	// int-domain bounds check would wave through into a slice panic.
	p := binary.AppendUvarint(nil, 0) // adapter
	p = binary.AppendUvarint(p, 1)    // firstOff
	p = binary.AppendUvarint(p, 1)    // lastOff
	p = binary.AppendUvarint(p, 1)    // nRaw
	p = binary.AppendUvarint(p, ^uint64(0))
	if _, err := decodeSpillFrame(p); err == nil {
		t.Fatal("oversized raw length decoded without error")
	}

	// Line count far beyond the payload: must be rejected before the
	// count sizes an allocation.
	p = binary.AppendUvarint(nil, 0)
	p = binary.AppendUvarint(p, 1)
	p = binary.AppendUvarint(p, 1)
	p = binary.AppendUvarint(p, 1<<40) // nRaw
	if _, err := decodeSpillFrame(p); err == nil {
		t.Fatal("oversized line count decoded without error")
	}
}

// spilledPayload is the payload Spill writes to the lane for fr.
func spilledPayload(t testing.TB, fr hyracks.Frame) []byte {
	t.Helper()
	q, err := NewSpillQueue(NewMemFS(), "spill", "seed.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Spill(fr); err != nil {
		t.Fatal(err)
	}
	payload, err := frame.ReadAt(q.f, 0, q.writeAt-frame.HeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// FuzzSpillFrame decodes arbitrary bytes as a spill-lane payload. The
// decoder never panics and never sizes the raw-line spine from a count
// the payload does not back (a line costs at least its length byte), and
// a frame it accepts is one Spill can write: spilling it and unspilling
// the result gives back the same adapter, offsets and lines.
func FuzzSpillFrame(f *testing.F) {
	for _, fr := range []hyracks.Frame{
		spillFrame(0, 0, 0, 0),
		spillFrame(2, 1, 4, 4),
		spillFrame(math.MaxInt32, 1<<40, 1<<40+99, 100),
		{Adapter: 1, FirstOff: 7, LastOff: 9, Raw: [][]byte{{}, bytes.Repeat([]byte("x"), 300), []byte("{}")}},
	} {
		f.Add(spilledPayload(f, fr))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got hyracks.Frame
		var err error
		// A slot is 24 bytes; the arena's slabs at most double past the
		// line bytes they hold, and a fresh arena starts at 8 KiB.
		if grew := heapGrowth(func() { got, err = decodeSpillFrame(payload) }); grew > 1<<16+32*uint64(len(payload)) {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		// Spill recycles the frame's arena, which its lines alias.
		want := hyracks.Frame{Adapter: got.Adapter, FirstOff: got.FirstOff, LastOff: got.LastOff}
		for _, line := range got.Raw {
			want.Raw = append(want.Raw, bytes.Clone(line))
		}
		q, err := NewSpillQueue(NewMemFS(), "spill", "fuzz.spill")
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if err := q.Spill(got); err != nil {
			t.Fatalf("Spill of a decoded frame: %v", err)
		}
		back, ok, err := q.Unspill()
		if err != nil || !ok {
			t.Fatalf("Unspill: ok=%v err=%v", ok, err)
		}
		defer hyracks.RecycleFrame(back)
		if back.Adapter != want.Adapter || back.FirstOff != want.FirstOff || back.LastOff != want.LastOff || len(back.Raw) != len(want.Raw) {
			t.Fatalf("round trip: adapter %d offsets %d..%d, %d lines; want %d %d..%d, %d lines",
				back.Adapter, back.FirstOff, back.LastOff, len(back.Raw), want.Adapter, want.FirstOff, want.LastOff, len(want.Raw))
		}
		for i := range want.Raw {
			if !bytes.Equal(back.Raw[i], want.Raw[i]) {
				t.Fatalf("round trip: line %d = %q, want %q", i, back.Raw[i], want.Raw[i])
			}
		}
	})
}

// BenchmarkIntakeSpill measures the spill lane round trip — encode one
// frame to the (in-memory) file and decode it back — the per-frame cost
// a congested Spill-policy feed pays instead of blocking.
func BenchmarkIntakeSpill(b *testing.B) {
	fs := NewMemFS()
	q, err := NewSpillQueue(fs, "spill", "bench.spill")
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Spill(spillFrame(0, uint64(i*128+1), uint64(i*128+128), 128)); err != nil {
			b.Fatal(err)
		}
		f, ok, err := q.Unspill()
		if err != nil || !ok {
			b.Fatalf("unspill: ok=%v err=%v", ok, err)
		}
		records += f.Len()
		hyracks.RecycleFrame(f)
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/frame")
}
