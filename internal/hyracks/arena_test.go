package hyracks

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestPullFrames: whole frames come out exactly as pushed — same spines,
// same arenas, no copying — the batch stops once max records are
// gathered, and eof reports closed-and-drained.
func TestPullFrames(t *testing.T) {
	ctx := context.Background()
	h := NewPassiveHolder(8)
	arenas := make([]*adm.Arena, 3)
	for i := range arenas {
		arenas[i] = GetArena()
		raw := GetRawSlice(2)
		raw = append(raw, arenas[i].AppendBytes([]byte{byte(2 * i)}), arenas[i].AppendBytes([]byte{byte(2*i + 1)}))
		if err := h.PushFrame(ctx, Frame{Raw: raw, Arena: arenas[i]}); err != nil {
			t.Fatal(err)
		}
	}
	h.CloseInput()

	frames, eof, err := h.PullFrames(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eof {
		t.Fatal("premature eof")
	}
	// 3 records requested, frames hold 2 each: two whole frames.
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2 (whole frames, allowed to overshoot)", len(frames))
	}
	for i, fr := range frames {
		if fr.Arena != arenas[i] {
			t.Fatalf("frame %d arena was not forwarded intact", i)
		}
		if fr.Raw[0][0] != byte(2*i) {
			t.Fatalf("frame %d out of order", i)
		}
		RecycleFrame(fr)
	}
	frames, eof, err = h.PullFrames(ctx, 10)
	if err != nil || eof {
		t.Fatalf("drain pull: err=%v eof=%v", err, eof)
	}
	if len(frames) != 1 || frames[0].Len() != 2 {
		t.Fatalf("expected the last frame, got %v", frames)
	}
	RecycleFrame(frames[0])
	if _, eof, err = h.PullFrames(ctx, 1); err != nil || !eof {
		t.Fatalf("expected eof, got err=%v eof=%v", err, eof)
	}
}

// TestAddRawCopyStagesVolatileBuffers: AddRawCopy must copy the emitted
// bytes into the frame arena so the caller can reuse its buffer, and
// the arena must ride the flushed frame.
func TestAddRawCopyStagesVolatileBuffers(t *testing.T) {
	var got []Frame
	b := NewFrameBuilder(4, writerFunc(func(f Frame) error {
		got = append(got, f)
		return nil
	}))
	buf := make([]byte, 0, 32)
	lines := []string{`{"id":1}`, `{"id":22}`, `{"id":333}`}
	for _, l := range lines {
		buf = append(buf[:0], l...)
		if err := b.AddRawCopy(buf); err != nil {
			t.Fatal(err)
		}
		// Clobber the shared buffer the way a scanner would.
		for i := range buf {
			buf[i] = '#'
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Arena == nil {
		t.Fatalf("want one frame with an arena, got %+v", got)
	}
	for i, l := range lines {
		if string(got[0].Raw[i]) != l {
			t.Fatalf("line %d = %q, want %q (volatile buffer leaked through)", i, got[0].Raw[i], l)
		}
	}
	RecycleFrame(got[0])
}

// TestPartitionedConnectorWholesaleForwarding: a Partitioned connector
// forwards a frame to the target its Part names untouched — same spine,
// Enc kept.
func TestPartitionedConnectorWholesaleForwarding(t *testing.T) {
	targets := []chan Frame{make(chan Frame, 8), make(chan Frame, 8)}
	var done sync.WaitGroup
	done.Add(1)
	w := &connectorWriter{
		ctx:     context.Background(),
		spec:    connectorSpec{routing: Partitioned},
		targets: targets,
		done:    &done,
	}
	if err := w.Open(); err != nil {
		t.Fatal(err)
	}

	single := GetRecordSlice(4)
	single = append(single, adm.Int(1), adm.Int(3), adm.Int(5))
	enc := []byte("slab")
	if err := w.Push(Frame{Records: single, Enc: enc, Part: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-targets[1]:
		if len(f.Records) != 3 || &f.Records[0] != &single[0] {
			t.Fatal("frame was copied instead of forwarded")
		}
		if &f.Enc[0] != &enc[0] {
			t.Fatal("frame lost its Enc")
		}
		RecycleFrame(f)
	default:
		t.Fatal("frame not delivered to the target its Part names")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshArenaStartsAtFrameSize: when the pool has no arena to give, a
// builder's next frame starts one at the line bytes its previous frame
// staged plus a quarter, so the frame is staged without doubling its way
// up from 8 KiB.
func TestFreshArenaStartsAtFrameSize(t *testing.T) {
	var got []Frame
	b := NewFrameBuilder(64, writerFunc(func(f Frame) error {
		got = append(got, f)
		return nil
	}))
	line := make([]byte, 900)
	stage := func() {
		for range 64 {
			if err := b.AddRawCopy(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	stage()
	// Two collections empty sync.Pool (its victim cache included).
	runtime.GC()
	runtime.GC()
	stage()
	staged := 64 * len(line)
	if got := got[1].Arena.Cap(); got != staged+staged/4 {
		t.Fatalf("a fresh arena of %d bytes after a frame of %d, want %d", got, staged, staged+staged/4)
	}
}
