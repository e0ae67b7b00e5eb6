package hyracks

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// memSpiller is an in-memory FrameSpiller for holder-level tests (the
// real disk-backed one lives in internal/lsm).
type memSpiller struct {
	mu     sync.Mutex
	frames []Frame
	// failSpill, when set, makes the next Spill call return it.
	failSpill error
}

func (s *memSpiller) Spill(f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failSpill != nil {
		err := s.failSpill
		s.failSpill = nil
		return err
	}
	s.frames = append(s.frames, f)
	return nil
}

func (s *memSpiller) Unspill() (Frame, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) == 0 {
		return Frame{}, false, nil
	}
	f := s.frames[0]
	s.frames = s.frames[1:]
	return f, true, nil
}

func (s *memSpiller) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// markedFrame builds a one-record frame tagged with a source offset so
// tests can assert FIFO order across the ring and the spill lane.
func markedFrame(off uint64) Frame {
	return Frame{Records: intRecords(1), FirstOff: off, LastOff: off}
}

func TestHolderSpillPolicy(t *testing.T) {
	ctx := context.Background()
	sp := &memSpiller{}
	var spilled int
	h := NewPassiveHolderOpts(HolderOptions{
		Capacity: 2,
		Policy:   Spill,
		Spiller:  sp,
		OnSpill:  func(records int) { spilled += records },
	})
	// Fill the ring, then overflow: pushes never block, nothing is lost.
	for off := uint64(1); off <= 6; off++ {
		if err := h.PushFrame(ctx, markedFrame(off)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pending() != 2 || h.SpilledPending() != 4 {
		t.Fatalf("pending=%d spilled=%d, want 2/4", h.Pending(), h.SpilledPending())
	}
	if spilled != 4 {
		t.Fatalf("OnSpill saw %d records, want 4", spilled)
	}
	// FIFO invariant: while the lane is non-empty, new pushes spill even
	// though draining the ring makes room.
	h.CloseInput()
	var got []uint64
	for {
		frames, eof, err := h.PullFrames(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if eof {
			break
		}
		for _, f := range frames {
			got = append(got, f.FirstOff)
			RecycleFrame(f)
		}
	}
	if len(got) != 6 {
		t.Fatalf("drained %d frames, want 6", len(got))
	}
	for i, off := range got {
		if off != uint64(i+1) {
			t.Fatalf("frame %d has offset %d: FIFO across lanes broken (%v)", i, off, got)
		}
	}
}

func TestHolderSpillLaneStickyFIFO(t *testing.T) {
	// Once a frame is in the lane, later pushes must go to the lane too
	// (even with ring room) until the consumer drains it — otherwise a
	// newer ring frame would overtake an older spilled one.
	ctx := context.Background()
	sp := &memSpiller{}
	h := NewPassiveHolderOpts(HolderOptions{Capacity: 1, Policy: Spill, Spiller: sp})
	h.PushFrame(ctx, markedFrame(1)) // ring
	h.PushFrame(ctx, markedFrame(2)) // lane (ring full)
	// Drain the ring: room again, but the lane is non-empty.
	frames, _, _ := h.PullFrames(ctx, 1)
	if len(frames) != 1 || frames[0].FirstOff != 1 {
		t.Fatalf("first pull = %+v", frames)
	}
	RecycleFrame(frames[0])
	h.PushFrame(ctx, markedFrame(3))
	if sp.Len() != 2 {
		t.Fatalf("lane has %d frames, want 2 (sticky spill)", sp.Len())
	}
	h.CloseInput()
	for want := uint64(2); want <= 3; want++ {
		frames, eof, err := h.PullFrames(ctx, 1)
		if err != nil || eof || len(frames) != 1 || frames[0].FirstOff != want {
			t.Fatalf("pull want off=%d: frames=%+v eof=%v err=%v", want, frames, eof, err)
		}
		RecycleFrame(frames[0])
	}
}

func TestHolderSpillLaneFull(t *testing.T) {
	ctx := context.Background()
	overloaded := errors.New("test: overloaded")
	h := NewPassiveHolderOpts(HolderOptions{
		Capacity:         1,
		Policy:           Spill,
		Spiller:          &memSpiller{},
		MaxSpilledFrames: 2,
		Overloaded:       overloaded,
	})
	h.PushFrame(ctx, markedFrame(1)) // ring
	h.PushFrame(ctx, markedFrame(2)) // lane 1/2
	h.PushFrame(ctx, markedFrame(3)) // lane 2/2
	err := h.PushFrame(ctx, markedFrame(4))
	if !errors.Is(err, overloaded) {
		t.Fatalf("push into full lane = %v, want wrap of overloaded sentinel", err)
	}
}

func TestHolderSpillErrorPropagates(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk gone")
	sp := &memSpiller{failSpill: boom}
	h := NewPassiveHolderOpts(HolderOptions{Capacity: 1, Policy: Spill, Spiller: sp})
	h.PushFrame(ctx, markedFrame(1))
	if err := h.PushFrame(ctx, markedFrame(2)); !errors.Is(err, boom) {
		t.Fatalf("spill failure = %v, want %v", err, boom)
	}
}

func TestHolderShedPolicy(t *testing.T) {
	ctx := context.Background()
	var dropped []uint64
	h := NewPassiveHolderOpts(HolderOptions{
		Capacity: 2,
		Policy:   Shed,
		OnDrop: func(f Frame, sampled bool) {
			if sampled {
				t.Error("shed drop reported as sampled")
			}
			dropped = append(dropped, f.FirstOff)
			RecycleFrame(f)
		},
	})
	for off := uint64(1); off <= 5; off++ {
		if err := h.PushFrame(ctx, markedFrame(off)); err != nil {
			t.Fatal(err)
		}
	}
	// Ring kept the first two; the rest were shed, exactly counted.
	if len(dropped) != 3 {
		t.Fatalf("dropped %v, want offsets 3..5", dropped)
	}
	for i, off := range dropped {
		if off != uint64(i+3) {
			t.Fatalf("dropped %v, want offsets 3..5", dropped)
		}
	}
	h.CloseInput()
	frames, _, _ := h.PullFrames(ctx, 100)
	if len(frames) != 2 {
		t.Fatalf("kept %d frames, want 2", len(frames))
	}
	for _, f := range frames {
		RecycleFrame(f)
	}
}

func TestHolderSamplePolicy(t *testing.T) {
	ctx := context.Background()
	var sampledOut int
	h := NewPassiveHolderOpts(HolderOptions{
		Capacity:   1,
		Policy:     Sample,
		SampleRate: 0.25,
		OnDrop: func(f Frame, sampled bool) {
			if !sampled {
				t.Error("sample drop reported as shed")
			}
			sampledOut++
			RecycleFrame(f)
		},
	})
	// Keep the consumer draining so kept frames don't block the pusher.
	done := make(chan int)
	go func() {
		kept := 0
		for {
			frames, eof, err := h.PullFrames(ctx, 1)
			if err != nil {
				t.Error(err)
				break
			}
			if eof {
				break
			}
			for _, f := range frames {
				kept++
				RecycleFrame(f)
			}
		}
		done <- kept
	}()
	const total = 101 // one uncongested push + 100 policy decisions
	for off := uint64(1); off <= total; off++ {
		if err := h.PushFrame(ctx, markedFrame(off)); err != nil {
			t.Fatal(err)
		}
		// Stay congested: give the consumer no head start.
	}
	h.CloseInput()
	kept := <-done
	if kept+sampledOut != total {
		t.Fatalf("kept %d + dropped %d != %d pushed", kept, sampledOut, total)
	}
	// The accumulator keeps exactly rate*congested-arrivals (±1); the
	// consumer may also catch some pushes uncongested, so bound loosely.
	if sampledOut == 0 || kept == 0 {
		t.Fatalf("degenerate sampling: kept=%d dropped=%d", kept, sampledOut)
	}
	if sampledOut > 80 {
		t.Fatalf("dropped %d of %d: far above the 75%% target", sampledOut, total)
	}
}

func TestHolderFailPoisons(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("partition down")
	h := NewPassiveHolder(4)
	h.PushFrame(ctx, markedFrame(1))

	// A blocked pull unblocks with the failure.
	pullErr := make(chan error, 1)
	go func() {
		h2 := NewPassiveHolder(4)
		go func() {
			time.Sleep(10 * time.Millisecond)
			h2.Fail(boom)
		}()
		_, _, err := h2.PullFrames(ctx, 1)
		pullErr <- err
	}()

	h.Fail(boom)
	if err := h.PushFrame(ctx, markedFrame(2)); !errors.Is(err, boom) {
		t.Fatalf("push after fail = %v", err)
	}
	if _, _, err := h.PullFrames(ctx, 1); !errors.Is(err, boom) {
		t.Fatalf("pull after fail = %v", err)
	}
	select {
	case err := <-pullErr:
		if !errors.Is(err, boom) {
			t.Fatalf("blocked pull got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not unblock a blocked pull")
	}

	// Blocked pushes unblock too.
	h3 := NewPassiveHolder(1)
	h3.PushFrame(ctx, markedFrame(1))
	pushErr := make(chan error, 1)
	go func() { pushErr <- h3.PushFrame(ctx, markedFrame(2)) }()
	time.Sleep(10 * time.Millisecond)
	h3.Fail(boom)
	select {
	case err := <-pushErr:
		if !errors.Is(err, boom) {
			t.Fatalf("blocked push got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not unblock a blocked push")
	}
}

func TestHolderManagerFailAll(t *testing.T) {
	boom := errors.New("node died")
	m := NewHolderManager()
	intake, storage := NewPassiveHolder(4), NewPassiveHolder(4)
	m.Register("f/intake", intake)
	m.Register("f/storage", storage)
	// The storage holder heads a job, as a feed's does.
	ran := make(chan error, 1)
	go func() { ran <- storage.Run(&TaskContext{Ctx: context.Background()}, Discard) }()
	m.FailAll(boom)
	ctx := context.Background()
	for _, h := range []*PassiveHolder{intake, storage} {
		if err := h.PushFrame(ctx, Frame{}); !errors.Is(err, boom) {
			t.Errorf("push = %v", err)
		}
	}
	if _, _, err := intake.PullFrames(ctx, 1); !errors.Is(err, boom) {
		t.Errorf("pull = %v", err)
	}
	select {
	case err := <-ran:
		if !errors.Is(err, boom) {
			t.Errorf("Run = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FailAll did not stop a holder heading its job")
	}
}
