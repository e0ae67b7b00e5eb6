package hyracks

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPushFrameCloseInputRace is the regression test for the
// send-on-closed-channel panic: the old PassiveHolder checked closed
// under the mutex, released it, then sent, so a concurrent CloseInput
// could close the queue channel in between. Hammer pushes against
// closes; every push must either enqueue or report ErrHolderClosed, and
// nothing may panic. Run with -race.
func TestPushFrameCloseInputRace(t *testing.T) {
	ctx := context.Background()
	for iter := 0; iter < 200; iter++ {
		h := NewPassiveHolder(4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		pushed := make(chan int, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n := 0
				for i := 0; i < 50; i++ {
					err := h.PushFrame(ctx, Frame{Records: intRecords(1)})
					if err == nil {
						n++
						continue
					}
					if !errors.Is(err, ErrHolderClosed) {
						t.Errorf("PushFrame: %v", err)
						return
					}
					break
				}
				pushed <- n
			}()
		}
		// Drain concurrently so pushes are not just blocked on a full
		// queue, maximizing interleavings with the close.
		drained := make(chan int)
		go func() {
			total := 0
			for {
				frames, eof, err := h.PullFrames(ctx, 16)
				if err != nil {
					t.Errorf("PullFrames: %v", err)
					break
				}
				for _, f := range frames {
					total += f.Len()
					RecycleFrame(f)
				}
				if eof {
					break
				}
			}
			drained <- total
		}()
		close(start)
		h.CloseInput()
		wg.Wait()
		close(pushed)
		want := 0
		for n := range pushed {
			want += n
		}
		got := <-drained
		if got != want {
			t.Fatalf("iter %d: drained %d records before EOF, want %d (successful pushes)", iter, got, want)
		}
		// EOF is a guarantee: nothing may surface after it.
		if frames, _, err := h.PullFrames(ctx, 16); err != nil || len(frames) != 0 {
			t.Fatalf("iter %d: %d frames appeared after EOF (err=%v)", iter, len(frames), err)
		}
	}
}

// TestPassiveHolderRunPushCloseRace is the same hammer for a holder
// heading its job (the storage job's shape): Run must return cleanly
// having forwarded exactly the successful pushes.
func TestPassiveHolderRunPushCloseRace(t *testing.T) {
	ctx := context.Background()
	for iter := 0; iter < 200; iter++ {
		h := NewPassiveHolder(4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		pushed := make(chan int, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n := 0
				for i := 0; i < 50; i++ {
					if err := h.PushFrame(ctx, Frame{Records: intRecords(1)}); err != nil {
						if !errors.Is(err, ErrHolderClosed) {
							t.Errorf("PushFrame: %v", err)
						}
						break
					}
					n++
				}
				pushed <- n
			}()
		}
		var out countingWriter
		done := make(chan error, 1)
		go func() {
			tc := &TaskContext{Ctx: ctx}
			done <- h.Run(tc, &out)
		}()
		close(start)
		h.CloseInput()
		wg.Wait()
		if err := <-done; err != nil {
			t.Fatalf("iter %d: Run: %v", iter, err)
		}
		close(pushed)
		want := 0
		for n := range pushed {
			want += n
		}
		if out.records != want {
			t.Fatalf("iter %d: Run forwarded %d records, want %d (successful pushes)", iter, out.records, want)
		}
	}
}

// countingWriter counts the records pushed into it.
type countingWriter struct{ records int }

func (w *countingWriter) Open() error { return nil }
func (w *countingWriter) Push(f Frame) error {
	w.records += f.Len()
	return nil
}
func (w *countingWriter) Close() error { return nil }

// TestEOFWaitsForInFlightPush pins the wait the hammers above can only
// hit by luck: a push that passed its closed-check before CloseInput
// may land its frame afterwards, and neither way out of a holder —
// PullFrames nor Run — may report EOF until it has, nor lose the frame.
func TestEOFWaitsForInFlightPush(t *testing.T) {
	for _, via := range []string{"PullFrames", "Run"} {
		h := NewPassiveHolder(4)
		h.inflight.Add(1) // a push between its closed-check and its send
		h.CloseInput()
		got := make(chan int, 1)
		go func() {
			if via == "Run" {
				var out countingWriter
				if err := h.Run(&TaskContext{Ctx: context.Background()}, &out); err != nil {
					t.Error(err)
				}
				got <- out.records
				return
			}
			n := 0
			for {
				frames, eof, err := h.PullFrames(context.Background(), 16)
				if err != nil {
					t.Error(err)
				}
				n += frameRecords(frames)
				if eof || err != nil {
					got <- n
					return
				}
			}
		}()
		select {
		case n := <-got:
			t.Fatalf("%s reported EOF after %d records with a push in flight", via, n)
		case <-time.After(20 * time.Millisecond):
		}
		h.queue <- Frame{Records: intRecords(3)}
		h.inflight.Add(-1)
		select {
		case n := <-got:
			if n != 3 {
				t.Fatalf("%s drained %d records, want the in-flight push's 3", via, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reported EOF once the push landed", via)
		}
	}
}
