package hyracks

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPassiveHolderPullFrames(t *testing.T) {
	h := NewPassiveHolder(8)
	ctx := context.Background()
	if err := h.PushFrame(ctx, Frame{Records: intRecords(5)}); err != nil {
		t.Fatal(err)
	}
	if err := h.PushFrame(ctx, Frame{Records: intRecords(5)}); err != nil {
		t.Fatal(err)
	}
	// Pull larger than available: gets everything queued, not EOF.
	frames, eof, err := h.PullFrames(ctx, 100)
	if err != nil || eof {
		t.Fatalf("PullFrames: %v eof=%v", err, eof)
	}
	if n := frameRecords(frames); n != 10 {
		t.Fatalf("got %d records", n)
	}
	// Pull smaller than a frame: whole frames, never split — the batch
	// overshoots rather than copying a partial frame out.
	h.PushFrame(ctx, Frame{Records: intRecords(10)})
	frames, _, _ = h.PullFrames(ctx, 3)
	if len(frames) != 1 || frameRecords(frames) != 10 {
		t.Fatalf("got %d frames / %d records, want the whole 10-record frame", len(frames), frameRecords(frames))
	}
	// Once the quota is met, queued frames stay queued.
	h.PushFrame(ctx, Frame{Records: intRecords(2)})
	h.PushFrame(ctx, Frame{Records: intRecords(2)})
	frames, _, _ = h.PullFrames(ctx, 2)
	if frameRecords(frames) != 2 {
		t.Fatalf("quota pull got %d records, want 2", frameRecords(frames))
	}
	frames, _, _ = h.PullFrames(ctx, 100)
	if frameRecords(frames) != 2 {
		t.Fatalf("drain pull got %d records, want 2", frameRecords(frames))
	}
	// EOF after close and drain.
	h.CloseInput()
	frames, eof, _ = h.PullFrames(ctx, 10)
	if len(frames) != 0 || !eof {
		t.Fatalf("after close: %d frames eof=%v", len(frames), eof)
	}
	// Pushing after close fails.
	if err := h.PushFrame(ctx, Frame{}); !errors.Is(err, ErrHolderClosed) {
		t.Errorf("push after close = %v", err)
	}
}

// frameRecords sums the records across a pulled frame batch.
func frameRecords(frames []Frame) int {
	n := 0
	for _, f := range frames {
		n += f.Len()
	}
	return n
}

func TestPassiveHolderBlocksUntilData(t *testing.T) {
	h := NewPassiveHolder(4)
	ctx := context.Background()
	got := make(chan int, 1)
	go func() {
		frames, _, _ := h.PullFrames(ctx, 10)
		got <- frameRecords(frames)
	}()
	time.Sleep(10 * time.Millisecond)
	h.PushFrame(ctx, Frame{Records: intRecords(2)})
	select {
	case n := <-got:
		if n != 2 {
			t.Errorf("pulled %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PullFrames never returned")
	}
}

func TestPassiveHolderPullCancel(t *testing.T) {
	h := NewPassiveHolder(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := h.PullFrames(ctx, 10)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected context error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock pull")
	}
}

func TestPassiveHolderBackpressure(t *testing.T) {
	h := NewPassiveHolder(1)
	ctx := context.Background()
	h.PushFrame(ctx, Frame{Records: intRecords(1)})
	blocked := make(chan struct{})
	go func() {
		h.PushFrame(ctx, Frame{Records: intRecords(1)}) // fills nothing: queue cap 1
		h.PushFrame(ctx, Frame{Records: intRecords(1)}) // must block
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("expected producer to block on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	// Draining unblocks.
	h.PullFrames(ctx, 100)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not unblock producer")
	}
}

// TestPassiveHolderRunForwarding: a holder heading its job (the storage
// job's shape) forwards what concurrent pushers hand it, drains after
// close, and refuses pushes once closed.
func TestPassiveHolderRunForwarding(t *testing.T) {
	h := NewPassiveHolder(8)
	spec := NewJobSpec()
	src := spec.AddOperator(&Descriptor{
		Name: "storage-holder", Parallelism: 1,
		NewSource: func(int) (Source, error) { return h, nil },
	})
	var col Collector
	sink := spec.AddOperator(&Descriptor{
		Name: "store", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return col.Sink(), nil },
	})
	spec.Connect(src, sink, OneToOne, nil)
	job, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Concurrent pushers, like overlapping computing-job partitions.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := h.PushFrame(ctx, Frame{Records: intRecords(4)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h.CloseInput()
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 4*25*4 {
		t.Errorf("stored %d records, want 400", col.Len())
	}
	if err := h.PushFrame(ctx, Frame{}); !errors.Is(err, ErrHolderClosed) {
		t.Errorf("push after close = %v", err)
	}
}

// TestHolderManager: one id namespace, whichever way a job attaches to
// the holder; Unregister frees the id.
func TestHolderManager(t *testing.T) {
	m := NewHolderManager()
	intake, storage := NewPassiveHolder(4), NewPassiveHolder(4)
	if err := m.Register("feed1/intake", intake); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("feed1/intake", storage); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := m.Register("feed1/storage", storage); err != nil {
		t.Fatal(err)
	}
	m.Unregister("feed1/intake")
	if err := m.Register("feed1/intake", intake); err != nil {
		t.Errorf("id not freed by Unregister: %v", err)
	}
	if err := m.Register("feed1/storage", storage); err == nil {
		t.Error("Unregister of one id freed another")
	}
}

// TestIntakeComputeStoragePattern wires the paper's three-job layering
// in miniature: intake adapters push frames round-robin straight into
// the holders and close their input once the last adapter is done;
// computing "invocations" pull batches and push them into a holder
// heading a storage job.
func TestIntakeComputeStoragePattern(t *testing.T) {
	ctx := context.Background()
	const total, adapters, frameCap = 500, 2, 16

	// Intake: two adapters → holders (2 partitions), no queue between.
	holders := []*PassiveHolder{NewPassiveHolder(16), NewPassiveHolder(16)}
	intakeErr := make(chan error, adapters)
	var pushers sync.WaitGroup
	for a := 0; a < adapters; a++ {
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			// Each frame owns its spine: the consumer recycles it.
			for sent, next := 0, a; sent < total/adapters; sent, next = sent+frameCap, next+1 {
				fr := Frame{Records: intRecords(min(frameCap, total/adapters-sent))}
				if err := holders[next%len(holders)].PushFrame(ctx, fr); err != nil {
					intakeErr <- err
					return
				}
			}
		}()
	}
	go func() {
		pushers.Wait()
		for _, h := range holders {
			h.CloseInput()
		}
		close(intakeErr)
	}()

	// Storage job: holder → collector.
	storageHolder := NewPassiveHolder(16)
	storage := NewJobSpec()
	ssrc := storage.AddOperator(&Descriptor{
		Name: "storage-holder", Parallelism: 1,
		NewSource: func(int) (Source, error) { return storageHolder, nil },
	})
	var stored Collector
	ssink := storage.AddOperator(&Descriptor{
		Name: "partition-writer", Parallelism: 1,
		NewPipe: func(int) (Pipe, error) { return stored.Sink(), nil },
	})
	storage.Connect(ssrc, ssink, OneToOne, nil)
	storageJob, err := storage.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Computing "invocations": pull frame batches until both holders EOF.
	done := 0
	for done < len(holders) {
		done = 0
		for _, h := range holders {
			frames, eof, err := h.PullFrames(ctx, 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				// Whole frames forward into the storage job untouched.
				if err := storageHolder.PushFrame(ctx, f); err != nil {
					t.Fatal(err)
				}
			}
			if eof {
				done++
			}
		}
	}
	if err := <-intakeErr; err != nil {
		t.Fatal(err)
	}
	storageHolder.CloseInput()
	if err := storageJob.Wait(); err != nil {
		t.Fatal(err)
	}
	if stored.Len() != total {
		t.Errorf("stored %d, want %d", stored.Len(), total)
	}
}
