package hyracks

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// TestFramePoolOwnership drives pooled frames through a holder from
// concurrent producers and asserts the consumer never observes a
// recycled frame mutated: every pulled record must carry exactly the
// payload its producer wrote, and per-payload counts must balance. Run
// under -race this also catches any unsynchronized reuse of pooled
// spines (stash recycles each frame the moment its records are copied
// out, while producers concurrently draw fresh spines from the pool).
func TestFramePoolOwnership(t *testing.T) {
	const (
		producers     = 4
		framesPerProd = 200
		recsPerFrame  = 7
		maxPayload    = producers << 20
	)
	ctx := context.Background()
	h := NewPassiveHolder(8)

	var wg sync.WaitGroup
	for id := 0; id < producers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < framesPerProd; i++ {
				recs := GetRecordSlice(recsPerFrame)
				payload := int64(id<<20 | i)
				for k := 0; k < recsPerFrame; k++ {
					recs = append(recs, adm.Int(payload))
				}
				if err := h.PushFrame(ctx, Frame{Records: recs}); err != nil {
					t.Errorf("producer %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	go func() {
		wg.Wait()
		h.CloseInput()
	}()

	counts := make(map[int64]int)
	total := 0
	for {
		frames, eof, err := h.PullFrames(ctx, 64)
		if err != nil {
			t.Fatalf("PullFrames: %v", err)
		}
		for _, f := range frames {
			for _, r := range f.Records {
				if r.Kind() != adm.KindInt64 {
					t.Fatalf("pulled record of kind %v — recycled frame observed mutated", r.Kind())
				}
				v := r.IntVal()
				if v < 0 || v >= int64(maxPayload) {
					t.Fatalf("pulled record with corrupt payload %d", v)
				}
				counts[v]++
			}
			total += len(f.Records)
			// Recycling feeds the producers' GetRecordSlice draws.
			RecycleFrame(f)
		}
		if eof {
			break
		}
	}
	if want := producers * framesPerProd * recsPerFrame; total != want {
		t.Fatalf("pulled %d records, want %d", total, want)
	}
	for v, n := range counts {
		if n != recsPerFrame {
			t.Fatalf("payload %d seen %d times, want %d — frame contents torn across recycling", v, n, recsPerFrame)
		}
	}
}

// TestFrameBuilderReusesPooledBuffers checks the builder/consumer
// recycling loop end to end: a consumer that recycles after copying
// must never affect frames already delivered, and flush boundaries must
// preserve order and contents.
func TestFrameBuilderReusesPooledBuffers(t *testing.T) {
	var got []int64
	sink := writerFunc(func(f Frame) error {
		for _, line := range f.Raw {
			v, err := strconv.ParseInt(string(line), 10, 64)
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		RecycleFrame(f) // consumer owns the frame after Push
		return nil
	})
	b := NewFrameBuilder(4, sink)
	const n = 103
	for i := 0; i < n; i++ {
		if err := b.AddRawCopy(strconv.AppendInt(nil, int64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d records, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("record %d = %d, want %d", i, v, i)
		}
	}
}

// TestRawLane covers AddRawCopy/PullFrames: raw bytes must flow through
// builder, holder, and pull without corruption.
func TestRawLane(t *testing.T) {
	ctx := context.Background()
	h := NewPassiveHolder(8)
	b := NewFrameBuilder(3, writerFunc(func(f Frame) error {
		return h.PushFrame(ctx, f)
	}))
	payloads := [][]byte{
		[]byte(`{"id":1}`), []byte(`{"id":2}`), []byte(`{"id":3}`),
		[]byte(`{"id":4}`), []byte(`{"id":5}`),
	}
	for _, p := range payloads {
		if err := b.AddRawCopy(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	h.CloseInput()
	var got [][]byte
	for {
		frames, eof, err := h.PullFrames(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			for _, line := range f.Raw {
				got = append(got, append([]byte(nil), line...))
			}
			RecycleFrame(f)
		}
		if eof {
			break
		}
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d raw records, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		if string(got[i]) != string(p) {
			t.Fatalf("raw record %d = %q, want %q", i, got[i], p)
		}
	}
}

// writerFunc adapts a function to Writer for tests.
type writerFunc func(Frame) error

func (writerFunc) Open() error           { return nil }
func (fn writerFunc) Push(f Frame) error { return fn(f) }
func (writerFunc) Close() error          { return nil }
