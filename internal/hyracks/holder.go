package hyracks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrHolderClosed is returned when pushing into a holder whose input has
// been closed.
var ErrHolderClosed = errors.New("hyracks: partition holder closed")

// CongestionPolicy selects what an intake holder does when its
// fixed-size frame ring is full. The ring (the queue channel) bounds
// in-memory buffering; the policy decides where the overflow goes.
type CongestionPolicy int

const (
	// Backpressure blocks the producer until the ring has room — the
	// legacy behaviour, and the storage-holder default.
	Backpressure CongestionPolicy = iota
	// Spill diverts overflow frames to the holder's FrameSpiller (a
	// disk-backed FIFO lane); no record is lost and intake memory stays
	// bounded by the ring.
	Spill
	// Shed drops overflow frames while the ring is congested, counting
	// exactly what was dropped (via OnDrop).
	Shed
	// Sample keeps approximately SampleRate of the frames arriving
	// while the ring is congested (deterministic accumulator, not
	// random) and drops the rest, counting drops exactly.
	Sample
)

// String names the policy for stats and logs.
func (p CongestionPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case Spill:
		return "spill"
	case Shed:
		return "shed"
	case Sample:
		return "sample"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// FrameSpiller is the overflow lane a Spill-policy holder diverts
// frames into when its in-memory ring is full: a FIFO queue that
// persists frames (lsm.SpillQueue encodes them CRC-framed through the
// storage filesystem seam). Spill takes ownership of the frame — the
// spiller encodes (preserving the offset provenance) and recycles it;
// Unspill returns a reconstructed frame the caller owns. A spiller is
// driven by one producer (Spill) and one consumer (Unspill/Len)
// serialized by the holder; implementations need not add locking for
// the holder's access pattern, but Len must be safe to call from
// either side.
type FrameSpiller interface {
	Spill(f Frame) error
	Unspill() (Frame, bool, error)
	Len() int
}

// HolderOptions configures a partition holder beyond its ring capacity.
// The zero value is the legacy holder: Backpressure policy, no spill
// lane, no callbacks.
type HolderOptions struct {
	// Capacity bounds the in-memory frame ring (default 64).
	Capacity int
	// Policy selects the overflow behaviour; Spill without a Spiller
	// degrades to Backpressure.
	Policy CongestionPolicy
	// SampleRate is the fraction of congested-arrival frames the Sample
	// policy keeps (0 < rate < 1; outside that range Sample degrades to
	// Shed at <=0 and Backpressure at >=1).
	SampleRate float64
	// Spiller is the overflow lane for the Spill policy.
	Spiller FrameSpiller
	// MaxSpilledFrames bounds the spill lane (0 = unbounded). When the
	// lane is full a push fails with an error wrapping Overloaded — the
	// point where a loss-free policy must reject rather than buffer.
	MaxSpilledFrames int
	// Overloaded is the sentinel wrapped by spill-lane-exhausted errors
	// (the feed layer passes its typed ErrFeedOverloaded).
	Overloaded error
	// OnSpill observes each frame diverted to the spill lane (records =
	// frame record count), before the spiller takes ownership.
	OnSpill func(records int)
	// OnDrop receives each frame dropped by Shed/Sample and takes
	// ownership of it (mark offsets delivered, count records, recycle).
	// sampled distinguishes Sample drops from Shed drops. Nil means the
	// holder recycles dropped frames itself.
	OnDrop func(f Frame, sampled bool)
}

// PassiveHolder is the paper's partition holder: it guards a runtime
// partition with a bounded frame ring (plus an optional spill lane) so
// that frames can cross job boundaries. The paper's two kinds are the
// two ways a job attaches to one:
//
//   - passive: the owning job's instances push frames in with
//     PushFrame and other jobs pull batches out with PullFrames. The
//     intake job's adapters push into one on every node so computing
//     jobs can collect their input; its ring is the intake's only queue.
//   - active: the holder heads its own job (Run makes it the job's
//     Source) and other jobs push frames in with PushFrame. The storage
//     job starts at one, fed by the computing jobs' sinks.
//
// The queue channel is the fixed-size ring and is never closed:
// end-of-input is signaled by the done channel instead, so a push
// racing CloseInput can never panic with "send on closed channel". The
// inflight counter tracks pushes that are past their closed-check; next
// waits those out before reporting EOF, for PullFrames and Run alike.
// Together they give the holder invariant: a push either returns an
// error, or succeeds and its frame is drained before EOF is reported —
// never a panic, never a silent drop (Shed/Sample drops are deliberate
// and routed to OnDrop).
//
// FIFO across the two lanes: a pusher's ring frames are always older
// than its spilled frames. A producer spills whenever the spill lane is
// non-empty (even if the ring has room again) and the consumer drains
// the ring before unspilling, so each pusher's frames drain in the order
// it pushed them. An intake holder has one pushing goroutine per adapter
// of its feed, whose frames interleave, and one pulling goroutine (the
// collector; invocations run sequentially).
type PassiveHolder struct {
	queue    chan Frame
	done     chan struct{}
	once     sync.Once
	inflight atomic.Int64

	opts HolderOptions

	// spillMu serializes the policies' state across pushers: the spill
	// lane (the consumer's unspill too) and sampleAcc, the Sample keep
	// accumulator. spillC (cap 1) wakes a blocked consumer when the lane
	// becomes non-empty.
	spillMu   sync.Mutex
	spillC    chan struct{}
	sampleAcc float64

	// Failure poisoning (partition failover): failedC closes once and
	// every subsequent push/pull returns failErr.
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error
	failedC  chan struct{}
}

// NewPassiveHolder returns a backpressure holder with the given ring
// capacity.
func NewPassiveHolder(capacity int) *PassiveHolder {
	return NewPassiveHolderOpts(HolderOptions{Capacity: capacity})
}

// NewPassiveHolderOpts returns a holder with a full congestion
// configuration (policy, spill lane, drop callbacks).
func NewPassiveHolderOpts(opts HolderOptions) *PassiveHolder {
	if opts.Capacity <= 0 {
		opts.Capacity = 64
	}
	if opts.Policy == Spill && opts.Spiller == nil {
		opts.Policy = Backpressure
	}
	if opts.Policy == Sample {
		if opts.SampleRate <= 0 {
			opts.Policy = Shed
		} else if opts.SampleRate >= 1 {
			opts.Policy = Backpressure
		}
	}
	return &PassiveHolder{
		queue:   make(chan Frame, opts.Capacity),
		done:    make(chan struct{}),
		opts:    opts,
		spillC:  make(chan struct{}, 1),
		failedC: make(chan struct{}),
	}
}

// CloseInput marks the holder's input as finished once every pusher is
// done (the paper's stop-feed "EOF record"). Idempotent.
func (h *PassiveHolder) CloseInput() {
	h.once.Do(func() { close(h.done) })
}

// Fail poisons the holder (partition failover): every subsequent push
// or pull returns err, so jobs wired to this holder fail fast instead
// of wedging on a dead partition. Idempotent; the first error wins.
func (h *PassiveHolder) Fail(err error) {
	h.failOnce.Do(func() {
		h.failMu.Lock()
		h.failErr = err
		h.failMu.Unlock()
		close(h.failedC)
	})
}

// failed returns the poisoning error, or nil.
func (h *PassiveHolder) failed() error {
	select {
	case <-h.failedC:
		h.failMu.Lock()
		defer h.failMu.Unlock()
		return h.failErr
	default:
		return nil
	}
}

// PushFrame enqueues a frame, transferring ownership of its slices to
// the holder, under the close protocol and the holder's congestion
// policy (Backpressure blocks when full; Spill diverts to the lane;
// Shed/Sample may drop). A push racing CloseInput either lands — and is
// drained before EOF — or reports ErrHolderClosed.
func (h *PassiveHolder) PushFrame(ctx context.Context, f Frame) error {
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	if err := h.failed(); err != nil {
		return err
	}
	select {
	case <-h.done:
		return ErrHolderClosed
	default:
	}
	switch h.opts.Policy {
	case Spill:
		return h.pushSpill(f)
	case Shed:
		return h.pushShed(f)
	case Sample:
		return h.pushSample(ctx, f)
	}
	return h.pushBlocking(ctx, f)
}

// pushBlocking is the Backpressure path: block until the ring has room.
func (h *PassiveHolder) pushBlocking(ctx context.Context, f Frame) error {
	select {
	case h.queue <- f:
		return nil
	case <-h.done:
		return ErrHolderClosed
	case <-h.failedC:
		return h.failed()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pushSpill diverts overflow to the spill lane. The lane stays in use
// until drained even if the ring has room again — that is the FIFO
// invariant (ring frames older than lane frames).
func (h *PassiveHolder) pushSpill(f Frame) error {
	h.spillMu.Lock()
	if h.opts.Spiller.Len() > 0 {
		err := h.spillLocked(f)
		h.spillMu.Unlock()
		return err
	}
	h.spillMu.Unlock()
	select {
	case h.queue <- f:
		return nil
	default:
	}
	h.spillMu.Lock()
	defer h.spillMu.Unlock()
	return h.spillLocked(f)
}

func (h *PassiveHolder) spillLocked(f Frame) error {
	if m := h.opts.MaxSpilledFrames; m > 0 && h.opts.Spiller.Len() >= m {
		err := fmt.Errorf("hyracks: spill lane full (%d frames)", m)
		if h.opts.Overloaded != nil {
			err = fmt.Errorf("%w: spill lane full (%d frames)", h.opts.Overloaded, m)
		}
		return err
	}
	records := f.Len()
	if err := h.opts.Spiller.Spill(f); err != nil {
		return err
	}
	if h.opts.OnSpill != nil {
		h.opts.OnSpill(records)
	}
	select {
	case h.spillC <- struct{}{}:
	default:
	}
	return nil
}

// pushShed drops the frame when the ring is full.
func (h *PassiveHolder) pushShed(f Frame) error {
	select {
	case h.queue <- f:
		return nil
	default:
	}
	h.drop(f, false)
	return nil
}

// pushSample keeps ~SampleRate of congested arrivals (kept frames wait
// for ring room like Backpressure) and drops the rest.
func (h *PassiveHolder) pushSample(ctx context.Context, f Frame) error {
	select {
	case h.queue <- f:
		return nil
	default:
	}
	h.spillMu.Lock()
	h.sampleAcc += h.opts.SampleRate
	keep := h.sampleAcc >= 1
	if keep {
		h.sampleAcc--
	}
	h.spillMu.Unlock()
	if keep {
		return h.pushBlocking(ctx, f)
	}
	h.drop(f, true)
	return nil
}

func (h *PassiveHolder) drop(f Frame, sampled bool) {
	if h.opts.OnDrop != nil {
		h.opts.OnDrop(f, sampled)
		return
	}
	RecycleFrame(f)
}

// takeNB takes the next frame without blocking, honoring lane order:
// ring first, then spill lane.
func (h *PassiveHolder) takeNB() (Frame, bool, error) {
	select {
	case f := <-h.queue:
		return f, true, nil
	default:
	}
	if sp := h.opts.Spiller; sp != nil {
		h.spillMu.Lock()
		f, ok, err := sp.Unspill()
		h.spillMu.Unlock()
		if err != nil || ok {
			return f, ok, err
		}
	}
	return Frame{}, false, nil
}

// next blocks for the next frame. ok=false means EOF: the input is
// closed and the holder fully drained — nothing ringed, nothing
// spilled, no push in flight. Once done is closed no push can block,
// so the pushes past their closed-check either land promptly or fail;
// next polls until the in-flight count reaches zero, then polls once
// more, because a push may land its frame and decrement between the
// poll and the load.
func (h *PassiveHolder) next(ctx context.Context) (Frame, bool, error) {
	for {
		if err := h.failed(); err != nil {
			return Frame{}, false, err
		}
		if f, ok, err := h.takeNB(); err != nil || ok {
			return f, ok, err
		}
		select {
		case f := <-h.queue:
			return f, true, nil
		case <-h.spillC:
			// The lane became non-empty; loop and take from it.
		case <-h.done:
			for h.inflight.Load() != 0 {
				if f, ok, err := h.takeNB(); err != nil || ok {
					return f, ok, err
				}
				runtime.Gosched()
			}
			return h.takeNB()
		case <-h.failedC:
			return Frame{}, false, h.failed()
		case <-ctx.Done():
			return Frame{}, false, ctx.Err()
		}
	}
}

// PullFrames collects whole frames for a computing-job invocation: it
// blocks until at least one frame is available (or input is closed),
// then drains without blocking until the pulled frames total at least
// max records. Frames are never split, so nothing is copied and each
// frame's line arena travels with its lines — the batch may
// overshoot max by up to one frame's worth (producers size their frames
// to the batch quota; see core.buildIntakeSpec). Ring frames drain
// before spilled frames (FIFO across lanes). The caller takes ownership
// of every returned frame (RecycleFrame each once consumed). eof
// reports closed *and* fully drained.
func (h *PassiveHolder) PullFrames(ctx context.Context, max int) (frames []Frame, eof bool, err error) {
	f, ok, err := h.next(ctx)
	if err != nil || !ok {
		return nil, err == nil, err
	}
	frames = append(frames, f)
	for total := f.Len(); total < max; total += f.Len() {
		if f, ok, err = h.takeNB(); err != nil || !ok {
			return frames, false, err
		}
		frames = append(frames, f)
	}
	return frames, false, nil
}

// Run implements Source: the holder heads its job, forwarding every
// frame pushed into it downstream until the input is closed and drained
// (pushes in flight at close included), or it fails.
func (h *PassiveHolder) Run(tc *TaskContext, out Writer) error {
	if err := out.Open(); err != nil {
		return err
	}
	for {
		f, ok, err := h.next(tc.Ctx)
		if err != nil || !ok {
			return err
		}
		if err := out.Push(f); err != nil {
			return err
		}
	}
}

// Pending reports frames ringed in memory (indicative only; a frame
// holds many records). Spilled frames are NOT included — Pending is the
// bounded-intake gauge, never exceeding the ring capacity; nothing
// queues in front of the ring, so it is the whole intake buffer.
func (h *PassiveHolder) Pending() int { return len(h.queue) }

// SpilledPending reports frames currently parked in the spill lane.
func (h *PassiveHolder) SpilledPending() int {
	if h.opts.Spiller == nil {
		return 0
	}
	return h.opts.Spiller.Len()
}

// HolderManager is the per-node registry partition holders register
// with: it keeps one feed from claiming another's endpoint ids and lets
// a dying node fail every holder it hosts.
type HolderManager struct {
	mu      sync.Mutex
	holders map[string]*PassiveHolder
}

// NewHolderManager returns an empty registry.
func NewHolderManager() *HolderManager {
	return &HolderManager{holders: make(map[string]*PassiveHolder)}
}

// Register adds a holder under id.
func (m *HolderManager) Register(id string, h *PassiveHolder) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.holders[id]; dup {
		return fmt.Errorf("hyracks: holder %q already registered", id)
	}
	m.holders[id] = h
	return nil
}

// Unregister removes a holder id (feed teardown).
func (m *HolderManager) Unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.holders, id)
}

// FailAll poisons every registered holder with err — the node died.
// Jobs pushing to or pulling from this node's holders fail on their
// next touch instead of blocking forever.
func (m *HolderManager) FailAll(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.holders {
		h.Fail(err)
	}
}
