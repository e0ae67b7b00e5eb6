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

// holderCore is the bounded ring + close/failure protocol shared by
// both holder kinds.
//
// The queue channel is the fixed-size ring and is never closed:
// end-of-input is signaled by the done channel instead, so a push
// racing CloseInput can never panic with "send on closed channel". The
// inflight counter tracks pushes that are past their closed-check;
// drains wait those out before reporting EOF. Together they give the
// holder invariant: a push either returns an error, or succeeds and
// its frame is drained before EOF is reported — never a panic, never a
// silent drop (Shed/Sample drops are deliberate and routed to OnDrop).
//
// FIFO across the two lanes: ring frames are always older than spilled
// frames. A producer spills whenever the spill lane is non-empty (even
// if the ring has room again) and the consumer drains the ring before
// unspilling, so order is preserved end to end. This holds under the
// holders' actual concurrency: one pushing goroutine (the intake job's
// holder task) and one pulling goroutine (the collector; invocations
// run sequentially).
type holderCore struct {
	queue    chan Frame
	done     chan struct{}
	once     sync.Once
	inflight atomic.Int64

	opts HolderOptions

	// spillMu serializes spill-lane access between the producer's
	// overflow path and the consumer's unspill; spillC (cap 1) wakes a
	// blocked consumer when the lane becomes non-empty.
	spillMu sync.Mutex
	spillC  chan struct{}
	// sampleAcc is the Sample policy's keep accumulator; touched only
	// by the single pushing goroutine.
	sampleAcc float64

	// Failure poisoning (partition failover): failedC closes once and
	// every subsequent push/pull returns failErr.
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error
	failedC  chan struct{}
}

func newHolderCore(opts HolderOptions) holderCore {
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
	return holderCore{
		queue:   make(chan Frame, opts.Capacity),
		done:    make(chan struct{}),
		opts:    opts,
		spillC:  make(chan struct{}, 1),
		failedC: make(chan struct{}),
	}
}

// closeInput marks the input finished (idempotent).
func (c *holderCore) closeInput() {
	c.once.Do(func() { close(c.done) })
}

// fail poisons the holder (the node hosting it died): every later push
// or pull returns err. Idempotent; the first error wins.
func (c *holderCore) fail(err error) {
	c.failOnce.Do(func() {
		c.failMu.Lock()
		c.failErr = err
		c.failMu.Unlock()
		close(c.failedC)
	})
}

// failed returns the poisoning error, or nil.
func (c *holderCore) failed() error {
	select {
	case <-c.failedC:
		c.failMu.Lock()
		defer c.failMu.Unlock()
		return c.failErr
	default:
		return nil
	}
}

// push enqueues under the close protocol and the congestion policy.
func (c *holderCore) push(ctx context.Context, f Frame) error {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if err := c.failed(); err != nil {
		return err
	}
	select {
	case <-c.done:
		return ErrHolderClosed
	default:
	}
	switch c.opts.Policy {
	case Spill:
		return c.pushSpill(f)
	case Shed:
		return c.pushShed(f)
	case Sample:
		return c.pushSample(ctx, f)
	}
	return c.pushBlocking(ctx, f)
}

// pushBlocking is the Backpressure path: block until the ring has room.
func (c *holderCore) pushBlocking(ctx context.Context, f Frame) error {
	select {
	case c.queue <- f:
		return nil
	case <-c.done:
		return ErrHolderClosed
	case <-c.failedC:
		return c.failed()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pushSpill diverts overflow to the spill lane. The lane stays in use
// until drained even if the ring has room again — that is the FIFO
// invariant (ring frames older than lane frames).
func (c *holderCore) pushSpill(f Frame) error {
	c.spillMu.Lock()
	if c.opts.Spiller.Len() > 0 {
		err := c.spillLocked(f)
		c.spillMu.Unlock()
		return err
	}
	c.spillMu.Unlock()
	select {
	case c.queue <- f:
		return nil
	default:
	}
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	return c.spillLocked(f)
}

func (c *holderCore) spillLocked(f Frame) error {
	if m := c.opts.MaxSpilledFrames; m > 0 && c.opts.Spiller.Len() >= m {
		err := fmt.Errorf("hyracks: spill lane full (%d frames)", m)
		if c.opts.Overloaded != nil {
			err = fmt.Errorf("%w: spill lane full (%d frames)", c.opts.Overloaded, m)
		}
		return err
	}
	records := f.Len()
	if err := c.opts.Spiller.Spill(f); err != nil {
		return err
	}
	if c.opts.OnSpill != nil {
		c.opts.OnSpill(records)
	}
	select {
	case c.spillC <- struct{}{}:
	default:
	}
	return nil
}

// pushShed drops the frame when the ring is full.
func (c *holderCore) pushShed(f Frame) error {
	select {
	case c.queue <- f:
		return nil
	default:
	}
	c.drop(f, false)
	return nil
}

// pushSample keeps ~SampleRate of congested arrivals (kept frames wait
// for ring room like Backpressure) and drops the rest.
func (c *holderCore) pushSample(ctx context.Context, f Frame) error {
	select {
	case c.queue <- f:
		return nil
	default:
	}
	c.sampleAcc += c.opts.SampleRate
	if c.sampleAcc >= 1 {
		c.sampleAcc--
		return c.pushBlocking(ctx, f)
	}
	c.drop(f, true)
	return nil
}

func (c *holderCore) drop(f Frame, sampled bool) {
	if c.opts.OnDrop != nil {
		c.opts.OnDrop(f, sampled)
		return
	}
	RecycleFrame(f)
}

// takeNB takes the next frame without blocking, honoring lane order:
// ring first, then spill lane.
func (c *holderCore) takeNB() (Frame, bool, error) {
	select {
	case f := <-c.queue:
		return f, true, nil
	default:
	}
	if sp := c.opts.Spiller; sp != nil {
		c.spillMu.Lock()
		f, ok, err := sp.Unspill()
		c.spillMu.Unlock()
		if err != nil || ok {
			return f, ok, err
		}
	}
	return Frame{}, false, nil
}

// recvAfterClose takes a frame after the input was closed, waiting out
// pushes that are past their closed-check (they either enqueue/spill
// promptly or fail — done is closed, so none can block). ok=false means
// the holder is fully drained: nothing ringed, nothing spilled, no
// in-flight push.
func (c *holderCore) recvAfterClose() (Frame, bool, error) {
	for {
		f, ok, err := c.takeNB()
		if err != nil || ok {
			return f, ok, err
		}
		if c.inflight.Load() == 0 {
			// A push may have landed its frame and decremented inflight
			// between our poll above and the load — one final poll
			// closes that window, keeping the "never a silent drop"
			// invariant.
			return c.takeNB()
		}
		runtime.Gosched()
	}
}

// PassiveHolder is the paper's passive partition holder: it guards a
// runtime partition with a bounded frame ring (plus an optional spill
// lane); the owning job pushes frames in (implementing Pipe as the
// job's sink), and *other* jobs pull frame batches out. The intake job
// ends in one of these so computing jobs can collect their input
// batches. See holderCore for the close/congestion protocol.
type PassiveHolder struct {
	core holderCore
}

// NewPassiveHolder returns a legacy backpressure holder with the given
// ring capacity.
func NewPassiveHolder(capacity int) *PassiveHolder {
	return NewPassiveHolderOpts(HolderOptions{Capacity: capacity})
}

// NewPassiveHolderOpts returns a holder with a full congestion
// configuration (policy, spill lane, drop callbacks).
func NewPassiveHolderOpts(opts HolderOptions) *PassiveHolder {
	return &PassiveHolder{core: newHolderCore(opts)}
}

// Open implements Pipe.
func (h *PassiveHolder) Open(*TaskContext, Writer) error { return nil }

// Push implements Pipe: enqueue the frame under the close protocol and
// the holder's congestion policy (Backpressure blocks when full; Spill
// diverts to the lane; Shed/Sample may drop).
func (h *PassiveHolder) Push(tc *TaskContext, f Frame, _ Writer) error {
	return h.core.push(tc.Ctx, f)
}

// Close implements Pipe: marks end of input. Pulls drain the ring and
// spill lane, then report EOF.
func (h *PassiveHolder) Close(*TaskContext, Writer) error {
	h.CloseInput()
	return nil
}

// CloseInput marks the holder's input as finished (the "EOF record" of
// the paper's stop-feed protocol).
func (h *PassiveHolder) CloseInput() { h.core.closeInput() }

// Fail poisons the holder (partition failover): every subsequent push
// or pull returns err, so jobs wired to this holder fail fast instead
// of wedging on a dead partition.
func (h *PassiveHolder) Fail(err error) { h.core.fail(err) }

// PushFrame enqueues a frame from outside a dataflow (adapters use it),
// transferring ownership of the frame's slices to the holder, under the
// same close/congestion protocol as Push.
func (h *PassiveHolder) PushFrame(ctx context.Context, f Frame) error {
	return h.core.push(ctx, f)
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
	c := &h.core
	total := 0
	take := func(f Frame) {
		frames = append(frames, f)
		total += f.Len()
	}
	for len(frames) == 0 {
		if err := c.failed(); err != nil {
			return nil, false, err
		}
		f, ok, err := c.takeNB()
		if err != nil {
			return nil, false, err
		}
		if ok {
			take(f)
			break
		}
		select {
		case f := <-c.queue:
			take(f)
		case <-c.spillC:
			// The lane became non-empty; loop and take from it.
		case <-c.done:
			f, ok, err := c.recvAfterClose()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, true, nil
			}
			take(f)
		case <-c.failedC:
			return nil, false, c.failed()
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	for total < max {
		f, ok, err := c.takeNB()
		if err != nil {
			return frames, false, err
		}
		if !ok {
			break
		}
		take(f)
	}
	return frames, false, nil
}

// Pending reports frames ringed in memory (indicative only; a frame
// holds many records). Spilled frames are NOT included — Pending is the
// bounded-intake gauge, never exceeding the ring capacity.
func (h *PassiveHolder) Pending() int { return len(h.core.queue) }

// SpilledPending reports frames currently parked in the spill lane.
func (h *PassiveHolder) SpilledPending() int {
	if h.core.opts.Spiller == nil {
		return 0
	}
	return h.core.opts.Spiller.Len()
}

// ActiveHolder is the paper's active partition holder: it heads the
// storage job, receiving frames pushed by computing jobs and actively
// forwarding them into its own job's dataflow. It is a Source from its
// job's perspective. See holderCore for the close protocol.
type ActiveHolder struct {
	core holderCore
}

// NewActiveHolder returns a holder with the given ring capacity
// (storage holders keep the Backpressure policy: the paper's storage
// back-pressure is what the AFM batching responds to).
func NewActiveHolder(capacity int) *ActiveHolder {
	return &ActiveHolder{core: newHolderCore(HolderOptions{Capacity: capacity})}
}

// Push delivers a frame from another job (computing jobs call this),
// transferring ownership of the frame's slices. It blocks when the
// ring is full. A Push racing CloseInput either enqueues — and Run is
// guaranteed to forward the frame before returning — or reports
// ErrHolderClosed.
func (h *ActiveHolder) Push(ctx context.Context, f Frame) error {
	return h.core.push(ctx, f)
}

// CloseInput ends the stream; the owning job's Run drains and returns.
func (h *ActiveHolder) CloseInput() { h.core.closeInput() }

// Fail poisons the holder — see PassiveHolder.Fail.
func (h *ActiveHolder) Fail(err error) { h.core.fail(err) }

// Run implements Source: forward queued frames downstream until the
// input is closed, then drain what remains (including pushes still in
// flight at close time).
func (h *ActiveHolder) Run(tc *TaskContext, out Writer) error {
	if err := out.Open(); err != nil {
		return err
	}
	c := &h.core
	for {
		select {
		case f := <-c.queue:
			if err := out.Push(f); err != nil {
				return err
			}
		case <-c.done:
			for {
				f, ok, err := c.recvAfterClose()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				if err := out.Push(f); err != nil {
					return err
				}
			}
		case <-c.failedC:
			return c.failed()
		case <-tc.Ctx.Done():
			return tc.Ctx.Err()
		}
	}
}

// HolderManager is the per-node registry partition holders register
// with: it keeps one feed from claiming another's endpoint ids and lets
// a dying node fail every holder it hosts. Passive and active holders
// have separate id namespaces.
type HolderManager struct {
	mu      sync.Mutex
	holders map[string]failer // "passive/"+id, "active/"+id
}

// failer is what the registry needs of a holder of either kind.
type failer interface{ Fail(error) }

// NewHolderManager returns an empty registry.
func NewHolderManager() *HolderManager {
	return &HolderManager{holders: make(map[string]failer)}
}

func (m *HolderManager) register(kind, id string, h failer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.holders[kind+"/"+id]; dup {
		return fmt.Errorf("hyracks: %s holder %q already registered", kind, id)
	}
	m.holders[kind+"/"+id] = h
	return nil
}

// RegisterPassive adds a passive holder under id.
func (m *HolderManager) RegisterPassive(id string, h *PassiveHolder) error {
	return m.register("passive", id, h)
}

// RegisterActive adds an active holder under id.
func (m *HolderManager) RegisterActive(id string, h *ActiveHolder) error {
	return m.register("active", id, h)
}

// Unregister removes a holder id from both namespaces (feed teardown).
func (m *HolderManager) Unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.holders, "passive/"+id)
	delete(m.holders, "active/"+id)
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
