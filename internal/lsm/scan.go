package lsm

import (
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// IndexScanCursor streams the records selected by a secondary-index
// range probe, resolving primary keys through the primary store of
// pinned snapshots. The in-range primary keys (encodings only — never
// records) are captured per partition at construction time, immediately
// after the query pinned its snapshots, so the live-index/pinned-snapshot
// window is a single instant. The captured keys are substrings of the
// index's own entries, which no write rewrites (BTreeIndex), so writes
// after the capture cannot reach them. Records are resolved lazily, one
// per Next, by the key's encoding, so a consumer that stops early never
// materializes the tail and no key is decoded. A pk indexed after the
// snapshot was pinned simply misses in the snapshot and is skipped; a
// lookup that faults ends the cursor, and Err reports the fault.
//
// The cursor reads each record where it lies instead of copying it out:
// it keeps the entry the record lies in — a cached block's, or the
// private one a read the cache declined decoded into — pinned on its
// Leases until the consumer calls Next again or Close, one entry at
// a time. Transient reports whether the last row lies in such an entry:
// once released, an evicted entry's bytes may be rewritten under every
// view of them, so the consumer must copy (adm.Value.Detached) what it
// keeps of a transient row before it calls Next again. A memtable
// record is a view that stays readable.
type IndexScanCursor struct {
	snaps []*Snapshot
	capt  *indexCapture // nil once closed
	part  int
	pos   int
	err   error
}

// indexCapture is what an index scan keeps while it is open, pooled: a
// statement's probe reuses the buffers an earlier one captured into
// instead of growing its own.
type indexCapture struct {
	pks    []string // the captured primary keys, all partitions
	ends   []int    // pks[ends[p-1]:ends[p]] are partition p's
	lo, hi []byte   // the range's encoded bounds
	leases Leases   // the entry the row Next last returned lies in, if any
}

var indexCaptures = sync.Pool{New: func() any { return new(indexCapture) }}

// NewIndexScanCursor probes one *BTreeIndex per partition snapshot
// (idxs[i] belongs to snaps[i]'s partition) for the keys within
// [lo, hi] and returns a cursor over the matching records. The probe
// captures the primary keys under each index's read lock and resolves
// them afterwards, so no partition lock is ever taken while an index
// lock is held.
func NewIndexScanCursor(snaps []*Snapshot, idxs []*BTreeIndex, lo, hi index.Bound) *IndexScanCursor {
	cp := indexCaptures.Get().(*indexCapture)
	var loB, hiB keyBound
	loB, cp.lo = encodeBound(cp.lo, lo)
	hiB, cp.hi = encodeBound(cp.hi, hi)
	for _, ix := range idxs {
		cp.pks = ix.lookupRange(loB, hiB, cp.pks)
		cp.ends = append(cp.ends, len(cp.pks))
	}
	return &IndexScanCursor{snaps: snaps, capt: cp}
}

// Next resolves and returns the next matched record, with its primary
// key a view of the index entry's bytes. Output order is entry order
// per partition (secondary key, then primary key), not global
// primary-key order; consumers needing an order sort above. At the end,
// or on a fault, the cursor closes itself. It first lets go of the
// block the previous row lies in.
func (c *IndexScanCursor) Next() (key, rec adm.Value, ok bool) {
	if c.capt != nil {
		c.capt.leases.Release()
	}
	for c.capt != nil && c.pos < len(c.capt.pks) {
		for c.pos >= c.capt.ends[c.part] {
			c.part++
		}
		pk := bytesOf(c.capt.pks[c.pos])
		c.pos++
		rec, found, err := c.snaps[c.part].getEncoded(getProbe(pk), &c.capt.leases)
		if err != nil {
			c.err = err
			break
		}
		if found {
			return adm.ViewAlias(pk), rec, true
		}
	}
	c.Close()
	return adm.Value{}, adm.Value{}, false
}

// Transient reports whether the row Next last returned lies in a block
// this cursor holds: once Next or Close is called, its bytes — and every
// view of them — may be rewritten. It is false for a row read from a
// memtable.
func (c *IndexScanCursor) Transient() bool { return c.capt != nil && c.capt.leases.Holds() }

// Err returns the read fault that ended the cursor early, or nil.
func (c *IndexScanCursor) Err() error { return c.err }

// Close lets go of the block the last row lies in and returns the
// capture's buffers to the pool; Next reports exhaustion from then on.
// Closing twice is harmless.
func (c *IndexScanCursor) Close() {
	cp := c.capt
	if cp == nil {
		return
	}
	cp.leases.Release()
	c.capt, c.snaps = nil, nil
	clear(cp.pks) // don't pin index entries from the pool
	cp.pks, cp.ends = cp.pks[:0], cp.ends[:0]
	indexCaptures.Put(cp)
}

// ScanOrder selects how a parallel scan's partition streams are
// combined.
type ScanOrder int

const (
	// PartitionOrder drains partitions in index order, each in key
	// order — byte-for-byte the sequential ScanCursor's output, with the
	// partition walks (component merges plus any pushed filter) running
	// concurrently ahead of the consumer.
	PartitionOrder ScanOrder = iota
	// KeyOrder merges the partition streams into one global
	// primary-key-ordered stream — the k-way merge shape of mergeCursor
	// lifted to partition granularity (each input is already a merged
	// snapshot cursor, and hash routing guarantees a key lives in
	// exactly one partition, so a plain min-pick suffices).
	KeyOrder
	// Unordered fans every worker into one shared channel: maximum
	// overlap, arrival order nondeterministic. Only for consumers whose
	// result is order-insensitive (e.g. count/min/max aggregation).
	Unordered
)

// parItem is one record (or a terminal worker error) in flight from a
// scan worker to the consumer: the encodings of its key and record, of
// which Next makes the views — 64 bytes an item, against 176 for two
// adm.Values and the error.
type parItem struct {
	key, rec []byte
	err      error
}

// scanBatchSize is how many records a worker accumulates per channel
// send. Batching amortizes the channel synchronization (and the done-
// select teardown check) across many records — per-record sends make
// the exchange slower than a serial scan.
const scanBatchSize = 128

// scanChanBatches bounds each scan channel, in batches: enough to keep
// workers ahead of the consumer without buffering whole partitions.
const scanChanBatches = 8

// scanBatchLeases bounds the pins a leased scan's batch carries: a
// worker sends its batch, however few rows it holds, once it has left
// that many blocks. A filter that passes few rows would otherwise let one
// batch pin every block its worker reads, so none of them, evicted, could
// be recycled until the batch filled. A stream's channel then holds the
// pins of about scanChanBatches·scanBatchLeases blocks at most, about
// what full batches of rows of a few hundred bytes span.
const scanBatchLeases = 4

// scanBatch is what a worker sends: up to scanBatchSize items, and the
// pins of the blocks its worker left while filling it (leases, a few
// more than scanBatchLeases at most), released when the consumer
// recycles it. transient says an item lies in a pinned block, whose
// bytes the cache may recycle once the batch is.
type scanBatch struct {
	items     []parItem
	leases    []*blockEntry
	transient bool
}

// take moves the pins a cursor has let go of onto b.
func (b *scanBatch) take(l *Leases) {
	if len(l.left) > 0 {
		b.leases = append(b.leases, l.left...)
		clear(l.left)
		l.left = l.left[:0]
	}
}

// release ends b's leases and empties it for refilling.
func (b *scanBatch) release() {
	for _, e := range b.leases {
		e.release()
	}
	clear(b.leases)
	b.items, b.leases, b.transient = b.items[:0], b.leases[:0], false
}

// scanBatches recycles batches across parallel scans. A pooled batch is
// cleared first (putScanBatch), so it pins nothing: no record, no block a
// view of one aliases, no cache entry.
var scanBatches = sync.Pool{New: func() any { return &scanBatch{items: make([]parItem, 0, scanBatchSize)} }}

// putScanBatch releases and clears b and returns it to scanBatches.
func putScanBatch(b *scanBatch) {
	b.release()
	clear(b.items[:cap(b.items)])
	scanBatches.Put(b)
}

// ParallelScanCursor scans partition snapshots concurrently: one
// goroutine per partition walks its Snapshot.Cursor (optionally
// applying a pushed-down filter) and feeds a bounded channel in
// batches; Next combines the streams per the ScanOrder. A worker whose
// cursor stops on a read fault, or whose filter fails, sends the error
// as its last item, and Next returns it once it reaches that item.
// Close tears the workers down and blocks until they exit, so an
// abandoned scan leaks nothing. Next and Close must be called from one goroutine (the
// cursor, like Rows, is not concurrent-safe); Close is idempotent and
// safe mid-scan.
//
// The scan pins the blocks it reads from the block cache: each batch
// carries the pins of the blocks its worker left while filling it
// (scanBatchLeases bounds them), and the cursor releases them when it
// recycles the batch (fetch, Close) — after the consumer has pulled past
// every row in it, and in it every row of those blocks. Once released, a
// block the cache has evicted may be recycled: its bytes rewritten under
// views of it. So the consumer must copy (adm.Value.Detached) what it
// keeps of a row for which Transient reports true before it calls Next
// again, and the rows themselves must reach no one else.
type ParallelScanCursor struct {
	order ScanOrder
	chans []chan *scanBatch
	free  chan *scanBatch // drained batches recycled back to workers
	done  chan struct{}
	wg    sync.WaitGroup

	cur       int // PartitionOrder/Unordered: channel being drained
	bufs      []*scanBatch
	poss      []int
	heads     []parItem
	live      []bool
	popped    int // KeyOrder: the stream whose head Next returned last, or -1
	primed    bool
	transient bool // the last row Next returned may lie in a pinned block

	err    error
	closed bool
}

// NewParallelScanCursor starts one scan worker per snapshot. filter,
// when non-nil, runs inside the workers — it must be safe for
// concurrent calls — and drops records it returns false for; an error
// aborts the scan and surfaces from Next.
func NewParallelScanCursor(snaps []*Snapshot, filter func(key, rec adm.Value) (bool, error), order ScanOrder) *ParallelScanCursor {
	c := &ParallelScanCursor{order: order, done: make(chan struct{}), popped: -1}
	nchans := len(snaps)
	if order == Unordered {
		nchans = 1
	}
	c.chans = make([]chan *scanBatch, nchans)
	for i := range c.chans {
		c.chans[i] = make(chan *scanBatch, scanChanBatches)
	}
	// The free list holds up to the in-flight maximum (channel buffers
	// + one per worker + one per consumer stream + transit slack):
	// workers recycle drained batches instead of allocating, so a scan's
	// allocation count is a small constant independent of partition
	// size. It starts empty — a worker short of a batch takes one from
	// scanBatches — so a scan that stops early never builds them all.
	nbatch := nchans*scanChanBatches + len(snaps) + nchans + 2
	c.free = make(chan *scanBatch, nbatch)
	c.bufs = make([]*scanBatch, nchans)
	c.poss = make([]int, nchans)
	c.wg.Add(len(snaps))
	for i, s := range snaps {
		out := c.chans[0]
		if order != Unordered {
			out = c.chans[i]
		}
		go c.scanWorker(s, filter, out, order != Unordered)
	}
	if order == Unordered {
		// The shared channel closes once after every worker exits.
		go func() {
			c.wg.Wait()
			close(c.chans[0])
		}()
	}
	return c
}

// scanWorker walks s into out; the pins its cursor lets go of travel
// in the batches behind the rows of their blocks.
func (c *ParallelScanCursor) scanWorker(s *Snapshot, filter func(key, rec adm.Value) (bool, error), out chan<- *scanBatch, ownsChan bool) {
	defer c.wg.Done()
	if ownsChan {
		defer close(out)
	}
	cur := s.Cursor()
	leases := &cur.leases
	getBatch := func() *scanBatch {
		select {
		case b := <-c.free:
			return b
		default:
			return scanBatches.Get().(*scanBatch)
		}
	}
	batch := getBatch()
	// A batch the worker still holds when it exits early goes to the free
	// list, where Close finds it, and the pins its cursor still holds are
	// released with it: the scan is closing, and nothing reads its rows.
	defer func() {
		cur.leave()
		batch.take(leases)
		c.recycle(batch)
	}()
	flush := func() bool {
		if len(batch.items) == 0 && len(batch.leases) == 0 {
			return true
		}
		select {
		case out <- batch:
			batch = getBatch()
			return true
		case <-c.done:
			return false
		}
	}
	// end sends the stream's last batch: with the pins the cursor still
	// holds, which must reach the consumer behind the rows of their
	// blocks, and err, if any, as its last item.
	end := func(err error) {
		cur.leave()
		batch.take(leases)
		if err != nil {
			batch.items = append(batch.items, parItem{err: err})
		}
		flush()
	}
	for {
		k, r, ok := cur.nextEncoded()
		batch.take(leases)
		if !ok {
			end(cur.Err())
			return
		}
		if len(batch.leases) >= scanBatchLeases && !flush() {
			return
		}
		if filter != nil {
			pass, err := filter(adm.ViewAlias(k), adm.ViewAlias(r))
			if err != nil {
				end(err)
				return
			}
			if !pass {
				continue
			}
		}
		batch.items = append(batch.items, parItem{key: k, rec: r})
		batch.transient = batch.transient || cur.Transient()
		if len(batch.items) == scanBatchSize && !flush() {
			return
		}
	}
}

// fetch returns the next item of stream i, refilling its batch buffer
// from the channel as needed — recycling the drained one, whose rows the
// consumer has all pulled past. ok=false means the stream is exhausted.
func (c *ParallelScanCursor) fetch(i int) (parItem, bool) {
	for {
		if b := c.bufs[i]; b != nil && c.poss[i] < len(b.items) {
			it := b.items[c.poss[i]]
			c.poss[i]++
			c.transient = b.transient
			return it, true
		}
		b, open := <-c.chans[i]
		if !open {
			if old := c.bufs[i]; old != nil {
				c.recycle(old)
				c.bufs[i] = nil
			}
			return parItem{}, false
		}
		if old := c.bufs[i]; old != nil {
			c.recycle(old)
		}
		c.bufs[i], c.poss[i] = b, 0
	}
}

// Next returns the next record per the cursor's ScanOrder. After
// ok=false (exhaustion, error, or Close) the cursor stays exhausted.
func (c *ParallelScanCursor) Next() (key, rec adm.Value, ok bool, err error) {
	if c.closed || c.err != nil {
		return adm.Value{}, adm.Value{}, false, c.err
	}
	if c.order == KeyOrder {
		return c.nextKeyOrder()
	}
	for c.cur < len(c.chans) {
		it, ok := c.fetch(c.cur)
		if !ok {
			c.cur++
			continue
		}
		if it.err != nil {
			c.fail(it.err)
			return adm.Value{}, adm.Value{}, false, c.err
		}
		return adm.ViewAlias(it.key), adm.ViewAlias(it.rec), true, nil
	}
	return adm.Value{}, adm.Value{}, false, nil
}

// nextKeyOrder pops the least head. The popped stream is refilled on the
// next call, not before the row is returned: the refill may recycle the
// batch the row lies in.
func (c *ParallelScanCursor) nextKeyOrder() (key, rec adm.Value, ok bool, err error) {
	if !c.primed {
		c.primed = true
		c.heads = make([]parItem, len(c.chans))
		c.live = make([]bool, len(c.chans))
		for i := range c.chans {
			if c.recv(i); c.err != nil {
				return adm.Value{}, adm.Value{}, false, c.err
			}
		}
	} else if c.popped >= 0 {
		if c.recv(c.popped); c.err != nil {
			return adm.Value{}, adm.Value{}, false, c.err
		}
	}
	best := -1
	for i := range c.heads {
		if c.live[i] && (best < 0 || adm.CompareEncoded(c.heads[i].key, c.heads[best].key) < 0) {
			best = i
		}
	}
	if best < 0 {
		return adm.Value{}, adm.Value{}, false, nil
	}
	// heads[best] came from the batch stream best is draining.
	out := c.heads[best]
	c.popped, c.transient = best, c.bufs[best].transient
	return adm.ViewAlias(out.key), adm.ViewAlias(out.rec), true, nil
}

// recv refills head i, recording a worker error in c.err (and tearing
// the scan down) when one arrives.
func (c *ParallelScanCursor) recv(i int) {
	it, ok := c.fetch(i)
	if !ok {
		c.live[i] = false
		return
	}
	if it.err != nil {
		c.fail(it.err)
		return
	}
	c.heads[i], c.live[i] = it, true
}

// Transient reports whether the row Next last returned may lie in a
// block this scan pinned: once Next is called again, its bytes — and
// every view of them — may be rewritten. It is false for a row of a
// batch that holds only memtable rows.
func (c *ParallelScanCursor) Transient() bool { return c.transient }

func (c *ParallelScanCursor) fail(err error) {
	c.err = err
	c.Close()
}

// recycle releases a drained batch's leases and hands it back to the
// workers, or to scanBatches when the free list is full.
func (c *ParallelScanCursor) recycle(b *scanBatch) {
	b.release()
	select {
	case c.free <- b:
	default:
		putScanBatch(b)
	}
}

// Close stops the workers and waits for them to exit. It is safe to
// call mid-scan, after exhaustion, and repeatedly. Once they have
// exited, every batch the cursor owns — free, buffered in a channel or
// being drained — has its leases released and is cleared and returned to
// scanBatches.
func (c *ParallelScanCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	close(c.done)
	// Workers select on done for every send, so they observe the close
	// even while blocked on a full channel.
	c.wg.Wait()
	for _, b := range c.bufs {
		if b != nil {
			putScanBatch(b)
		}
	}
	c.bufs = nil
	for _, ch := range c.chans {
		drainBatches(ch)
	}
	drainBatches(c.free)
}

// drainBatches returns every batch waiting in ch to scanBatches. No
// worker sends any more; the Unordered fan-in channel may be closed
// meanwhile.
func drainBatches(ch chan *scanBatch) {
	for {
		select {
		case b, open := <-ch:
			if !open {
				return
			}
			putScanBatch(b)
		default:
			return
		}
	}
}
