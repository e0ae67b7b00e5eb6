package lsm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
	"github.com/ideadb/idea/internal/index"
)

// Run files are the on-disk form of an immutable LSM component: the
// sorted key/record items of a frozen memtable (or of a compaction
// merge), laid out in framed blocks (internal/frame) with a first-key
// block index so point lookups touch one block and scans stream block
// by block through the same runCursor/k-way merge machinery that walks
// in-memory components.
//
// # On-disk format (version 2)
//
//	run      := header block* bloom index footer
//	header   := "IDEARUN" version:1B
//	block    := frame(count:uvarint (key:adm-binary record:adm-binary){count})
//	bloom    := frame(nbits:uvarint bits:(nbits/8)B)
//	index    := frame(entries:uvarint blocks:uvarint
//	            (off:uvarint len:uvarint firstKey:adm-binary){blocks}
//	            bloomOff:uvarint bloomLen:uvarint lastKey:adm-binary)
//	footer   := indexOff:8B-LE "IDEARUNF"
//
// frame(p) is the byte envelope of docs/ARCHITECTURE.md around p; every
// off/len names a whole frame and lies between the header and the
// index, which openRun checks before any block is read.
//
// Version 2 is the only format read or written (version 1 lacked the
// bloom section and the persisted last key; no release ever wrote it).
// An empty run (a compaction that dropped every entry) writes
// bloomOff=0 bloomLen=0 and a MISSING lastKey.
//
// Tombstones (MISSING records) are stored: a run flushed from a
// memtable must shadow older runs. Only a compaction that includes the
// oldest run drops them.
const (
	runMagic       = "IDEARUN"
	runVersion     = 2
	runHeaderSize  = len(runMagic) + 1
	runFooterMagic = "IDEARUNF"
	runFooterSize  = 8 + len(runFooterMagic)

	// runBlockTarget is the block payload size a writer flushes at.
	// Small enough that typical test datasets span multiple blocks.
	runBlockTarget = 16 << 10
)

// runFileSeq hands out process-unique run file ids — the run half of
// the block cache key. Ids never repeat, so cache entries of a closed
// run can never alias a newer file.
var runFileSeq atomic.Uint64

// counters is the one block of partition counters written without the
// partition's write lock, so every field is atomic: point lookups
// (bumped under the read lock), and the read-path work of the
// partition's run files — lookups skipped by key-range fences, lookups
// skipped by bloom filters, and framed block reads that actually hit
// the filesystem. Shared by every run the partition opens (including
// replaced ones), so the counts survive compaction. openRuns gauges the
// partition's run files not yet closed.
type counters struct {
	gets       atomic.Uint64
	fenceSkips atomic.Uint64
	bloomSkips atomic.Uint64
	blockReads atomic.Uint64
	openRuns   atomic.Int64
}

// runEnv is the read-path environment threaded into every run file a
// partition opens: the (cluster-shared) block cache and the partition's
// counters. The zero value — no cache, private counters — is what
// standalone opens (tests) get.
type runEnv struct {
	cache *BlockCache
	ctr   *counters
}

// runWriter streams sorted items into a run file.
type runWriter struct {
	f       File
	off     int64
	scratch []byte // current block payload being built (entries only)
	count   int    // entries in the current block
	first   []byte // encoded first key of the current block
	last    []byte // encoded last key seen (fence)
	frame   []byte // assembly buffer for framed blocks
	blocks  []blockMeta
	entries int
	hashes  []uint64 // bloom hash per entry, in add order
}

// blockMeta locates one block and remembers its first key.
type blockMeta struct {
	off      int64
	length   int
	firstKey adm.Value
}

func newRunWriter(f File) *runWriter {
	return &runWriter{f: f}
}

func (w *runWriter) writeHeader() error {
	hdr := append([]byte(runMagic), runVersion)
	if _, err := w.f.Write(hdr); err != nil {
		return err
	}
	w.off = int64(runHeaderSize)
	return nil
}

// add encodes one item into the current block.
func (w *runWriter) add(it index.Item) error {
	start := len(w.scratch)
	w.scratch = adm.AppendBinary(w.scratch, it.Key)
	keyLen := len(w.scratch) - start
	w.scratch = adm.AppendBinary(w.scratch, it.Val)
	return w.added(start, keyLen)
}

// addRaw appends one entry that is already encoded — compaction moves
// the bytes an input run holds without decoding them.
func (w *runWriter) addRaw(keyEnc, valEnc []byte) error {
	start := len(w.scratch)
	w.scratch = append(append(w.scratch, keyEnc...), valEnc...)
	return w.added(start, len(keyEnc))
}

// added accounts for the entry just appended at w.scratch[start:],
// whose first keyLen bytes are its key.
func (w *runWriter) added(start, keyLen int) error {
	keyEnc := w.scratch[start : start+keyLen]
	if w.count == 0 {
		w.first = append(w.first[:0], keyEnc...)
	}
	w.last = append(w.last[:0], keyEnc...)
	w.hashes = append(w.hashes, bloomHash(keyEnc))
	w.count++
	w.entries++
	if len(w.scratch) >= runBlockTarget {
		return w.flushBlock()
	}
	return nil
}

func (w *runWriter) flushBlock() error {
	if w.count == 0 {
		return nil
	}
	firstKey, _, err := adm.DecodeBinary(w.first)
	if err != nil {
		return fmt.Errorf("lsm: run writer first key: %w", err)
	}
	w.frame = frame.Begin(w.frame[:0])
	w.frame = binary.AppendUvarint(w.frame, uint64(w.count))
	w.frame = append(w.frame, w.scratch...)
	w.blocks = append(w.blocks, blockMeta{off: w.off, length: len(w.frame), firstKey: firstKey})
	w.scratch = w.scratch[:0]
	w.count = 0
	return w.writeFrame()
}

// writeFrame seals and writes the one frame assembled in w.frame.
func (w *runWriter) writeFrame() error {
	frame.Seal(w.frame, 0)
	if _, err := w.f.Write(w.frame); err != nil {
		return err
	}
	w.off += int64(len(w.frame))
	return nil
}

// finish flushes the tail block, writes the bloom section, index, and
// footer, and fsyncs. It returns the total entry count and final file
// size.
func (w *runWriter) finish() (entries int, size int64, err error) {
	if err := w.flushBlock(); err != nil {
		return 0, 0, err
	}

	// Bloom section: one filter over every key written. An empty run
	// records offset 0 / length 0 (nothing to filter).
	var bloomOff, bloomLen int64
	if w.entries > 0 {
		filter := newBloomFilter(w.entries)
		for _, h := range w.hashes {
			filter.insert(h)
		}
		bloomOff = w.off
		w.frame = filter.appendPayload(frame.Begin(w.frame[:0]))
		if err := w.writeFrame(); err != nil {
			return 0, 0, err
		}
		bloomLen = w.off - bloomOff
	}

	w.frame = frame.Begin(w.frame[:0])
	w.frame = binary.AppendUvarint(w.frame, uint64(w.entries))
	w.frame = binary.AppendUvarint(w.frame, uint64(len(w.blocks)))
	for _, b := range w.blocks {
		w.frame = binary.AppendUvarint(w.frame, uint64(b.off))
		w.frame = binary.AppendUvarint(w.frame, uint64(b.length))
		w.frame = adm.AppendBinary(w.frame, b.firstKey)
	}
	w.frame = binary.AppendUvarint(w.frame, uint64(bloomOff))
	w.frame = binary.AppendUvarint(w.frame, uint64(bloomLen))
	if w.entries > 0 {
		w.frame = append(w.frame, w.last...)
	} else {
		w.frame = adm.AppendBinary(w.frame, adm.Missing())
	}
	indexOff := w.off
	if err := w.writeFrame(); err != nil {
		return 0, 0, err
	}
	var footer [runFooterSize]byte
	binary.LittleEndian.PutUint64(footer[:], uint64(indexOff))
	copy(footer[8:], runFooterMagic)
	if _, err := w.f.Write(footer[:]); err != nil {
		return 0, 0, err
	}
	w.off += int64(runFooterSize)
	if err := w.f.Sync(); err != nil {
		return 0, 0, err
	}
	return w.entries, w.off, nil
}

// writeRun creates the run file name in dir from the entries fill adds
// (in key order), makes it durable (file fsync + directory sync) and
// returns an open reader over it, wired to env. On any error nothing
// is left behind: the partial file is removed.
func writeRun(fsys FS, dir, name string, env runEnv, fill func(*runWriter) error) (*runFile, error) {
	pathname := joinPath(dir, name)
	f, err := fsys.Create(pathname)
	if err != nil {
		return nil, err
	}
	w := newRunWriter(f)
	if err = w.writeHeader(); err == nil {
		if err = fill(w); err == nil {
			_, _, err = w.finish()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	if err != nil {
		// Best effort: recovery also sweeps files the manifest does not name.
		_ = fsys.Remove(pathname)
		return nil, err
	}
	return openRun(fsys, dir, name, env)
}

// fillFromComponent is the flush: one immutable component's items,
// tombstones included (they must shadow older runs), encoded in order.
func fillFromComponent(c *component) func(*runWriter) error {
	return func(w *runWriter) error {
		rc := c.cursor()
		defer rc.close()
		for {
			it, ok := rc.next()
			if !ok {
				return nil
			}
			if err := w.add(it); err != nil {
				return err
			}
		}
	}
}

// fillFromRuns is the compaction: a k-way merge of run files (newest
// first) that moves every surviving entry as the bytes its input holds.
// Keys are decoded to be compared; values are only walked (SkipBinary),
// and a value's kind byte tells a tombstone. Any read, checksum or
// structure error in an input fails the merge.
func fillFromRuns(runs []*runFile, dropTombstones bool) func(*runWriter) error {
	return func(w *runWriter) error {
		readers := make([]*rawRunReader, len(runs))
		for i, r := range runs {
			readers[i] = r.rawReader()
		}
		m := newMergeCursor(readers, dropTombstones)
		defer m.Close()
		for {
			rd, ok := m.next()
			if !ok {
				break
			}
			if err := w.addRaw(rd.key, rd.val); err != nil {
				return err
			}
		}
		// An input that failed looks exhausted to the merge.
		for _, rd := range readers {
			if rd.err != nil {
				return rd.err
			}
		}
		return nil
	}
}

// runFile is an open, immutable on-disk run: the block index, bloom
// filter, and key-range fences live in memory; records are decoded from
// blocks on demand (through the block cache when one is wired). Point
// lookups and cursors are safe for concurrent use (reads go through
// ReadAt).
//
// # Lifecycle
//
// refs counts reasons the file must stay open: 1 for the owner (the
// partition component), one per Snapshot that can reach the run (dropped
// when the snapshot is garbage-collected, see Partition.Snapshot) and
// one per live cursor or raw reader (dropped at exhaustion or close).
// retire drops the owner reference — compaction calls it for every run
// it replaces — and the file closes when the count hits zero, so a
// replaced run lives exactly as long as its last reader. close
// force-closes regardless (partition Close, for the runs it still
// owns); both paths purge the run's block-cache entries and are
// idempotent.
type runFile struct {
	name    string
	f       File
	id      uint64
	size    int64
	blocks  []blockMeta
	entries int

	// bloom is the per-run key filter (nil for empty runs).
	// firstKey/lastKey fence the run's key range; valid when the run has
	// at least one block.
	bloom    *bloomFilter
	firstKey adm.Value
	lastKey  adm.Value

	cache *BlockCache
	ctr   *counters

	refs   atomic.Int32
	closed atomic.Bool

	// readErr records the first IO/corruption error hit by a reader;
	// lookups degrade to not-found (the partition surfaces the error
	// via Err()/Close()).
	readErr atomic.Pointer[error]
}

// openRun opens and validates a run file, loading its block index,
// bloom filter, and fences.
func openRun(fsys FS, dir, name string, env runEnv) (*runFile, error) {
	f, err := fsys.Open(joinPath(dir, name))
	if err != nil {
		return nil, err
	}
	if env.ctr == nil {
		env.ctr = new(counters)
	}
	r := &runFile{
		name:  name,
		f:     f,
		id:    runFileSeq.Add(1),
		cache: env.cache,
		ctr:   env.ctr,
	}
	r.refs.Store(1) // owner reference
	if err := r.load(); err != nil {
		f.Close()
		r.closed.Store(true)
		return nil, fmt.Errorf("lsm: run %s: %w", name, err)
	}
	r.ctr.openRuns.Add(1)
	return r, nil
}

func (r *runFile) load() error {
	size, err := r.f.Size()
	if err != nil {
		return err
	}
	r.size = size
	if size < int64(runHeaderSize+runFooterSize) {
		return fmt.Errorf("truncated (size %d)", size)
	}
	var hdr [runHeaderSize]byte
	if _, err := r.f.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if string(hdr[:len(runMagic)]) != runMagic {
		return fmt.Errorf("bad magic")
	}
	if v := hdr[len(runMagic)]; v != runVersion {
		return fmt.Errorf("unsupported version %d", v)
	}
	var footer [runFooterSize]byte
	if _, err := r.f.ReadAt(footer[:], size-int64(runFooterSize)); err != nil {
		return err
	}
	if string(footer[8:]) != runFooterMagic {
		return fmt.Errorf("bad footer magic (torn write?)")
	}
	footerOff := size - int64(runFooterSize)
	indexOff := int64(binary.LittleEndian.Uint64(footer[:]))
	if indexOff < int64(runHeaderSize) || indexOff >= footerOff {
		return fmt.Errorf("index offset %d out of range", indexOff)
	}
	payload, err := frame.ReadAt(r.f, indexOff, footerOff-indexOff-frame.HeaderSize)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	p := frame.NewReader(payload)
	// section consumes one off/len pair: a whole frame that lies between
	// the header and the index (ok), or the 0/0 of an absent section.
	section := func() (off int64, length int, ok bool) {
		off, length = int64(p.Int(uint64(indexOff))), p.Int(uint64(indexOff))
		return off, length, off >= int64(runHeaderSize) && length > frame.HeaderSize && off+int64(length) <= indexOff
	}
	// An entry costs at least two block bytes, an index entry three.
	r.entries = p.Int(uint64(indexOff) / 2)
	r.blocks = make([]blockMeta, p.Count(3))
	for i := range r.blocks {
		off, length, ok := section()
		r.blocks[i] = blockMeta{off: off, length: length, firstKey: p.Value()}
		if p.Err() != nil {
			break
		}
		if !ok {
			return fmt.Errorf("index: block %d (%d+%d) out of range", i, off, length)
		}
	}
	bloomOff, bloomLen, ok := section()
	lastKey := p.Value()
	if err := p.Done(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if len(r.blocks) > 0 {
		r.firstKey = r.blocks[0].firstKey
		r.lastKey = lastKey
	}
	if bloomLen == 0 {
		return nil
	}
	if !ok {
		return fmt.Errorf("bloom section %d+%d out of range", bloomOff, bloomLen)
	}
	payload, err = frame.ReadAt(r.f, bloomOff, int64(bloomLen)-frame.HeaderSize)
	if err != nil {
		return fmt.Errorf("bloom: %w", err)
	}
	r.bloom, err = parseBloom(payload)
	return err
}

// readBlock decodes block i's items from the file, appending into dst.
func (r *runFile) readBlock(i int, dst []index.Item) ([]index.Item, error) {
	r.ctr.blockReads.Add(1)
	b := r.blocks[i]
	payload, err := frame.ReadAt(r.f, b.off, int64(b.length)-frame.HeaderSize)
	if err != nil {
		return dst, err
	}
	p := frame.NewReader(payload)
	for n := p.Count(2); n > 0 && p.Err() == nil; n-- {
		dst = append(dst, index.Item{Key: p.Value(), Val: p.Value()})
	}
	if err := p.Done(); err != nil {
		return dst, fmt.Errorf("block %d: %w", i, err)
	}
	return dst, nil
}

// cachedBlock returns block i's decoded items through the block cache:
// a hit pins and returns the resident entry; a miss decodes from the
// file and publishes the result pinned. The caller must release the
// returned entry when done with items.
func (r *runFile) cachedBlock(i int) ([]index.Item, *blockEntry, error) {
	if e, ok := r.cache.acquire(r.id, i); ok {
		return e.items, e, nil
	}
	items, err := r.readBlock(i, nil)
	if err != nil {
		return nil, nil, err
	}
	e := r.cache.insert(r.id, i, items)
	return e.items, e, nil
}

func (r *runFile) fail(err error) {
	e := fmt.Errorf("lsm: run %s: %w", r.name, err)
	r.readErr.CompareAndSwap(nil, &e)
}

// err returns the sticky read error, if any.
func (r *runFile) err() error {
	if p := r.readErr.Load(); p != nil {
		return *p
	}
	return nil
}

// get performs a point lookup: reject by key-range fence, then by bloom
// filter, then binary-search the block index for the last block whose
// first key is <= key and scan that one block (cache-resident when a
// cache is wired; a pooled scratch otherwise, so the steady-state
// lookup allocates nothing either way).
func (r *runFile) get(kp *pointProbe) (adm.Value, bool) {
	if len(r.blocks) == 0 {
		return adm.Value{}, false
	}
	key := kp.key
	if adm.Compare(key, r.firstKey) < 0 || adm.Compare(key, r.lastKey) > 0 {
		r.ctr.fenceSkips.Add(1)
		return adm.Value{}, false
	}
	if r.bloom != nil && !r.bloom.mayContain(kp.keyHash()) {
		r.ctr.bloomSkips.Add(1)
		return adm.Value{}, false
	}
	lo, hi := 0, len(r.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if adm.Compare(r.blocks[mid].firstKey, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return adm.Value{}, false
	}
	var (
		items   []index.Item
		ent     *blockEntry
		scratch *[]index.Item
		err     error
	)
	if r.cache != nil {
		items, ent, err = r.cachedBlock(lo - 1)
	} else {
		scratch = getItemBatch(0)
		items, err = r.readBlock(lo-1, (*scratch)[:0])
		*scratch = items
	}
	if err != nil {
		if scratch != nil {
			putItemBatch(scratch)
		}
		r.fail(err)
		return adm.Value{}, false
	}
	a, b := 0, len(items)
	for a < b {
		mid := (a + b) / 2
		if adm.Less(items[mid].Key, key) {
			a = mid + 1
		} else {
			b = mid
		}
	}
	var val adm.Value
	found := false
	if a < len(items) && adm.Compare(items[a].Key, key) == 0 {
		val, found = items[a].Val, true
	}
	if ent != nil {
		r.cache.release(ent)
	}
	if scratch != nil {
		putItemBatch(scratch)
	}
	return val, found
}

// incRef adds a keep-open reason (a cursor).
func (r *runFile) incRef() { r.refs.Add(1) }

// decRef drops one reason; the last one out closes the file.
func (r *runFile) decRef() {
	if r.refs.Add(-1) == 0 {
		r.close()
	}
}

// retire drops the owner reference: compaction calls it for the runs it
// replaced. The file closes now if nothing is reading it, or with its
// last snapshot or cursor.
func (r *runFile) retire() { r.decRef() }

// close force-closes the file and purges its block-cache entries.
// Idempotent; safe against concurrent decRef-driven closes.
func (r *runFile) close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.ctr.openRuns.Add(-1)
	if r.cache != nil {
		r.cache.dropRun(r.id)
	}
	return r.f.Close()
}

// runFileCursor streams a run's items block by block in key order. The
// cursor holds one run reference for its lifetime and (with a cache
// wired) one pinned cache entry for its current block; both are
// released at exhaustion or close. Abandoning an unexhausted cursor
// without close leaks the reference (partition Close still force-closes
// a run it owns) — the query layer closes its cursors (rowSrc close
// chain), and merge consumers run to exhaustion.
type runFileCursor struct {
	r      *runFile
	block  int
	items  []index.Item
	pos    int
	ent    *blockEntry  // pinned cache entry backing items, if any
	own    []index.Item // reusable decode buffer (cache-off path)
	closed bool
}

func (r *runFile) cursor() *runFileCursor {
	r.incRef()
	return &runFileCursor{r: r}
}

func (c *runFileCursor) next() (index.Item, bool) {
	for {
		if c.pos < len(c.items) {
			it := c.items[c.pos]
			c.pos++
			return it, true
		}
		if c.closed || c.block >= len(c.r.blocks) {
			c.close()
			return index.Item{}, false
		}
		if c.ent != nil {
			c.r.cache.release(c.ent)
			c.ent = nil
		}
		if c.r.cache != nil {
			items, ent, err := c.r.cachedBlock(c.block)
			if err != nil {
				c.r.fail(err)
				c.close()
				return index.Item{}, false
			}
			c.items, c.ent = items, ent
		} else {
			items, err := c.r.readBlock(c.block, c.own[:0])
			if err != nil {
				c.r.fail(err)
				c.close()
				return index.Item{}, false
			}
			c.own, c.items = items, items
		}
		c.pos = 0
		c.block++
	}
}

// close releases the cursor's pin and run reference. Idempotent; next
// after close reports exhaustion.
func (c *runFileCursor) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.ent != nil {
		c.r.cache.release(c.ent)
		c.ent = nil
	}
	c.items = nil
	c.r.decRef()
}

// rawRunReader streams a run's entries in key order as the encoded
// bytes the file holds — compaction's input. Each block's frame is read
// with one ReadAt into a buffer the reader reuses and CRC-verified;
// entries are walked, not decoded, except for the key the merge
// compares. It goes around the block cache in both directions: a
// compaction reads every block of its inputs exactly once, so caching
// them would only evict blocks queries want. It holds one run reference
// until exhaustion, failure or close.
type rawRunReader struct {
	r      *runFile
	block  int    // next block to read
	buf    []byte // the current block's frame
	rest   []byte // unread entries of the current block (aliases buf)
	n      int    // entries left in rest
	closed bool

	// key and val are the current entry's encoded bytes, valid until the
	// next advance; err is why the reader stopped early, if it did.
	key, val []byte
	err      error
}

func (r *runFile) rawReader() *rawRunReader {
	r.incRef()
	return &rawRunReader{r: r}
}

func (c *rawRunReader) advance() (key adm.Value, tombstone, ok bool) {
	for c.n == 0 {
		if len(c.rest) != 0 {
			return c.fail(fmt.Errorf("block %d: %d trailing bytes", c.block-1, len(c.rest)))
		}
		if c.closed || c.block >= len(c.r.blocks) {
			c.close()
			return adm.Value{}, false, false
		}
		if err := c.readBlock(); err != nil {
			return c.fail(err)
		}
	}
	key, kn, err := adm.DecodeBinaryAlias(c.rest)
	if err != nil {
		return c.fail(fmt.Errorf("block %d: %w", c.block-1, err))
	}
	vn, err := adm.SkipBinary(c.rest[kn:])
	if err != nil {
		return c.fail(fmt.Errorf("block %d: %w", c.block-1, err))
	}
	c.key, c.val = c.rest[:kn], c.rest[kn:kn+vn]
	c.rest = c.rest[kn+vn:]
	c.n--
	return key, adm.Kind(c.val[0]) == adm.KindMissing, true
}

// readBlock loads and verifies the next block's frame.
func (c *rawRunReader) readBlock() error {
	c.r.ctr.blockReads.Add(1)
	b := c.r.blocks[c.block]
	if cap(c.buf) < b.length {
		c.buf = make([]byte, b.length)
	}
	c.buf = c.buf[:b.length]
	if n, err := c.r.f.ReadAt(c.buf, b.off); n < b.length {
		return fmt.Errorf("block %d: read %d of %d bytes: %w", c.block, n, b.length, err)
	}
	payload, _, err := frame.Decode(c.buf, int64(b.length)-frame.HeaderSize)
	if err != nil {
		return fmt.Errorf("block %d: %w", c.block, err)
	}
	p := frame.NewReader(payload)
	c.n = p.Count(2)
	if err := p.Err(); err != nil {
		return fmt.Errorf("block %d: %w", c.block, err)
	}
	c.rest = payload[len(payload)-p.Len():]
	c.block++
	return nil
}

// fail records err on the reader and its run and ends the stream.
func (c *rawRunReader) fail(err error) (adm.Value, bool, bool) {
	c.r.fail(err)
	c.err = c.r.err()
	c.close()
	return adm.Value{}, false, false
}

// close releases the run reference. Idempotent.
func (c *rawRunReader) close() {
	if !c.closed {
		c.closed = true
		c.n, c.rest = 0, nil
		c.r.decRef()
	}
}
