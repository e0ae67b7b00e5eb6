package lsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// Run files are the on-disk form of an immutable LSM component: the
// sorted key/record entries of a frozen memtable (or of a compaction
// merge), laid out in framed blocks (internal/frame) with a first-key
// block index so point lookups touch one block and scans stream block
// by block through the same runCursor/k-way merge machinery that walks
// in-memory components.
//
// # On-disk format (version 3)
//
//	run      := header block* bloom index footer
//	header   := "IDEARUN" version:1B
//	block    := frame(coded(payload))
//	payload  := count:uvarint (key:adm-binary record:adm-binary){count}
//	bloom    := frame(nbits:uvarint bits:(nbits/8)B)
//	index    := frame(entries:uvarint blocks:uvarint
//	            (off:uvarint len:uvarint firstKey:adm-binary){blocks}
//	            bloomOff:uvarint bloomLen:uvarint lastKey:adm-binary)
//	footer   := indexOff:8B-LE "IDEARUNF"
//
// frame(p) is the byte envelope of docs/ARCHITECTURE.md around p; every
// off/len names a whole frame and lies between the header and the
// index, which openRun checks before any block is read. coded(p) is
// internal/frame's coded body — a codec byte, then p stored as it is or
// its rawLen and lz(p), the stream internal/frame/lz.go describes —
// which the wire's row batches share. The writer picks the codec per
// block from its bytes: lz, unless the stream does not save a byte. The
// checksum covers the bytes on disk; the block cache holds payloads.
//
// Version 3 is the only format read or written (version 2 stored every
// payload as it is; version 1 also lacked the bloom section and the
// persisted last key). An empty run (a compaction that dropped every
// entry) writes bloomOff=0 bloomLen=0 and a MISSING lastKey.
//
// Tombstones (MISSING records) are stored: a run flushed from a
// memtable must shadow older runs. Only a compaction that includes the
// oldest run drops them.
const (
	runMagic       = "IDEARUN"
	runVersion     = 3
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

// runEnv is the environment threaded into every run file a partition
// writes or opens: the (cluster-shared) block cache, the partition's
// counters and its block encoder, which only the flusher uses, under
// flushMu. The zero value — noCache, private counters, a fresh encoder
// per run written — is what standalone runs (tests) get.
type runEnv struct {
	cache *BlockCache
	ctr   *counters
	lz    *frame.Encoder
}

// noCache is the cache of a run opened with none wired: its splits are
// smaller than a block, and than a frame record's header, so it keeps
// nothing resident, and every block is read, pinned and recycled as a
// full cache's misses are.
var noCache = NewBlockCache(0)

// runWriter streams sorted entries, as their encoded bytes, into a run
// file.
type runWriter struct {
	f       File
	lz      *frame.Encoder
	off     int64
	scratch []byte // current block payload being built (entries only)
	raw     []byte // the current block's whole payload, count first
	count   int    // entries in the current block
	first   []byte // encoded first key of the current block
	last    []byte // encoded last key seen (fence)
	frame   []byte // assembly buffer for framed blocks
	blocks  int    // blocks written
	index   []byte // their index entries: off, len and first key each
	entries int
	hashes  []uint64 // bloom hash per entry, in add order; the fill sizes it
}

// blockMeta locates one block and holds its first key's encoding.
type blockMeta struct {
	off      int64
	length   int
	firstKey []byte
}

func (w *runWriter) writeHeader() error {
	hdr := append([]byte(runMagic), runVersion)
	if _, err := w.f.Write(hdr); err != nil {
		return err
	}
	w.off = int64(runHeaderSize)
	return nil
}

// addRaw appends one entry as the bytes it already is: a flush copies a
// memtable entry's two encodings, compaction the bytes an input run
// holds, and neither decodes them.
func (w *runWriter) addRaw(keyEnc, valEnc []byte) error {
	w.scratch = append(append(w.scratch, keyEnc...), valEnc...)
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
	w.raw = binary.AppendUvarint(w.raw[:0], uint64(w.count))
	w.raw = append(w.raw, w.scratch...)
	w.frame = w.lz.AppendBody(frame.Begin(w.frame[:0]), w.raw)
	w.index = binary.AppendUvarint(w.index, uint64(w.off))
	w.index = binary.AppendUvarint(w.index, uint64(len(w.frame)))
	w.index = append(w.index, w.first...)
	w.blocks++
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
	w.frame = binary.AppendUvarint(w.frame, uint64(w.blocks))
	w.frame = append(w.frame, w.index...)
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
	lz := env.lz
	if lz == nil {
		lz = new(frame.Encoder)
	}
	w := &runWriter{f: f, lz: lz}
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

// fillFromComponent is the flush: one frozen memtable's entries,
// tombstones included (they must shadow older runs), copied in order as
// the bytes they are.
func fillFromComponent(c *component) func(*runWriter) error {
	return func(w *runWriter) error {
		w.hashes = make([]uint64, 0, c.tree.Len())
		tc := c.tree.Cursor()
		for e, ok := tc.Next(); ok; e, ok = tc.Next() {
			if err := w.addRaw(bytesOf(e.Key), bytesOf(e.Val)); err != nil {
				return err
			}
		}
		return nil
	}
}

// fillFromRuns is the compaction: a k-way merge of run files (newest
// first) that moves every surviving entry as the bytes its input holds.
// Keys are compared as they lie (adm.CompareEncoded), values only walked
// (SkipBinary, when the block loads), and a value's kind byte tells a
// tombstone. Any read, checksum or structure error in an input fails the
// merge.
func fillFromRuns(runs []*runFile, dropTombstones bool) func(*runWriter) error {
	return func(w *runWriter) error {
		readers := make([]*runFileCursor, len(runs))
		entries := 0
		for i, r := range runs {
			readers[i] = r.rawReader()
			entries += r.entries
		}
		w.hashes = make([]uint64, 0, entries) // an upper bound: the merge may drop some
		m := newMergeCursor(readers, dropTombstones)
		for {
			rd, ok, err := m.next()
			if !ok {
				return err
			}
			if err := w.addRaw(rd.key, rd.val); err != nil {
				return err
			}
		}
	}
}

// runFile is an open, immutable on-disk run: the block index, bloom
// filter, and key-range fences live in memory; blocks are loaded on
// demand through the block cache and their records handed up as views,
// never decoded here. Point
// lookups and cursors are safe for concurrent use (reads go through
// ReadAt).
//
// # Lifecycle
//
// refs counts reasons the file must stay open: 1 for the owner (the
// partition component) and one per Snapshot that can reach the run
// (dropped when the snapshot is garbage-collected, see
// Partition.Snapshot). Nothing else counts: a cursor keeps the snapshot
// it was made from reachable, and compaction reads runs the partition
// owns, under flushMu. retire drops the owner reference — compaction
// calls it for every run it replaces — and the file closes when the
// count hits zero, so a replaced run lives exactly as long as the last
// snapshot that reaches it. close force-closes regardless (partition
// Close, for the runs it still owns); both paths purge the run's
// block-cache entries and are idempotent.
type runFile struct {
	name    string
	f       File
	id      uint64
	size    int64
	blocks  []blockMeta
	entries int

	// bloom is the per-run key filter (nil for empty runs).
	// firstKey/lastKey fence the run's key range, as encodings in the
	// loaded index payload; nil when the run has no block.
	bloom    *bloomFilter
	firstKey []byte
	lastKey  []byte

	cache *BlockCache
	ctr   *counters

	refs   atomic.Int32
	closed atomic.Bool
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
		cache: cmp.Or(env.cache, noCache),
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
		r.blocks[i] = blockMeta{off: off, length: length, firstKey: p.Encoded()}
		if p.Err() != nil {
			break
		}
		if !ok {
			return fmt.Errorf("index: block %d (%d+%d) out of range", i, off, length)
		}
	}
	bloomOff, bloomLen, ok := section()
	lastKey := p.Encoded()
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

// block is one run-file block in memory: the payload its frame
// carries, checksum-verified and decoded, plus the offsets of its
// entries. data is never written after loadBlock returns while a reader
// pins it: the record views a lookup or cursor returns alias it until
// the pin is released. Every block a reader gets is the buffers of a
// pooled entry (blockEntry), which goes back to the pool only once no
// reader can read them (BlockCache: pins). (The blocks compaction reuses
// are handed to no one.)
type block struct {
	data []byte
	// offs locates entry i in data: its key starts at offs[2i], its record
	// at offs[2i+1], and it ends where the next begins (offs[2i+2]; the
	// last offset is the end of the payload).
	offs []uint32
}

func (b block) entries() int     { return len(b.offs) / 2 }
func (b block) key(i int) []byte { return b.data[b.offs[2*i]:b.offs[2*i+1]] }
func (b block) val(i int) []byte { return b.data[b.offs[2*i+1]:b.offs[2*i+2]] }

// size is what a resident block costs: the length of its payload and of
// its offset table, whoever loaded it — a fresh buffer and a recycled one
// are charged alike, so residency does not depend on which reader
// missed. A payload just over runBlockTarget lies in a buffer of
// recycledRoom bytes either way (decodeBlockBody, BlockCache.load).
func (b block) size() int64 { return int64(len(b.data)) + 4*int64(len(b.offs)) }

// frameBufs lends a block read the buffer its frame is read into, and a
// frame hit the buffer its frame is copied into (BlockCache.fetch): a
// frame the cache keeps is copied into its store, so the buffer is
// garbage once decoded, and no block read allocates for it.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// loadBlock is the one block reader, under queries and compaction alike:
// one ReadAt of the whole frame (readFrame), then its decode
// (decodeFrame). reuse lends its buffers to a caller that hands out
// nothing aliasing them past their reuse — compaction — or to an entry's
// load, whose buffers are recycled only once no reader can read them
// (BlockCache). A query's read goes through the cache
// (BlockCache.fetch), which calls the two halves itself so that it can
// keep the frame, and decodes a kept frame as it decodes one just read.
// An error names the run and the block: it is the read fault the reader
// that asked for the block reports.
func (r *runFile) loadBlock(i int, reuse block) (block, error) {
	bp := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(bp)
	var err error
	if *bp, err = r.readFrame(i, *bp); err != nil {
		return block{}, err
	}
	return r.decodeFrame(i, *bp, reuse)
}

// readFrame reads block i's frame, as it lies on disk, into buf — grown
// when it lacks the room — and counts the block read.
func (r *runFile) readFrame(i int, buf []byte) ([]byte, error) {
	r.ctr.blockReads.Add(1)
	m := r.blocks[i]
	if m.length > math.MaxInt32 {
		return buf, r.fault(i, fmt.Errorf("%d bytes is no block", m.length))
	}
	if cap(buf) < m.length {
		buf = make([]byte, m.length)
	}
	buf = buf[:m.length]
	if n, err := r.f.ReadAt(buf, m.off); n < m.length {
		return buf, r.fault(i, fmt.Errorf("read %d of %d bytes: %w", n, m.length, err))
	}
	return buf, nil
}

// decodeFrame decodes block i's frame, read from the file or kept by
// the cache: the checksum over the frame's bytes, the decode into a
// buffer of exactly the payload's length (reuse's, when it has the
// room), then one walk that checks the structure of every key and record
// (adm.SkipBinary) and refuses trailing bytes. Whatever reads the block
// afterwards — a key compare, a field of a record view — cannot fail.
func (r *runFile) decodeFrame(i int, buf []byte, reuse block) (block, error) {
	body, _, err := frame.Decode(buf, int64(r.blocks[i].length)-frame.HeaderSize)
	if err != nil {
		return block{}, r.fault(i, err)
	}
	data, err := decodeBlockBody(body, reuse.data)
	if err != nil {
		return block{}, r.fault(i, err)
	}
	b, err := parseBlock(data, reuse.offs)
	if err != nil {
		return block{}, r.fault(i, err)
	}
	return b, nil
}

// fault names the run and the block a read of block i failed in.
func (r *runFile) fault(i int, err error) error {
	return fmt.Errorf("lsm: run %s: block %d: %w", r.name, i, err)
}

// decodeBlockBody returns the payload a block frame's coded body
// carries, in dst when that has the room. The declared length is bounded
// by what the body could decode to before anything is sized from it
// (frame.BodyLen). A fresh payload is given the room of its allocator
// size class, which it takes anyway — recycledRoom for one just over
// runBlockTarget — so that once the cache recycles its buffer
// (BlockCache) that buffer fits any later block of that class.
func decodeBlockBody(body, dst []byte) ([]byte, error) {
	n, err := frame.BodyLen(body, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = append([]byte(nil), make([]byte, n)...)
	}
	dst = dst[:n]
	if err := frame.DecodeBody(dst, body); err != nil {
		return nil, err
	}
	return dst, nil
}

// parseBlock makes a block of one decoded payload: it builds the offset
// table, into offs when that has the room. A new table is given its
// allocator size class as room (slices.Grow), so the entry it lies in
// fits a later block of a few more entries instead of growing again.
func parseBlock(data []byte, offs []uint32) (block, error) {
	p := frame.NewReader(data)
	n := p.Count(2)
	if err := p.Err(); err != nil {
		return block{}, err
	}
	offs = slices.Grow(offs[:0], 2*n+1)
	pos := len(data) - p.Len()
	for range 2 * n { // key, record, key, record, ...
		offs = append(offs, uint32(pos))
		vn, err := adm.SkipBinary(data[pos:])
		if err != nil {
			return block{}, fmt.Errorf("offset %d: %w", pos, err)
		}
		pos += vn
	}
	if pos != len(data) {
		return block{}, fmt.Errorf("%d trailing bytes", len(data)-pos)
	}
	return block{data: data, offs: append(offs, uint32(pos))}, nil
}

// fetch returns block i to a reader of the given mode through the
// block cache (BlockCache.fetch), the one way a query reads a run block:
// a hit returns the resident block, a miss decodes it into a pooled
// entry, from the frame the cache kept or from the file (readFrame,
// decodeFrame). The read pins the block: lease is the pin, which the
// reader releases, or hands to its Leases, once it reads the block no
// more.
func (r *runFile) fetch(i int, mode readMode) (blk block, lease *blockEntry, err error) {
	return r.cache.fetch(r.id, i, mode, r)
}

// dropped reports whether the run is closed: close drops its blocks from
// the cache (BlockCache.dropRun), and a load that finishes afterwards
// keeps nothing there.
func (r *runFile) dropped() bool { return r.closed.Load() }

// lookup binary-searches the block's encoded keys for key, an encoding,
// and returns the record stored under it, or nil (a record is never
// empty). loadBlock checked every key.
func (b block) lookup(key []byte) []byte {
	lo, hi := 0, b.entries()
	cmp := -1
	for lo < hi {
		mid := (lo + hi) / 2
		if c := adm.CompareEncoded(b.key(mid), key); c < 0 {
			lo = mid + 1
		} else {
			hi = mid
			cmp = c
		}
	}
	if lo < b.entries() && cmp == 0 {
		return b.val(lo)
	}
	return nil
}

// get performs a point lookup: reject by key-range fence, then by bloom
// filter, then binary-search the block index for the last block whose
// first key is <= key and binary-search that block's encoded keys, every
// comparison one of encodings (adm.CompareEncoded). The read pins the
// block's entry, so that it stays recyclable (BlockCache): with a lease
// list, the record is a view of the block and l keeps the pin; without
// one, the read copies its one record out and releases the pin. Only a
// found record puts an entry on l. An error is a block that could not
// be read, so the key may be here after all.
func (r *runFile) get(kp *pointProbe, l *Leases) (v adm.Value, found bool, err error) {
	if len(r.blocks) == 0 {
		return adm.Value{}, false, nil
	}
	key := kp.key
	if adm.CompareEncoded(key, r.firstKey) < 0 || adm.CompareEncoded(key, r.lastKey) > 0 {
		r.ctr.fenceSkips.Add(1)
		return adm.Value{}, false, nil
	}
	if r.bloom != nil && !kp.mayBeIn(r.bloom) {
		r.ctr.bloomSkips.Add(1)
		return adm.Value{}, false, nil
	}
	lo, hi := 0, len(r.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if adm.CompareEncoded(r.blocks[mid].firstKey, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return adm.Value{}, false, nil
	}
	blk, lease, err := r.fetch(lo-1, pointRead)
	if err != nil {
		return adm.Value{}, false, err
	}
	v, found = keepRecord(blk.lookup(key), lease, l)
	return v, found, nil
}

// keepRecord returns rec, the record a point read found (or nil), from a
// block it holds by lease: with a lease list, as a view of the block,
// whose pin the list keeps; without one, as a copy, the pin released.
func keepRecord(rec []byte, lease *blockEntry, l *Leases) (adm.Value, bool) {
	if rec != nil && l != nil {
		l.left = append(l.left, lease)
	} else {
		rec = bytes.Clone(rec) // nil stays nil
		lease.release()
	}
	if rec == nil {
		return adm.Value{}, false
	}
	return adm.ViewAlias(rec), true
}

// incRef adds a keep-open reason (a snapshot).
func (r *runFile) incRef() { r.refs.Add(1) }

// decRef drops one reason; the last one out closes the file.
func (r *runFile) decRef() {
	if r.refs.Add(-1) == 0 {
		r.close()
	}
}

// retire drops the owner reference: compaction calls it for the runs it
// replaced. The file closes now if no snapshot reaches it, or with the
// last one that does.
func (r *runFile) retire() { r.decRef() }

// close force-closes the file and purges its block-cache entries.
// Idempotent; safe against concurrent decRef-driven closes.
func (r *runFile) close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.ctr.openRuns.Add(-1)
	r.cache.dropRun(r.id)
	return r.f.Close()
}

// runFileCursor streams a run's entries block by block in key order as
// the encoded bytes the file holds: key and val are the entry the last
// advance stepped onto. A reader's cursor (cursor) loads blocks through
// the block cache and pins each one it reads (lease); when it leaves a
// block it hands the pin to its Leases (leases), whose owner releases
// it once nothing reads the block's rows any more (Cursor,
// ParallelScanCursor, Partition.AttachIndex).
// Compaction's (rawReader) loads blocks as queries do (loadBlock), but
// into buffers it reuses, and goes around the block cache in both
// directions: a compaction reads every block of its inputs exactly
// once, so caching them would only evict blocks queries want; its
// entries are valid until the next advance. A cursor holds nothing else
// to give back: whoever made it keeps the run open (see runFile). A
// block it cannot load ends it, and err says why.
type runFileCursor struct {
	r      *runFile
	raw    bool        // compaction's: reused buffers, around the cache
	leases *Leases     // where left pins go
	lease  *blockEntry // the current block's pin, if any
	block  int         // next block to load
	blk    block       // the current block
	pos    int

	key, val []byte
	err      error
}

func (r *runFile) cursor(l *Leases) *runFileCursor {
	return &runFileCursor{r: r, leases: l}
}
func (r *runFile) rawReader() *runFileCursor { return &runFileCursor{r: r, raw: true} }

// advance makes runFileCursor a mergeInput: the merged entry is c.key,
// c.val.
func (c *runFileCursor) advance() (key []byte, tombstone, ok bool, err error) {
	for c.pos == c.blk.entries() {
		c.leave()
		if c.block >= len(c.r.blocks) {
			return nil, false, false, c.err
		}
		var blk block
		if c.raw {
			blk, err = c.r.loadBlock(c.block, c.blk)
		} else {
			blk, c.lease, err = c.r.fetch(c.block, cursorRead)
		}
		if err != nil {
			c.err, c.block = err, len(c.r.blocks)
			return nil, false, false, err
		}
		c.blk, c.pos = blk, 0
		c.block++
	}
	c.key, c.val = c.blk.key(c.pos), c.blk.val(c.pos)
	c.pos++
	return c.key, adm.Kind(c.val[0]) == adm.KindMissing, true, nil
}

// leave hands the current block's pin, if it holds one, to the scan's
// Leases: the cursor reads the block no more.
func (c *runFileCursor) leave() {
	if c.lease != nil {
		c.leases.left = append(c.leases.left, c.lease)
		c.lease = nil
	}
}
