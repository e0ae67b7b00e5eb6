package lsm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/ideadb/idea/internal/frame"
)

// WAL is the storage log a partition appends to before applying a
// mutation. The paper notes that "the evaluation of an insert job ...
// will have to wait for the storage log to be flushed to finish
// properly"; Commit is that wait.
//
// The log appends frames (internal/frame) to a sequence of segment
// files; each frame carries a whole storage batch of binary-encoded
// key/record pairs (adm.AppendBinary), so one storage batch costs one
// write and one fsync. Segments fully covered by flushed run files are
// deleted by TruncateTo, and a clean close deletes them all (retire).
//
// # Group commit
//
// Commit coalesces concurrent committers: the first caller becomes the
// leader, writes and fsyncs everything appended so far, and releases
// every waiter whose entries that durability point covers. Followers
// never issue their own fsync — they block until a durability point at
// or past their last append: one fsync per group.
//
// # On-disk format (version 1)
//
//	segment  := header frame*
//	header   := "IDEAWAL" version:1B
//	frame    := the byte envelope (docs/ARCHITECTURE.md) around payload
//	payload  := firstLSN:uvarint count:uvarint entry{count}
//	entry    := key:adm-binary record:adm-binary
//
// A tombstone entry's record is MISSING. Segments are named
// wal-%06d.log; the first frame of each segment locates it in LSN
// space. Replay treats a frame the envelope rejects at the tail of the
// last segment as a torn write: the tail is truncated and recovery
// proceeds — committed frames are never behind a torn one, because
// writes are sequential and fsync ordered. A rejected frame anywhere
// else, or a verified frame whose payload does not parse, is
// corruption.
type WAL struct {
	mu        sync.Mutex
	lsn       uint64
	committed uint64
	commits   uint64

	// Group-commit coalescing: flushing marks a leader in the write
	// window; flushDone is closed (and replaced) at each durability
	// point to release the waiting followers.
	flushing  bool
	flushDone chan struct{}
	werr      error // sticky write failure

	fs           FS
	dir          string
	segLimit     int64
	seg          File
	segBytes     int64
	segments     []walSegment
	pending      []byte // framed records awaiting the next commit
	pendingFirst uint64 // first LSN in pending (0 = empty)
	spare        []byte // recycled pending buffer

	// ioMu serializes segment file operations (leader writes, rotation,
	// truncation) without blocking appends.
	ioMu sync.Mutex
}

// walSegment locates one segment file in LSN space.
type walSegment struct {
	index    int
	firstLSN uint64 // first LSN recorded in the segment; 0 = none yet
	name     string
}

const (
	walMagic           = "IDEAWAL"
	walVersion         = 1
	walHeaderSize      = len(walMagic) + 1
	defaultWALSegBytes = 4 << 20
)

// OpenWAL opens (or starts) the log in dir. The caller must Replay
// before the first append: replay scans the existing segments, rebuilds
// the LSN position, and truncates any torn tail.
func OpenWAL(fsys FS, dir string, segLimit int64) (*WAL, error) {
	if segLimit <= 0 {
		segLimit = defaultWALSegBytes
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	return &WAL{flushDone: make(chan struct{}), fs: fsys, dir: dir, segLimit: segLimit}, nil
}

func walSegmentName(index int) string { return fmt.Sprintf("wal-%06d.log", index) }

func parseWALSegmentName(name string) (int, bool) {
	var index int
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "wal-%06d.log", &index); err != nil {
		return 0, false
	}
	return index, true
}

// Replay scans the on-disk segments in order, invoking apply once per
// logged frame — one storage batch — with the frame's entries whose LSN
// is > from, in log order (lsn is entries[0]'s; the rest follow
// densely), and leaves the log positioned for appending. The entries are
// sliced as the write that logged them sliced them (decodeBatch): they
// are the segment's bytes, which replay read into memory nothing else
// writes. entries is scratch reused from one call to the next, which
// apply may reorder. A torn or corrupt
// frame at the tail of the last segment is truncated away (a crash
// mid-write); corruption anywhere else fails recovery loudly. Replay
// must be called exactly once, before any append.
func (w *WAL) Replay(from uint64, apply func(lsn uint64, entries []entry) error) error {
	names, err := w.fs.List(w.dir)
	if err != nil {
		return err
	}
	var segs []walSegment
	for _, name := range names {
		if index, ok := parseWALSegmentName(name); ok {
			segs = append(segs, walSegment{index: index, name: name})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	maxLSN := from
	var entries []entry
	for i := range segs {
		last := i == len(segs)-1
		lsn, first, err := w.replaySegment(&segs[i], last, from, &entries, apply)
		if err != nil {
			return err
		}
		segs[i].firstLSN = first
		if lsn > maxLSN {
			maxLSN = lsn
		}
	}
	// A headerless newest segment was dropped by replaySegment.
	for len(segs) > 0 && segs[len(segs)-1].name == "" {
		segs = segs[:len(segs)-1]
	}
	w.mu.Lock()
	w.lsn = maxLSN
	w.committed = maxLSN
	w.segments = segs
	w.mu.Unlock()
	// Position the last segment for appending.
	if len(segs) > 0 {
		f, err := w.fs.Open(joinPath(w.dir, segs[len(segs)-1].name))
		if err != nil {
			return err
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return err
		}
		w.seg = f
		w.segBytes = size
	}
	return nil
}

// replaySegment reads one segment, applying each frame's entries past
// from. It returns the highest LSN seen and the segment's first LSN.
// Torn tails are truncated when last is set.
func (w *WAL) replaySegment(seg *walSegment, last bool, from uint64, entries *[]entry, apply func(uint64, []entry) error) (maxLSN, firstLSN uint64, err error) {
	pathname := joinPath(w.dir, seg.name)
	data, err := readFileAll(w.fs, pathname)
	if err != nil {
		return 0, 0, err
	}
	truncateTo := func(off int) error {
		f, err := w.fs.Open(pathname)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.Truncate(int64(off)); err != nil {
			return err
		}
		return f.Sync()
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		if last {
			// A crash can leave the newest segment created but with a
			// torn (or absent) header: nothing in it was ever
			// acknowledged, so drop it.
			if err := w.fs.Remove(pathname); err != nil {
				return 0, 0, err
			}
			seg.name = "" // mark dropped; caller prunes via firstLSN==0 && empty
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("lsm: wal segment %s: bad header", seg.name)
	}
	if data[len(walMagic)] != walVersion {
		return 0, 0, fmt.Errorf("lsm: wal segment %s: unsupported version %d", seg.name, data[len(walMagic)])
	}
	off := walHeaderSize
	for off < len(data) {
		// A frame cannot outgrow the segment that holds it.
		payload, n, err := frame.Decode(data[off:], int64(len(data)))
		if err != nil {
			if last {
				return maxLSN, firstLSN, truncateTo(off)
			}
			return 0, 0, fmt.Errorf("lsm: wal segment %s: corrupt frame at offset %d: %w", seg.name, off, err)
		}
		r := frame.NewReader(payload)
		first, count := r.Uvarint(), r.Count(2) // an entry is two values of >= 1 byte
		if err = r.Err(); err == nil {
			*entries, err = decodeBatch((*entries)[:0], r.Take(r.Len()))
		}
		if err == nil && len(*entries) != count {
			err = fmt.Errorf("%d entries, its header counts %d", len(*entries), count)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("lsm: wal segment %s frame at %d: %w", seg.name, off, err)
		}
		if count > 0 {
			maxLSN = max(maxLSN, first+uint64(count)-1)
		}
		skip := 0 // entries at or below from, which run files hold already
		if from >= first {
			skip = int(min(from-first+1, uint64(count)))
		}
		if skip < count {
			if err := apply(first+uint64(skip), (*entries)[skip:]); err != nil {
				return 0, 0, err
			}
		}
		if firstLSN == 0 {
			firstLSN = first
		}
		off += n
	}
	return maxLSN, firstLSN, nil
}

// appendEncoded assigns n consecutive LSNs and frames enc (n
// concatenated binary key/record entry pairs) into the pending buffer
// for the next commit. It is the log's one append entry;
// Partition.write calls it while holding the partition lock, which is
// what keeps LSN order consistent with memtable apply order — a freeze
// observes an LSN watermark that exactly covers its memtable.
func (w *WAL) appendEncoded(enc []byte, n int) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.lsn + 1
	w.lsn += uint64(n)
	if w.pendingFirst == 0 {
		w.pendingFirst = first
	}
	start := len(w.pending)
	w.pending = frame.Begin(w.pending)
	w.pending = binary.AppendUvarint(w.pending, first)
	w.pending = binary.AppendUvarint(w.pending, uint64(n))
	w.pending = append(w.pending, enc...)
	frame.Seal(w.pending, start)
	return w.lsn
}

// Commit makes every appended entry durable and returns the first
// write error the log ever hit (sticky: a log that failed to write is
// permanently failed). Concurrent committers coalesce — see the type
// comment. Storage jobs call it once per frame, so larger frames
// amortize the fsync.
func (w *WAL) Commit() error {
	w.mu.Lock()
	target := w.lsn
	for {
		if w.werr != nil {
			err := w.werr
			w.mu.Unlock()
			return err
		}
		if w.committed >= target {
			w.mu.Unlock()
			return nil
		}
		if !w.flushing {
			// Become the leader: make everything appended so far durable.
			w.flushing = true
			buf := w.pending
			first := w.pendingFirst
			upto := w.lsn
			w.pending = w.spare[:0]
			w.pendingFirst = 0
			w.mu.Unlock()

			err := w.writeAndSync(buf, first)

			w.mu.Lock()
			w.flushing = false
			w.spare = buf[:0]
			if err != nil {
				w.werr = err
			} else {
				w.committed = upto
			}
			w.commits++
			close(w.flushDone)
			w.flushDone = make(chan struct{})
			w.mu.Unlock()
			return err
		}
		// Follow: wait for the leader's durability point, then re-check.
		ch := w.flushDone
		w.mu.Unlock()
		<-ch
		w.mu.Lock()
	}
}

// writeAndSync appends buf to the current segment (rotating first when
// the segment is full) and fsyncs. Called only by the commit leader,
// serialized by ioMu against truncation.
func (w *WAL) writeAndSync(buf []byte, firstLSN uint64) error {
	if len(buf) == 0 {
		return nil
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.seg == nil || w.segBytes >= w.segLimit {
		if err := w.rotate(firstLSN); err != nil {
			return err
		}
	}
	if _, err := w.seg.Write(buf); err != nil {
		return err
	}
	w.segBytes += int64(len(buf))
	// Record the segment's position in LSN space once its first frame
	// lands (a fresh segment after rotation already has it).
	if w.segments[len(w.segments)-1].firstLSN == 0 {
		w.segments[len(w.segments)-1].firstLSN = firstLSN
	}
	return w.seg.Sync()
}

// rotate closes the current segment and starts the next, stamping the
// header. The new segment will begin at firstLSN.
func (w *WAL) rotate(firstLSN uint64) error {
	index := 1
	if n := len(w.segments); n > 0 {
		index = w.segments[n-1].index + 1
	}
	name := walSegmentName(index)
	f, err := w.fs.Create(joinPath(w.dir, name))
	if err != nil {
		return err
	}
	hdr := append([]byte(walMagic), walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	if w.seg != nil {
		w.seg.Close()
	}
	w.seg = f
	w.segBytes = int64(walHeaderSize)
	w.segments = append(w.segments, walSegment{index: index, firstLSN: firstLSN, name: name})
	return nil
}

// TruncateTo deletes segments wholly covered by flushed runs: every
// entry with LSN <= upto is durable in a run file, so any segment
// whose entire LSN range is at or below upto is dead weight. The
// current segment is never deleted here; a clean close retires it.
func (w *WAL) TruncateTo(upto uint64) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	segs := w.segments
	w.mu.Unlock()
	removed := 0
	for removed < len(segs)-1 {
		next := segs[removed+1]
		// Segment i ends at next.firstLSN-1; an unlocated successor
		// (firstLSN 0: created, nothing written) means segment i holds
		// everything up to the current LSN — keep it.
		if next.firstLSN == 0 || next.firstLSN-1 > upto {
			break
		}
		if err := w.fs.Remove(joinPath(w.dir, segs[removed].name)); err != nil {
			return err
		}
		removed++
	}
	if removed > 0 {
		w.mu.Lock()
		w.segments = w.segments[removed:]
		w.mu.Unlock()
	}
	return nil
}

// retire deletes every segment, oldest first, the current one included,
// and syncs the directory. A clean close calls it on the closed log once
// the manifest covers every entry: the directory is then the manifest
// and run files alone, and the next Replay starts an empty log at the
// manifest's watermark. A crash part-way leaves a suffix of segments
// whose entries the manifest covers, which replay skips.
func (w *WAL) retire() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segments) > 0 {
		if err := w.fs.Remove(joinPath(w.dir, w.segments[0].name)); err != nil {
			return err
		}
		w.segments = w.segments[1:]
	}
	return w.fs.SyncDir(w.dir)
}

// Close flushes pending appends and closes the segment file. The
// partition commits before closing, so this is belt-and-braces.
func (w *WAL) Close() error {
	err := w.Commit()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.seg != nil {
		if cerr := w.seg.Close(); err == nil {
			err = cerr
		}
		w.seg = nil
	}
	return err
}

// LSN returns the last appended sequence number.
func (w *WAL) LSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// Commits returns how many durability points (group commits) have
// completed — with coalescing this counts fsyncs, not Commit calls.
func (w *WAL) Commits() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commits
}

// Err returns the sticky write failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}
