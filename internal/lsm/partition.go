// Package lsm implements the storage engine underneath datasets: one
// log-structured merge (LSM) partition per storage node, with a mutable
// B-tree memtable, a write-ahead log with group commit, a background
// flusher that persists frozen memtables as run files and compacts them
// by size tier, snapshot scans through a shared block cache, and
// synchronously-maintained secondary indexes. There is one engine; the
// FS a partition is opened on decides only where its files live — a
// directory (NewOSFS) or process memory (NewMemFS).
//
// The paper's Section 7.3 behaviour — "updates to a dataset will
// activate the in-memory component of its LSM structure and thereby
// change how the system accesses data even at the low rate of one record
// per second" — falls out of this design: a quiescent partition serves
// reads from frozen components with no memtable in the path, while any
// update stream keeps a live memtable (and periodic freezes, flushes and
// compactions) in every reader's way.
//
// # Frame-granular batch writes
//
// The write path is frame-granular: a whole dataflow frame is one
// storage operation, costing one WAL append+commit, one partition lock
// acquisition, one sort, one bulk memtable insert
// (index.Tree.PutBatch), grouped secondary-index maintenance, and one
// flush-threshold check for the entire frame. A write is the bytes the
// WAL will log — key, record, key, record, … — and storage keeps that
// one buffer per batch: the WAL is handed it, and a memtable entry is
// an entry's two encodings where they lie in it, sliced, not decoded
// (decodeBatch, which WAL replay reads the log with too). A feed's frame
// arrives as that payload already: its producer routed it
// (hyracks.Frame.Enc), and Dataset.UpsertFrame stores the slab as it
// stands, checking that the partition owns every key in it. Every other
// write — UpsertBatch,
// and Upsert, Insert, Delete and PutCheckpoint, which are batches of
// one — is first encoded into a buffer of its own (encodeBatch), so
// nothing of the caller's is kept. See Partition.write.
//
// # Reads keep what writes never rewrite
//
// A reader reads what storage hands it without a copy. A record is a
// view of a batch buffer or a run block, and so is a key, both made with
// adm.ViewAlias: a string key, and every string read out of a record,
// aliases those bytes. A run block is read under a pin, and one rule
// says how long: a row read from a run stays valid until its cursor's
// next Next or Close, and a point read copies its record out unless a
// lease list keeps the pin (an index scan's, until its next row).
// Transient reports whether a row lies in a pinned block; a memtable
// row never does. Whatever keeps such a row past that copies what it
// keeps (adm.Value.Detached), and so does a holder that outlives a
// statement — a secondary index, enrichment state patched across
// batches: a B-tree index its entries' encodings, an R-tree index and
// enrichment state detached values. An index scan (IndexScanCursor)
// keeps the primary keys of the index's own entries, which no write
// rewrites: a write puts or deletes whole entries (BTreeIndex). What a
// read gives back is an index scan's capture buffers, which
// IndexScanCursor.Close returns to a pool, a parallel scan's record
// batches, which ParallelScanCursor returns to a shared pool, cleared,
// and its pins on the blocks it read. A block's memory is its cache
// entry: every load decodes into an entry from one pool, and an entry
// the cache has let go of goes back to it, overwritten, once it is
// unpinned (BlockCache). A write's bytes have one more rule: a routed
// frame's slab may be reused once its memtable is flushed unread.
// Partition.Get and Snapshot mark every memtable and frozen tree they
// may show a reader, so a slab whose memtable neither marked was never
// read; its flush overwrites it and hands it to the next frames
// (Dataset.Slab, slabs.go).
package lsm

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// Options tunes one partition.
type Options struct {
	// MemBudget is the memtable size in bytes that triggers a freeze,
	// and with it a flush to a run file. The memtable is charged what it
	// holds — each batch's buffer at its capacity (a copy sized exactly,
	// or a routed frame's slab, spare room included: see
	// Dataset.UpsertFrame) plus memItemOverhead per entry written since
	// the last freeze — which for an enriched tweet is ≈ 520 B (its
	// ≈ 490 encoded bytes and a 32-byte entry) where the decoded tree it
	// once held was estimated at ≈ 1.9 KB: the same budget holds ≈ 3.6×
	// the records, so flushes are fewer and larger. The budget also
	// bounds the WAL tail a crash leaves, which the next open flushes
	// before it serves anything; a clean Close flushes the memtable itself
	// and leaves no log.
	MemBudget int
	// MaxComponents is the number of run files past which the whole level
	// is compacted into one regardless of size tiers (the
	// read-amplification backstop, see pickCompaction).
	MaxComponents int
	// WALSegBytes caps one WAL segment file (0 = default 4 MiB).
	WALSegBytes int64
	// BlockCache caches run-file blocks across every partition sharing
	// it (the cluster wires one shared cache). Nil keeps no block
	// resident: every block is read from the filesystem, pinned by its
	// reader and recycled at release, as a full cache's misses are.
	BlockCache *BlockCache
}

// DefaultOptions are sized for the in-process simulation: small enough
// to exercise flushes and compactions in tests, large enough not to
// dominate.
func DefaultOptions() Options {
	return Options{
		MemBudget:     8 << 20,
		MaxComponents: 8,
	}
}

// component is one immutable sorted run: a frozen memtable B-tree
// (freeze is O(1) — the tree is detached, never copied) until the
// flusher has written it out, a run file (the output of a flush or a
// compaction) from then on. Tombstones are MISSING values.
type component struct {
	tree  *memtable   // frozen memtable awaiting its flush
	slabs *frameSlabs // the frame slabs tree keeps; nil when none
	run   *runFile    // run file; nil while tree-backed

	// upToLSN is the highest WAL sequence number whose effect the
	// component (together with everything older) contains. The flusher
	// uses it as the durable watermark: once this component is a run
	// file, WAL segments at or below upToLSN are dead.
	upToLSN uint64
}

// entry is a memtable entry: the encodings of a key and of its record
// (a tombstone's is MISSING), string headers over the bytes of the batch
// they came in — its buffer, or the WAL segment replay read — which
// nothing rewrites. Storage holds bytes: an entry is decoded only when a
// reader asks (keyOf, recOf).
type entry = index.Entry[string, string]

// memtable is the tree of a partition's entries, in the encoded keys'
// order (compareKeys).
type memtable = index.Tree[string, string]

// newMemtable returns an empty memtable whose nodes come from, and at a
// flush no reader saw go back to, the partition's node list (slabs.go).
func (p *Partition) newMemtable() *memtable { return index.NewIn(compareKeys, &p.nodes) }

// compareKeys orders encoded keys as adm.Compare orders the keys they
// encode.
func compareKeys(a, b string) int { return adm.CompareEncoded(bytesOf(a), bytesOf(b)) }

// bytesOf returns the bytes s holds, without a copy: read-only.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// stringOf returns b as a string, without a copy: b must never change.
func stringOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// keyOf is e's key, a string aliasing the entry's bytes.
func keyOf(e entry) adm.Value { return adm.ViewAlias(bytesOf(e.Key)) }

// recOf is e's record, a view of the entry's bytes.
func recOf(e entry) adm.Value { return adm.ViewAlias(bytesOf(e.Val)) }

// memGet looks the probe's key up in a memtable, by its encoding.
func memGet(t *memtable, kp *pointProbe) (adm.Value, bool) {
	rec, ok := t.Get(stringOf(kp.key))
	if !ok {
		return adm.Value{}, false
	}
	return adm.ViewAlias(bytesOf(rec)), true
}

// runCursor streams one component's entries in key order, as their
// encoded bytes: a memtable cursor or a block-streaming run-file cursor,
// depending on how the component is backed.
type runCursor struct {
	tc       *index.Cursor[string, string]
	fc       *runFileCursor
	key, val []byte // the entry the last advance stepped onto
}

// cursor opens a cursor over c; a run's hands the pins of the blocks it
// leaves to l.
func (c *component) cursor(l *Leases) runCursor {
	if c.run != nil {
		return runCursor{fc: c.run.cursor(l)}
	}
	return runCursor{tc: c.tree.Cursor()}
}

// advance makes runCursor a mergeInput: the merged entry is rc.key,
// rc.val.
func (rc *runCursor) advance() (key []byte, tombstone, ok bool, err error) {
	if rc.fc != nil {
		key, tombstone, ok, err = rc.fc.advance()
		rc.key, rc.val = key, rc.fc.val
		return key, tombstone, ok, err
	}
	e, ok := rc.tc.Next()
	if !ok {
		return nil, false, false, nil
	}
	rc.key, rc.val = bytesOf(e.Key), bytesOf(e.Val)
	return rc.key, adm.Kind(e.Val[0]) == adm.KindMissing, true, nil
}

// Stats is a point-in-time copy of partition activity counters. It is
// the one declaration of the storage counters: datasets and the cluster
// sum it (Add), and the cluster-wide snapshot embeds the sum, so a
// field added here reaches the public API and the STATS verb unaided.
type Stats struct {
	Gets    uint64
	Scans   uint64
	Upserts uint64
	Deletes uint64
	Flushes uint64
	Merges  uint64
	// FlushedRuns counts frozen memtables persisted as run files.
	FlushedRuns uint64
	Components  int
	MemEntries  int
	// Read-path skip counters: point lookups rejected by a run's
	// key-range fence or bloom filter without any block read, and framed
	// block reads that did hit the filesystem.
	FenceSkips uint64
	BloomSkips uint64
	BlockReads uint64
	// OpenRunFiles gauges run files currently open: the run-backed
	// components plus replaced runs a snapshot still reaches.
	OpenRunFiles int
	// RecycledSlabs counts the routed frame slabs Dataset.Slab served
	// from the slabs of memtables flushed unread instead of allocating,
	// and FreshSlabs the ones it had to allocate.
	RecycledSlabs uint64
	FreshSlabs    uint64
}

// Add accumulates o into s: a dataset sums its partitions, a cluster
// its datasets.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Scans += o.Scans
	s.Upserts += o.Upserts
	s.Deletes += o.Deletes
	s.Flushes += o.Flushes
	s.Merges += o.Merges
	s.FlushedRuns += o.FlushedRuns
	s.Components += o.Components
	s.MemEntries += o.MemEntries
	s.FenceSkips += o.FenceSkips
	s.BloomSkips += o.BloomSkips
	s.BlockReads += o.BlockReads
	s.OpenRunFiles += o.OpenRunFiles
	s.RecycledSlabs += o.RecycledSlabs
	s.FreshSlabs += o.FreshSlabs
}

// Partition is a single LSM storage partition: one primary-key-ordered
// store plus its secondary indexes. All public methods are safe for
// concurrent use.
type Partition struct {
	opts Options
	wal  *WAL

	mu  sync.RWMutex
	mem *memtable
	// memBytes is what the memtable holds: the capacity of every batch
	// buffer written since the last freeze plus memItemOverhead per
	// entry — replaced entries included, their bytes are still in their
	// batch's buffer, which the memtable keeps whole.
	memBytes int
	// slabs are the routed frame slabs the memtable keeps; free and
	// nodes, under locks of their own, the slabs and tree nodes of
	// flushed memtables no reader saw, for the next frames and memtables
	// (slabs.go).
	slabs      *frameSlabs
	free       slabList
	nodes      index.Nodes[string, string]
	components []*component // newest first
	secondary  []SecondaryIndex
	stats      Stats
	closed     bool
	perr       error // sticky storage failure (flush/compaction/commit)
	// ckpts holds feed-resume checkpoints (scope -> source offset).
	// Checkpoints are logged through the WAL like data entries — so a
	// checkpoint's durability is ordered after the records it covers —
	// but live here instead of the memtable, and survive WAL truncation
	// via the manifest's Checkpoints snapshot.
	ckpts map[string]uint64

	fs  FS
	dir string
	// renv is the run environment (shared block cache, this
	// partition's lock-free counters and the flusher's block encoder)
	// threaded into every run file written or opened.
	renv runEnv
	// flushMu serializes the flusher's work units (flush, compaction,
	// manifest stores) against Close. flushedLSN and nextSeq are the
	// last stored manifest's watermark and next run file sequence
	// number, flusher-owned: read or written only under flushMu.
	flushMu     sync.Mutex
	flushedLSN  uint64
	nextSeq     uint64
	flushC      chan struct{}
	flusherDone chan struct{}
}

// WAL exposes the partition's log so storage jobs can group-commit once
// per frame.
func (p *Partition) WAL() *WAL { return p.wal }

// ckptKeyPrefix marks a WAL entry as a feed-resume checkpoint rather
// than a data record. The leading NUL keeps it out of any legitimate
// primary-key space (ADM string keys never start with NUL).
const ckptKeyPrefix = "\x00idea-ckpt\x00"

// checkpointScope reports whether a replayed WAL key is a checkpoint
// entry, and for which scope.
func checkpointScope(key adm.Value) (string, bool) {
	if key.Kind() != adm.KindString {
		return "", false
	}
	s := key.StringVal()
	if !strings.HasPrefix(s, ckptKeyPrefix) {
		return "", false
	}
	return s[len(ckptKeyPrefix):], true
}

// PutCheckpoint durably records "source offset off for scope is fully
// stored in this partition": the entry is WAL-logged and group-
// committed like a data write, so when PutCheckpoint returns nil every
// record the caller stored before it is at least as durable as the
// checkpoint itself (same log, earlier LSNs). Offsets are monotonic per
// scope; a stale offset is logged but does not regress the table.
func (p *Partition) PutCheckpoint(scope string, off uint64) error {
	one := [1]index.Item{{Key: adm.String(ckptKeyPrefix + scope), Val: adm.Int(int64(off))}}
	_, err := p.write(writeCheckpoint, encodeBatch(one[:]), 1, nil)
	return err
}

// Checkpoint returns the last durable checkpoint for scope (0 = none).
func (p *Partition) Checkpoint(scope string) uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ckpts[scope]
}

// checkpointsSnapshot copies the checkpoint table (flusher: manifest
// stores must not lose checkpoints to WAL truncation).
func (p *Partition) checkpointsSnapshot() map[string]uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.ckpts) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(p.ckpts))
	for k, v := range p.ckpts {
		out[k] = v
	}
	return out
}

// raiseCheckpointLocked applies one checkpoint entry: the highest offset
// per scope wins. Recovery calls it on the unpublished partition
// (manifest first, then WAL replay) without the lock.
func (p *Partition) raiseCheckpointLocked(scope string, off uint64) {
	if p.ckpts == nil {
		p.ckpts = make(map[string]uint64)
	}
	if off > p.ckpts[scope] {
		p.ckpts[strings.Clone(scope)] = off // scope may alias a whole WAL segment
	}
}

// backfillChunk bounds the scratch AttachIndex holds while it feeds
// existing records to a new index: one frame's worth per InsertBatch.
const backfillChunk = 1024

// AttachIndex registers a secondary index. Existing records are
// back-filled so an index created after a load is immediately complete:
// they are handed over in chunks of items (primary key, record) drawn
// from the write path's item-batch pool. The back-fill reads through a
// Cursor in which the memtable joins the merge as a transient
// tree-backed run — read-only under the write lock, so no freeze is
// needed; under the lock the partition owns every run, so they are
// open. The cursor pins the blocks it reads (BlockCache): an index
// copies what it keeps of an item, so the pins of the blocks the cursor
// has left are released once each chunk is inserted, and on a full
// cache the back-fill decodes into the memory of the blocks it evicts.
// A run the cursor could not read ends it early, so then the index is
// not attached and the cursor's read fault is returned.
func (p *Partition) AttachIndex(idx SecondaryIndex) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	batch := itemBatches.get(backfillChunk)
	var cu Cursor
	cu.open(nil, append([]*component{{tree: p.mem}}, p.components...), true)
	for key, rec, ok := cu.nextEncoded(); ok; key, rec, ok = cu.nextEncoded() {
		*batch = append(*batch, index.Item{Key: adm.ViewAlias(key), Val: adm.ViewAlias(rec)})
		if len(*batch) == backfillChunk {
			idx.InsertBatch(*batch)
			clear(*batch) // the pool clears only up to the final length
			*batch = (*batch)[:0]
			cu.leases.Release()
		}
	}
	idx.InsertBatch(*batch)
	itemBatches.put(batch)
	cu.leases.Release() // the drained cursor left every block
	if err := cu.Err(); err != nil {
		return err
	}
	p.secondary = append(p.secondary, idx)
	return nil
}

// detachIndex removes an attached index: CREATE INDEX undoing the
// partitions it reached before one failed.
func (p *Partition) detachIndex(idx SecondaryIndex) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.secondary = slices.DeleteFunc(p.secondary, func(s SecondaryIndex) bool { return s == idx })
}

// fail records the first storage failure; later calls keep the first.
func (p *Partition) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.perr == nil {
		p.perr = err
	}
	p.mu.Unlock()
}

// Err returns the sticky storage failure, if any: a WAL write that
// could not be made durable, or a failed flush/compaction.
func (p *Partition) Err() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.perr != nil {
		return p.perr
	}
	return p.wal.Err()
}

// Upsert inserts or replaces the record under key: a batch of one.
func (p *Partition) Upsert(key, rec adm.Value) error {
	one := [1]index.Item{{Key: key, Val: rec}}
	_, err := p.write(writeUpsert, encodeBatch(one[:]), 1, nil)
	return err
}

// Insert stores the record, failing if the key already exists. This is
// the INSERT (vs UPSERT) DML semantic. A rejected insert logs nothing, so
// replay cannot apply it and the epoch does not move.
func (p *Partition) Insert(key, rec adm.Value) error {
	one := [1]index.Item{{Key: key, Val: rec}}
	_, err := p.write(writeInsert, encodeBatch(one[:]), 1, nil)
	return err
}

// Delete removes the key by writing a tombstone (a batch of one whose
// record is MISSING). It reports whether a live record was visible
// before the delete.
func (p *Partition) Delete(key adm.Value) (existed bool, err error) {
	one := [1]index.Item{{Key: key, Val: adm.Missing()}}
	return p.write(writeDelete, encodeBatch(one[:]), 1, nil)
}

// batchPool recycles the batches storage holds a batch in — a write's
// memtable entries (entryBatches), a batch grouped for a partition and
// the batches a secondary index is maintained with (itemBatches) — so a
// steady frame stream reuses its buffers instead of allocating per
// frame. It holds *[]E boxes; callers keep the box across their get/put
// pair so pooling itself never allocates.
type batchPool[E any] struct{ pool sync.Pool }

var (
	entryBatches batchPool[entry]
	itemBatches  batchPool[index.Item]
)

func (bp *batchPool[E]) get(capacity int) *[]E {
	if v := bp.pool.Get(); v != nil {
		b := v.(*[]E)
		*b = (*b)[:0]
		if cap(*b) < capacity {
			*b = make([]E, 0, capacity)
		}
		return b
	}
	b := new([]E)
	*b = make([]E, 0, capacity)
	return b
}

// put recycles a batch scratch box. The box's slice must be at its
// written high-water length: only that prefix is cleared (the pool's
// invariant is that everything beyond it is already zero), which keeps
// the per-frame clear proportional to the frame instead of the pooled
// capacity.
func (bp *batchPool[E]) put(b *[]E) {
	clear(*b) // don't pin record payloads from the pool
	*b = (*b)[:0]
	bp.pool.Put(b)
}

// UpsertBatch inserts or replaces a whole frame's records — keys[i]
// owns recs[i] — as one storage operation: one WAL append and commit,
// one partition lock acquisition, one sort of the batch, one bulk
// memtable insert (Tree.PutBatch), one old-value lookup pass with
// grouped per-index delete/insert batches, and one flush-threshold
// check. Duplicate keys within the batch collapse to the last
// occurrence; a MISSING record is a tombstone. The caller keeps
// ownership of the keys/recs slices and of the records: storage keeps
// its own copy of their encodings (encodeBatch).
//
// The batch is WAL-framed as one record (encoded in original order —
// replay applies sequentially, so last-wins dedupe is reproduced) and
// the call returns after one group commit; the error is that commit's
// result.
func (p *Partition) UpsertBatch(keys, recs []adm.Value) error {
	batch := itemBatches.get(len(keys))
	for i, key := range keys {
		*batch = append(*batch, index.Item{Key: key, Val: recs[i]})
	}
	enc := encodeBatch(*batch)
	itemBatches.put(batch)
	_, err := p.write(writeUpsert, enc, len(keys), nil)
	return err
}

// encodeBatch lays items out as a write's log payload — key, record,
// key, record, … — in a buffer sized exactly. A record that arrives as a
// view is copied in, so nothing the caller read it from stays reachable.
func encodeBatch(items []index.Item) []byte {
	size := 0
	for _, it := range items {
		size += adm.BinarySize(it.Key) + adm.BinarySize(it.Val)
	}
	enc := make([]byte, 0, size)
	for _, it := range items {
		enc = adm.AppendBinary(enc, it.Key)
		enc = adm.AppendBinary(enc, it.Val)
	}
	return enc
}

// decodeBatch appends the entries of enc, a write's log payload, to
// entries in log order: each key and record is sliced out of enc where
// it lies, its extent and validity SkipBinary's verdict, and nothing is
// decoded. It is the one reader of that layout — write builds a batch's
// memtable entries with it before the batch is logged, and WAL replay
// every logged batch's — so a batch the write path accepts is one
// recovery reads back. enc that is not exactly whole entries, or holds
// a value SkipBinary refuses (one nested deeper than adm.MaxDepth, say),
// is an error.
func decodeBatch(entries []entry, enc []byte) ([]entry, error) {
	for off := 0; off < len(enc); {
		kn, err := adm.SkipBinary(enc[off:])
		if err != nil {
			return entries, fmt.Errorf("key at offset %d: %w", off, err)
		}
		vn, err := adm.SkipBinary(enc[off+kn:])
		if err != nil {
			return entries, fmt.Errorf("record at offset %d: %w", off+kn, err)
		}
		entries = append(entries, entry{Key: stringOf(enc[off : off+kn]), Val: stringOf(enc[off+kn : off+kn+vn])})
		off += kn + vn
	}
	return entries, nil
}

// writeMode selects the pre-check and the apply target of one write.
type writeMode uint8

const (
	writeUpsert     writeMode = iota // insert or replace the batch
	writeFrame                       // writeUpsert of a routed frame's slab, which the memtable records (slabs.go)
	writeInsert                      // one record; a live duplicate fails the write
	writeDelete                      // one tombstone; reports whether a live record was visible
	writeCheckpoint                  // one feed-resume entry, applied to ckpts instead of the memtable
)

// memItemOverhead is what the memtable is charged per entry on top of
// the entry's encoded bytes: the tree entry that points at them, two
// string headers.
const memItemOverhead = int(unsafe.Sizeof(entry{}))

// write is the partition's one mutation sequence; every public mutator
// is a thin caller, handing it the batch as the bytes the WAL will log
// (enc: key, record, key, record, …). Outside the lock the batch's
// memtable entries are sliced from enc (decodeBatch), so an enc
// SkipBinary refuses — a value nested deeper than adm.MaxDepth included
// — is refused here, before anything is appended, or recovery could not
// read the log back; owns, when set, then vets every key. hint is how
// many entries enc holds when the caller knows (0 when not): it sizes
// the entry scratch, which otherwise grows as enc is read. The entries
// are enc's own bytes, which is also what a flush copies into its run
// file and what recovery rebuilds over the log's own bytes; the
// memtable is charged enc's capacity, since it keeps all of enc alive.
// Under p.mu: a closed partition or a failed pre-check returns before
// anything is logged; otherwise the batch is appended to the WAL and
// applied — in that order under the same lock, which is the invariant
// that makes recovery exact: LSNs are assigned in memtable apply order,
// so a freeze's LSN watermark covers precisely the entries in the frozen
// tree. After the unlock comes one group commit, whose error is the
// write's error and is recorded stickily (the in-memory state is ahead
// of the log at that point, but so is a crashed process; recovery
// replays only what was acknowledged).
func (p *Partition) write(mode writeMode, enc []byte, hint int, owns func(key adm.Value) error) (existed bool, err error) {
	batch := entryBatches.get(hint)
	entries, err := decodeBatch(*batch, enc)
	n := len(entries)
	if err != nil {
		err = fmt.Errorf("lsm: write refused: %w", err)
	}
	for i := 0; err == nil && owns != nil && i < n; i++ {
		err = owns(keyOf(entries[i]))
	}
	if err != nil || n == 0 {
		*batch = entries // the high-water length, for the pool's clear
		entryBatches.put(batch)
		return false, err
	}
	held := n*memItemOverhead + cap(enc)
	entries = sortBatch(entries)
	p.mu.Lock()
	switch {
	case p.closed:
		err = errClosed
	case mode == writeInsert || mode == writeDelete:
		// A read fault fails the write: it must not pass for an absent key.
		kp := getProbe(bytesOf(entries[0].Key))
		if _, existed, err = p.getLocked(kp); existed && mode == writeInsert {
			err = fmt.Errorf("lsm: duplicate key %s", keyOf(entries[0]))
		}
		putProbe(kp)
	}
	if err == nil {
		p.wal.appendEncoded(enc, n)
		switch mode {
		case writeCheckpoint:
			scope, _ := checkpointScope(keyOf(entries[0]))
			p.raiseCheckpointLocked(scope, uint64(recOf(entries[0]).IntVal()))
		case writeDelete:
			p.stats.Deletes++
			p.applyBatchLocked(entries, held)
		default:
			p.stats.Upserts += uint64(n)
			if mode == writeFrame {
				p.keepSlabLocked(enc)
			}
			p.applyBatchLocked(entries, held)
		}
	}
	p.mu.Unlock()
	*batch = entries[:n] // restore the written length for the clear
	entryBatches.put(batch)
	if err != nil {
		return existed, err
	}
	if err = p.wal.Commit(); err != nil {
		p.fail(err)
	}
	return existed, err
}

var errClosed = errors.New("lsm: partition closed")

// sortBatch orders a batch's memtable entries ascending by key, with
// duplicate keys collapsed to the last occurrence.
func sortBatch(entries []entry) []entry {
	// Frames from ordered sources often arrive already sorted; a linear
	// pre-check skips the sort (and the dedupe, since strictly
	// ascending keys cannot repeat).
	sorted := true
	for i := 1; i < len(entries); i++ {
		if compareKeys(entries[i-1].Key, entries[i].Key) >= 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortStableFunc(entries, func(a, b entry) int {
			return compareKeys(a.Key, b.Key)
		})
		w := 0
		for i := range entries {
			if i+1 < len(entries) && compareKeys(entries[i].Key, entries[i+1].Key) == 0 {
				continue // a later occurrence of the same key wins
			}
			entries[w] = entries[i]
			w++
		}
		entries = entries[:w]
	}
	return entries
}

// applyBatchLocked bulk-inserts the sorted, unique-keyed run into the
// memtable, maintains secondary indexes with grouped batches, charges
// the memtable the held bytes the batch brings, and checks the flush
// threshold once for the whole batch.
func (p *Partition) applyBatchLocked(entries []entry, held int) {
	if len(p.secondary) > 0 {
		p.maintainIndexesBatchLocked(entries)
	}
	p.mem.PutBatch(entries, nil)
	p.memBytes += held
	if p.memBytes >= p.opts.MemBudget {
		p.freezeLocked()
	}
}

// maintainIndexesBatchLocked performs one old-value lookup pass over
// the batch, then hands each secondary index a grouped delete batch
// (old entries being replaced) and a grouped insert batch (new live
// records) — two lock acquisitions per index per frame instead of two
// per record. Both are item batches (primary key, record) from the
// write path's pool.
func (p *Partition) maintainIndexesBatchLocked(entries []entry) {
	olds, news := itemBatches.get(len(entries)), itemBatches.get(len(entries))
	kp := getProbe(nil)
	for _, e := range entries {
		key, rec := keyOf(e), recOf(e)
		// The batch is logged already, so a read fault cannot fail it: the
		// old entry stays indexed.
		kp.at(bytesOf(e.Key))
		if old, ok, _ := p.getLocked(kp); ok {
			*olds = append(*olds, index.Item{Key: key, Val: old})
		}
		if !rec.IsMissing() {
			*news = append(*news, index.Item{Key: key, Val: rec})
		}
	}
	putProbe(kp)
	for _, idx := range p.secondary {
		idx.DeleteBatch(*olds)
	}
	for _, idx := range p.secondary {
		idx.InsertBatch(*news)
	}
	itemBatches.put(olds)
	itemBatches.put(news)
}

// freezeLocked turns the memtable into an immutable component and wakes
// the flusher to write it out. The tree itself is detached as the
// component (no entry copy): writers get a fresh memtable and the frozen
// tree is never mutated again, so snapshots and scans can walk it
// concurrently via its cursors.
func (p *Partition) freezeLocked() {
	if p.mem.Len() == 0 {
		return
	}
	p.stats.Flushes++
	// The watermark is exact because every WAL append happens under the
	// partition lock we hold: the frozen tree contains precisely the
	// effects of LSNs <= upToLSN not already in older components.
	c := &component{tree: p.mem, slabs: p.slabs, upToLSN: p.wal.LSN()}
	p.components = append([]*component{c}, p.components...)
	p.mem, p.slabs = p.newMemtable(), nil
	p.memBytes = 0
	p.signalFlushLocked()
}

// getLocked performs a point lookup of the probe's key across memtable
// and components, newest first.
func (p *Partition) getLocked(kp *pointProbe) (adm.Value, bool, error) {
	if v, ok := memGet(p.mem, kp); ok {
		if v.IsMissing() {
			return adm.Value{}, false, nil
		}
		return v, true, nil
	}
	return lookupComponents(p.components, kp, nil)
}

// lookupComponents point-looks-up the probe's key across components
// newest first, mapping tombstones to not-found. A run whose block
// cannot be read ends the lookup with the read error: the key's newest
// version may be in that block, so no older component may answer for
// it. Every component is searched with the key's one encoding, and the
// probe computes its bloom hash at most once per lookup (and not at all
// when fences reject every run). l, when non-nil, is where a run may
// leave the pin of the record's block (runFile.get); a tombstone's is
// released.
func lookupComponents(comps []*component, kp *pointProbe, l *Leases) (v adm.Value, found bool, err error) {
	held := 0
	if l != nil {
		held = len(l.left)
	}
	for _, c := range comps {
		if c.run != nil {
			v, found, err = c.run.get(kp, l)
		} else {
			v, found = memGet(c.tree, kp)
		}
		if err != nil || found {
			break
		}
	}
	if !found || v.IsMissing() {
		if l != nil {
			l.releaseFrom(held)
		}
		return adm.Value{}, false, err
	}
	return v, true, nil
}

// Get returns the live record stored under key, or the read fault that
// kept the lookup from knowing it. The record may be a view of the
// memtable or a frozen tree, so their slabs escape.
func (p *Partition) Get(key adm.Value) (adm.Value, bool, error) {
	p.renv.ctr.gets.Add(1)
	kp := encodeProbe(key)
	p.mu.RLock()
	p.escapeTreesLocked()
	v, ok, err := p.getLocked(kp)
	p.mu.RUnlock()
	putProbe(kp)
	return v, ok, err
}

// Epoch returns the partition's mutation epoch: the WAL's last assigned
// LSN. Every upsert, insert, delete and checkpoint bumps it under the
// partition lock before its effect is visible or acknowledged; nothing
// else does. Flushes and compactions rewrite components without
// changing what a reader sees, and another reader's Snapshot only
// freezes the memtable, so neither moves the epoch.
//
// A reader that caches state derived from a Snapshot reads the epoch
// BEFORE taking the snapshot and keeps both. While a later Epoch call
// still returns that value no write has been logged since, so the
// snapshot holds exactly the data a fresh one would. A write racing
// the two reads lands in the snapshot but not in the stamp: the next
// comparison fails and the reader rebuilds needlessly — never the
// other way round.
func (p *Partition) Epoch() uint64 { return p.wal.LSN() }

// Snapshot freezes the current memtable (if non-empty) and returns a
// stable view over the partition's immutable components. The view is
// the paper's consistency rule for a computing job: it sees every
// update acknowledged before it was taken, and later updates are picked
// up by a later snapshot. A predeployed feed keeps the snapshots of its
// reference datasets across invocations and takes new ones only once
// Epoch has moved (see Epoch for the ordering that makes that safe), so
// a quiescent reference dataset is frozen and scanned once, not once
// per batch.
//
// Every frozen tree the snapshot reaches escapes (frameSlabs): its
// readers may keep views of it.
//
// The snapshot holds one reference on every run file it can reach, so a
// run that compaction replaces stays readable for as long as the
// snapshot is. There is no release call: the references drop when the
// garbage collector finds the *Snapshot unreachable — the rule a frozen
// tree component already lives by.
func (p *Partition) Snapshot() *Snapshot {
	p.mu.Lock()
	p.stats.Scans++
	p.freezeLocked()
	comps := slices.Clone(p.components)
	holdsRuns := false
	for _, c := range comps {
		if c.run == nil {
			c.slabs.escape()
			continue
		}
		// Under p.mu the partition still owns the run, so it is open.
		c.run.incRef()
		holdsRuns = true
	}
	p.mu.Unlock()
	s := &Snapshot{components: comps}
	if holdsRuns {
		runtime.AddCleanup(s, dropRunRefs, comps)
	}
	return s
}

// dropRunRefs drops the run references a collected Snapshot held.
func dropRunRefs(comps []*component) {
	for _, c := range comps {
		if c.run != nil {
			c.run.decRef()
		}
	}
}

// Stats returns a copy of the activity counters.
func (p *Partition) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := p.stats
	ctr := p.renv.ctr
	s.Gets = ctr.gets.Load()
	s.FenceSkips = ctr.fenceSkips.Load()
	s.BloomSkips = ctr.bloomSkips.Load()
	s.BlockReads = ctr.blockReads.Load()
	s.OpenRunFiles = int(ctr.openRuns.Load())
	s.Components = len(p.components)
	s.MemEntries = p.mem.Len()
	s.RecycledSlabs, s.FreshSlabs = p.free.counts()
	return s
}

// Snapshot is an immutable view of a partition at a point in time. Its
// methods end in runtime.KeepAlive: the collector may otherwise find the
// receiver dead once its fields are loaded and drop the run references
// under a read in progress.
type Snapshot struct {
	components []*component // newest first
}

// Get performs a point lookup in the snapshot: a record read from a run
// is a copy. A block that cannot be read fails the lookup with its read
// error, never answers not-found.
func (s *Snapshot) Get(key adm.Value) (adm.Value, bool, error) { return s.GetLeased(key, nil) }

// GetLeased is Get for a reader that keeps the record only while it
// reads it: a record read from a run is a view of its block, whose pin
// l keeps until l.Release.
func (s *Snapshot) GetLeased(key adm.Value, l *Leases) (adm.Value, bool, error) {
	return s.getEncoded(encodeProbe(key), l)
}

// GetEncodedLeased is GetLeased for a key given as its encoding — bytes
// SkipBinary accepted, which the caller keeps unchanged during the call
// (a field read off a record, adm.Value.FieldEncoding) — probed as it
// lies, so nothing encodes the key again.
func (s *Snapshot) GetEncodedLeased(enc []byte, l *Leases) (adm.Value, bool, error) {
	return s.getEncoded(getProbe(enc), l)
}

// getEncoded is the one body of a snapshot's point lookup: Get for the
// encoded key kp probes, a pooled probe it puts back — a key encoded
// once (encodeProbe), or an index scan's primary key, an encoding looked
// up as it is (getProbe). l, when non-nil, may keep the pin of the
// block the record lies in (runFile.get).
func (s *Snapshot) getEncoded(kp *pointProbe, l *Leases) (adm.Value, bool, error) {
	v, ok, err := lookupComponents(s.components, kp, l)
	putProbe(kp)
	runtime.KeepAlive(s)
	return v, ok, err
}

// Scan visits every live record in primary-key order until fn returns
// false, through a Cursor: a row fn is handed is valid until fn returns,
// so fn copies (adm.Value.Detached) what it keeps. It returns the read
// fault (I/O, CRC) that ended the scan early, if one did, so a partial
// scan never passes for a complete one.
func (s *Snapshot) Scan(fn func(key, rec adm.Value) bool) error {
	cu := s.Cursor()
	for key, rec, ok := cu.Next(); ok; key, rec, ok = cu.Next() {
		if !fn(key, rec) {
			cu.Close()
			return nil
		}
	}
	return cu.Err()
}

// Cursor returns a pull iterator over the snapshot's live records in
// primary-key order. Unlike Scan it hands control to the caller between
// records, so a consumer (e.g. a LIMIT-k query) can stop after k pulls
// having touched only the prefix it asked for. The cursor allocates
// O(components), never O(records), and keeps the snapshot reachable —
// and so its run files open — until it is drained or closed.
func (s *Snapshot) Cursor() *Cursor {
	cu := new(Cursor)
	cu.open(s, s.components, true)
	return cu
}

// Leases holds pins on blocks whose rows a reader still reads: those of
// the blocks a cursor's run cursors have left (left), or the one entry
// the record of a leased point read lies in (Snapshot.GetLeased; an
// index scan keeps its last row's this way, IndexScanCursor).
type Leases struct {
	left []*blockEntry
}

// Holds reports whether l holds a pin: whether a record a leased point
// read returned lies in a pinned block.
func (l *Leases) Holds() bool { return len(l.left) > 0 }

// Release ends the pins l holds: the rows of their blocks may be
// rewritten from then on.
func (l *Leases) Release() { l.releaseFrom(0) }

// releaseFrom ends the pins l took after its first n.
func (l *Leases) releaseFrom(n int) {
	for _, e := range l.left[n:] {
		e.release()
	}
	clear(l.left[n:])
	l.left = l.left[:n]
}

// Cursor streams a snapshot's live records. Its run cursors pin the
// blocks they read and hand the pins of the blocks they leave to leases.
// A run block it cannot read (I/O, CRC) ends it: Next reports ok=false
// as at the end, and Err tells the two apart.
type Cursor struct {
	snap      *Snapshot // what keeps the runs under m open
	m         mergeCursor[*runCursor]
	leases    Leases
	transient bool // the last entry lies in a pinned block
	err       error
}

// open starts cu merging comps, which snap keeps open (nil: their
// partition's lock does).
func (cu *Cursor) open(snap *Snapshot, comps []*component, dropTombstones bool) {
	cu.snap, cu.m = snap, mergeComponentCursors(comps, dropTombstones, &cu.leases)
}

// Next returns the next live record in key order: the record a view of
// the bytes it lies in, and the key built once from its encoding, both
// made with adm.ViewAlias, so a scan allocates neither a key nor a
// string it reads. A row read from a run is valid until the next Next
// or Close, which release the pins of the blocks the cursor has left:
// a reader copies (adm.Value.Detached) what it keeps of a row Transient
// reports.
func (cu *Cursor) Next() (key, rec adm.Value, ok bool) {
	k, r, ok := cu.nextEncoded()
	cu.leases.Release()
	if !ok {
		return adm.Value{}, adm.Value{}, false
	}
	return adm.ViewAlias(k), adm.ViewAlias(r), true
}

// nextEncoded is Next's entry as the encodings of its key and record,
// releasing nothing: the pins of the blocks the cursor leaves stay on
// its Leases for the caller to release (AttachIndex, a parallel
// scan's worker).
func (cu *Cursor) nextEncoded() (key, rec []byte, ok bool) {
	rc, ok, err := cu.m.next()
	if !ok {
		if err != nil {
			cu.err = err
		}
		cu.leave()
		cu.snap, cu.m = nil, mergeCursor[*runCursor]{}
		return nil, nil, false
	}
	cu.transient = rc.fc != nil && rc.fc.lease != nil
	runtime.KeepAlive(cu) // see Snapshot: cu.snap must outlive the read
	return rc.key, rc.val, true
}

// Transient reports whether the row Next last returned lies in a pinned
// block, whose bytes may be rewritten once the cursor's next Next or
// Close releases it. A memtable row never does.
func (cu *Cursor) Transient() bool { return cu.transient }

// Err returns the read fault that ended the cursor early, or nil.
func (cu *Cursor) Err() error { return cu.err }

// Close stops the cursor — Next reports exhaustion from then on —
// releases the pins it holds and lets go of the snapshot. A cursor holds
// nothing else, so one that is simply dropped leaks nothing (a dropped
// pin only keeps its block from being recycled).
func (cu *Cursor) Close() {
	cu.leave()
	cu.leases.Release()
	cu.snap, cu.m = nil, mergeCursor[*runCursor]{}
}

// leave hands the pins of the blocks the run cursors stand on to the
// cursor's Leases, which its owner then releases.
func (cu *Cursor) leave() {
	for _, in := range cu.m.inputs {
		if in.fc != nil {
			in.fc.leave()
		}
	}
	cu.transient = false
}

// Changes returns a cursor over every key written after the mutation
// epoch since (a stamp read from Epoch before some earlier snapshot was
// taken), each with its newest version in s — a MISSING record for a
// delete — in key order. It merges the snapshot's leading components
// whose upToLSN is past since: components are newest first and their
// watermarks only fall along the slice, and a write with LSN > since
// lives in a component whose watermark is at least that LSN, so those
// components hold every such write. They may hold older writes too (a
// compaction of newer and older runs; a write that raced the earlier
// stamp and is in the earlier snapshot already): those are yielded as
// well, at the version s holds, so re-applying them is idempotent.
//
// ok is false when those components include the snapshot's oldest. Only
// a compaction whose window reaches the oldest run drops tombstones, so
// below the oldest component a delete after since still has its
// tombstone in s; once the window includes the oldest, a delete could
// have vanished with the version it removed, and the caller must read
// s whole instead.
func (s *Snapshot) Changes(since uint64) (cc *ChangeCursor, ok bool) {
	n := 0
	for n < len(s.components) && s.components[n].upToLSN > since {
		n++
	}
	if n > 0 && n == len(s.components) {
		return nil, false
	}
	cc = new(ChangeCursor)
	cc.open(s, s.components[:n], false)
	return cc, true
}

// ChangeCursor streams what Snapshot.Changes selected: Next yields
// tombstones too, as MISSING records. Like any Cursor it ends early on a
// block it cannot read, and Err reports the fault.
type ChangeCursor struct{ Cursor }

// Len counts live records in the snapshot. A run that cannot be read
// fails the count with its read fault.
func (s *Snapshot) Len() (int, error) {
	n := 0
	err := s.Scan(func(adm.Value, adm.Value) bool { n++; return true })
	return n, err
}

// mergeInput is one sorted input of a k-way merge, yielding entries as
// their encoded bytes: a component cursor (reads: a memtable's entries
// or a run's) or a run reader that loads around the block cache
// (compaction).
type mergeInput interface {
	// advance steps onto the input's next entry and reports its encoded
	// key and whether it is a tombstone; the input exposes the entry
	// itself. ok=false means exhausted, or failed when err says why; a
	// failed input keeps returning its err.
	advance() (key []byte, tombstone, ok bool, err error)
}

// mergeCursor is an incremental k-way merge over sorted inputs, newest
// first: the newest (lowest-index) version of each key wins, older
// versions are skipped, tombstones are optionally dropped. It is the
// single statement of that rule — under Snapshot.Scan, Snapshot.Cursor
// and run-file compaction alike — and orders encoded keys as the
// memtable does (adm.CompareEncoded), so it decodes none.
type mergeCursor[I mergeInput] struct {
	inputs         []I
	heads          []mergeHead
	dropTombstones bool
}

// mergeHead is the merge's view of one input's current entry.
type mergeHead struct {
	key       []byte
	tombstone bool
	live      bool
	// fresh marks a head the merge has not moved past yet. Once it has,
	// the input advances on the next call, not at once, so the entry a
	// caller was handed stays readable until then.
	fresh bool
}

func newMergeCursor[I mergeInput](inputs []I, dropTombstones bool) mergeCursor[I] {
	return mergeCursor[I]{
		inputs:         inputs,
		heads:          make([]mergeHead, len(inputs)),
		dropTombstones: dropTombstones,
	}
}

// mergeComponentCursors opens a merge over the components' cursors,
// whose runs hand the pins of the blocks they leave to l.
func mergeComponentCursors(comps []*component, dropTombstones bool, l *Leases) mergeCursor[*runCursor] {
	cursors := make([]runCursor, len(comps))
	inputs := make([]*runCursor, len(comps))
	for i, c := range comps {
		cursors[i] = c.cursor(l)
		inputs[i] = &cursors[i]
	}
	return newMergeCursor(inputs, dropTombstones)
}

// next returns the input standing on the next merged entry; the entry
// is valid until the following call. An input that fails ends the merge
// with its error: what it could not read may shadow any key to come.
func (m *mergeCursor[I]) next() (winner I, ok bool, err error) {
	for {
		// Lowest key wins; among equal keys the first (newest) input wins
		// because the scan takes the earliest index.
		best := -1
		for i := range m.heads {
			h := &m.heads[i]
			if !h.fresh {
				if h.key, h.tombstone, h.live, err = m.inputs[i].advance(); err != nil {
					return winner, false, err
				}
				h.fresh = true
			}
			if h.live && (best == -1 || adm.CompareEncoded(h.key, m.heads[best].key) < 0) {
				best = i
			}
		}
		if best == -1 {
			return winner, false, nil
		}
		// Every input holding this key moves on (shadowed versions are
		// consumed and dropped).
		for i := range m.heads {
			h := &m.heads[i]
			if h.live && (i == best || adm.CompareEncoded(h.key, m.heads[best].key) == 0) {
				h.fresh = false
			}
		}
		if m.heads[best].tombstone && m.dropTombstones {
			continue
		}
		return m.inputs[best], true, nil
	}
}
