package lsm

import (
	"errors"
	"fmt"
	"sync"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
)

// Dataset is a hash-partitioned collection of records of one datatype,
// the storage-side object behind CREATE DATASET. Records route to a
// partition by the hash of their primary key; each partition keeps its
// own LSM structure and local secondary indexes — the AsterixDB layout.
type Dataset struct {
	name       string
	datatype   *adm.Datatype
	primaryKey string
	partitions []*Partition

	mu      sync.RWMutex
	indexes []indexSpec // in creation order: the first declared over a field wins
}

type indexSpec struct {
	name         string
	field        string // indexed top-level field
	perPartition []SecondaryIndex
}

// OpenDataset opens (or creates) the dataset rooted at dir on fsys: one
// partition per storage node (in the simulated cluster), each in its own
// subdirectory (p000, p001, ...) with its own WAL, run files, and
// manifest. Reopening an existing directory recovers every partition
// (run files + WAL replay) before returning. The partition count must
// match the one the dataset was created with; it is not stored, the
// caller's catalog owns that.
func OpenDataset(fsys FS, dir, name string, dt *adm.Datatype, primaryKey string, numPartitions int, opts Options) (*Dataset, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("lsm: dataset %s: need at least one partition", name)
	}
	if primaryKey == "" {
		return nil, fmt.Errorf("lsm: dataset %s: primary key required", name)
	}
	ds := &Dataset{
		name:       name,
		datatype:   dt,
		primaryKey: primaryKey,
		partitions: make([]*Partition, numPartitions),
	}
	for i := range ds.partitions {
		p, err := OpenPartition(fsys, joinPath(dir, fmt.Sprintf("p%03d", i)), opts)
		if err != nil {
			for _, opened := range ds.partitions[:i] {
				opened.Close()
			}
			return nil, fmt.Errorf("lsm: dataset %s: %w", name, err)
		}
		ds.partitions[i] = p
	}
	return ds, nil
}

// Close shuts down every partition as a checkpoint (see
// Partition.Close): memtables flushed, logs deleted, run files closed.
func (d *Dataset) Close() error {
	var firstErr error
	for _, p := range d.partitions {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drop closes every partition and deletes its files (see
// Partition.Drop): DROP DATASET.
func (d *Dataset) Drop() error {
	var err error
	for _, p := range d.partitions {
		err = errors.Join(err, p.Drop())
	}
	return err
}

// Datatype returns the declared record type (may be nil for untyped
// internal datasets).
func (d *Dataset) Datatype() *adm.Datatype { return d.datatype }

// PrimaryKey returns the primary-key field name.
func (d *Dataset) PrimaryKey() string { return d.primaryKey }

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int { return len(d.partitions) }

// Partition returns storage partition i.
func (d *Dataset) Partition(i int) *Partition { return d.partitions[i] }

// Route returns the partition index that owns the primary key.
func (d *Dataset) Route(pk adm.Value) int {
	return int(adm.Hash(pk) % uint64(len(d.partitions)))
}

// UpsertFrame stores a routed frame in partition part: enc is its slab
// (hyracks.Frame.Enc), key, record, key, record, …, the write's log
// payload as it stands. The partition logs enc and its memtable keeps the
// records where they lie, charged enc's capacity, since it keeps the
// whole slab alive. Every key must be one Route sends to part: a slab
// holding any other key, or one that does not decode, is refused before
// anything is logged. The caller must not change enc afterwards, nor
// read it: once its memtable is flushed unread, the partition overwrites
// the slab and hands it to a later Slab.
func (d *Dataset) UpsertFrame(part int, enc []byte) error {
	_, err := d.partitions[part].write(writeFrame, enc, 0, func(key adm.Value) error {
		if owner := d.Route(key); owner != part {
			return fmt.Errorf("lsm: storage partition %d was sent key %v, which partition %d owns", part, key, owner)
		}
		return nil
	})
	return err
}

// Slab returns an empty slab of at least n bytes for a frame routed to
// partition t, of the one size all that partition's slabs have — the
// largest n asked for so far, rounded up to an allocator size class:
// the slab of a memtable that partition flushed unread when it has one,
// else a fresh one.
func (d *Dataset) Slab(t, n int) []byte { return d.partitions[t].slab(n) }

// PutCheckpoint records a feed-resume checkpoint on every partition
// (see Partition.PutCheckpoint), so losing any subset of partitions
// still leaves the full watermark recoverable from the survivors.
func (d *Dataset) PutCheckpoint(scope string, off uint64) error {
	for _, p := range d.partitions {
		if err := p.PutCheckpoint(scope, off); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint returns the highest durable checkpoint for scope across
// the partitions (0 = none). Max is correct because a checkpoint is
// written only after the records it covers are durable on every
// partition; a partition holding an older value just means more
// redelivery, which last-wins upsert absorbs.
func (d *Dataset) Checkpoint(scope string) uint64 {
	var best uint64
	for _, p := range d.partitions {
		if off := p.Checkpoint(scope); off > best {
			best = off
		}
	}
	return best
}

// KeyOf extracts the primary key from a record.
func (d *Dataset) KeyOf(rec adm.Value) (adm.Value, error) {
	pk := rec.Field(d.primaryKey)
	if pk.IsUnknown() {
		return adm.Value{}, fmt.Errorf("lsm: dataset %s: record missing primary key %q", d.name, d.primaryKey)
	}
	return pk, nil
}

// keyed is the step every write entry point runs before routing: it
// validates the record (when the dataset is typed) and extracts the
// primary key of the validated form.
func (d *Dataset) keyed(rec adm.Value) (pk, valid adm.Value, err error) {
	if d.datatype != nil {
		if rec, err = d.datatype.Validate(rec); err != nil {
			return pk, rec, err
		}
	}
	pk, err = d.KeyOf(rec)
	return pk, rec, err
}

// Upsert validates (when typed), routes, and stores the record; the
// error is the storage commit's.
func (d *Dataset) Upsert(rec adm.Value) error {
	pk, rec, err := d.keyed(rec)
	if err != nil {
		return err
	}
	return d.partitions[d.Route(pk)].Upsert(pk, rec)
}

// UpsertBatch validates, routes, and stores a whole batch of records,
// handing each touched partition one frame-granular write (one WAL
// append+commit, one lock, one bulk memtable insert) instead of a batch
// of one per record: the records are grouped per partition into pooled
// item batches, each encoded as its partition's log payload
// (encodeBatch). Validation runs for the entire batch before anything is
// written, so a bad record fails the batch without leaving a prefix
// behind. The caller keeps ownership of recs; storage keeps its own copy
// of their encodings.
func (d *Dataset) UpsertBatch(recs []adm.Value) error {
	if len(recs) == 0 {
		return nil
	}
	per := make([]*[]index.Item, len(d.partitions))
	// Return every drawn batch to the pool on all paths — including a
	// mid-batch validation error, which would otherwise leak the batches
	// drawn for partitions grouped so far.
	defer func() {
		for _, batch := range per {
			if batch != nil {
				itemBatches.put(batch)
			}
		}
	}()
	for _, rec := range recs {
		pk, rec, err := d.keyed(rec)
		if err != nil {
			return err
		}
		t := d.Route(pk)
		if per[t] == nil {
			per[t] = itemBatches.get(len(recs))
		}
		*per[t] = append(*per[t], index.Item{Key: pk, Val: rec})
	}
	var firstErr error
	for t, batch := range per {
		if batch == nil {
			continue
		}
		n, enc := len(*batch), encodeBatch(*batch)
		itemBatches.put(batch)
		per[t] = nil
		// Keep writing the remaining partitions even after one fails:
		// the batch has no cross-partition atomicity either way, and
		// stopping early would lose committed-elsewhere records' chance
		// to commit.
		if _, err := d.partitions[t].write(writeUpsert, enc, n, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Insert is Upsert with duplicate-key rejection.
func (d *Dataset) Insert(rec adm.Value) error {
	pk, rec, err := d.keyed(rec)
	if err != nil {
		return err
	}
	return d.partitions[d.Route(pk)].Insert(pk, rec)
}

// Delete removes the record with the given primary key and reports
// whether a live record was visible before the delete.
func (d *Dataset) Delete(pk adm.Value) (existed bool, err error) {
	return d.partitions[d.Route(pk)].Delete(pk)
}

// Get returns the live record with the given primary key. A read fault
// reads as not-found here; Partition.Get reports it.
func (d *Dataset) Get(pk adm.Value) (adm.Value, bool) {
	v, ok, _ := d.partitions[d.Route(pk)].Get(pk)
	return v, ok
}

// Epoch returns the per-partition mutation epochs (see Partition.Epoch).
// Two equal results from the same *Dataset mean no record was written
// or deleted in between. A dataset dropped and re-created under the
// same name is a different *Dataset whose epochs may coincide, so
// callers compare identity as well.
func (d *Dataset) Epoch() []uint64 {
	epoch := make([]uint64, len(d.partitions))
	for i, p := range d.partitions {
		epoch[i] = p.Epoch()
	}
	return epoch
}

// SnapshotAll captures one snapshot per partition (a consistent enough
// view for a computing-job invocation: record-level consistency, as the
// paper specifies).
func (d *Dataset) SnapshotAll() []*Snapshot {
	snaps := make([]*Snapshot, len(d.partitions))
	for i, p := range d.partitions {
		snaps[i] = p.Snapshot()
	}
	return snaps
}

// Scan returns a pull cursor over the dataset's live records (partition
// by partition, each partition in primary-key order). The cursor reads
// from a snapshot taken at call time and never copies the dataset into
// a slice: each pull walks the underlying memtable trees and sorted
// runs directly, so a consumer that stops after k records pays O(k),
// not O(dataset). This is the scan operator under the streaming query
// path.
func (d *Dataset) Scan() *ScanCursor {
	return NewScanCursor(d.SnapshotAll())
}

// NewScanCursor streams previously captured partition snapshots — the
// query engine builds cursors over its pinned snapshots so repeated
// scans inside one evaluation observe the same data (record-level
// consistency).
func NewScanCursor(snaps []*Snapshot) *ScanCursor {
	return &ScanCursor{snaps: snaps}
}

// ScanCursor streams a dataset's live records across partitions, one
// partition Cursor at a time, whose row rule it keeps: a row read from
// a run is valid until the next Next or Close (Transient). A partition
// cursor that stops on a read fault ends it, and Err reports the fault.
type ScanCursor struct {
	snaps []*Snapshot
	cur   *Cursor
	i     int
	err   error
}

// Next returns the next live record.
func (sc *ScanCursor) Next() (key, rec adm.Value, ok bool) {
	for {
		if sc.cur == nil {
			if sc.i >= len(sc.snaps) {
				return adm.Value{}, adm.Value{}, false
			}
			sc.cur = sc.snaps[sc.i].Cursor()
			sc.i++
		}
		if k, r, ok := sc.cur.Next(); ok {
			return k, r, true
		}
		if sc.err = sc.cur.Err(); sc.err != nil {
			sc.Close()
			return adm.Value{}, adm.Value{}, false
		}
		sc.cur = nil
	}
}

// Transient reports whether the row Next last returned lies in a pinned
// block (Cursor.Transient).
func (sc *ScanCursor) Transient() bool { return sc.cur != nil && sc.cur.Transient() }

// Err returns the read fault that ended the scan early, or nil.
func (sc *ScanCursor) Err() error { return sc.err }

// Close stops the cursor, releases the block it stands on and drops its
// snapshots: Next reports exhaustion from then on. Idempotent. A cursor
// holds nothing but memory, so one that is dropped unclosed leaks
// nothing.
func (sc *ScanCursor) Close() {
	if sc.cur != nil {
		sc.cur.Close()
	}
	sc.snaps, sc.cur, sc.i = nil, nil, 0
}

// Len counts live records across all partitions. A run that cannot be
// read fails the count with its read fault.
func (d *Dataset) Len() (int, error) {
	total := 0
	for _, p := range d.partitions {
		n, err := p.Snapshot().Len()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// CreateSpatialIndex attaches a spatial secondary index over a named
// point/rectangle/circle field (one local tree per partition,
// back-filled from existing records), recording the field so the
// enrichment planner can match predicates to it.
func (d *Dataset) CreateSpatialIndex(name, field string) error {
	return d.createIndex(name, field, func() SecondaryIndex {
		return NewRTreeIndex(name, FieldRectExtractor(field))
	})
}

// CreateFieldBTreeIndex attaches an ordered secondary index over a
// named top-level field, recording the field so the query planner can
// route WHERE predicates on it to an index range scan.
func (d *Dataset) CreateFieldBTreeIndex(name, field string) error {
	return d.createIndex(name, field, func() SecondaryIndex {
		return NewBTreeIndex(name, FieldKeyExtractor(field))
	})
}

func (d *Dataset) createIndex(name, field string, build func() SecondaryIndex) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, spec := range d.indexes {
		if spec.name == name {
			return fmt.Errorf("lsm: dataset %s: duplicate index %q", d.name, name)
		}
	}
	spec := indexSpec{name: name, field: field, perPartition: make([]SecondaryIndex, len(d.partitions))}
	for i, p := range d.partitions {
		spec.perPartition[i] = build()
		if err := p.AttachIndex(spec.perPartition[i]); err != nil {
			for j := range i {
				d.partitions[j].detachIndex(spec.perPartition[j])
			}
			return fmt.Errorf("lsm: dataset %s: index %q: %w", d.name, name, err)
		}
	}
	d.indexes = append(d.indexes, spec)
	return nil
}

// indexForField returns the name and per-partition instances of the
// first-declared index of concrete type T over the named field, or
// ("", nil) when none exists. Every instance of one spec has the same
// type, so the first decides.
func indexForField[T SecondaryIndex](d *Dataset, field string) (string, []T) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, spec := range d.indexes {
		if _, isT := spec.perPartition[0].(T); !isT || spec.field != field {
			continue
		}
		out := make([]T, len(spec.perPartition))
		for i, ix := range spec.perPartition {
			out[i] = ix.(T)
		}
		return spec.name, out
	}
	return "", nil
}

// RTreeIndexForField returns the per-partition spatial indexes declared
// over the named field, or nil when none exists. The enrichment planner
// uses this to choose index-NLJ over a per-batch R-tree build.
func (d *Dataset) RTreeIndexForField(field string) []*RTreeIndex {
	_, out := indexForField[*RTreeIndex](d, field)
	return out
}

// BTreeIndexForField returns the name and per-partition instances of an
// ordered index declared over the named field, or ("", nil) when none
// exists — the query planner's pushdown probe.
func (d *Dataset) BTreeIndexForField(field string) (string, []*BTreeIndex) {
	return indexForField[*BTreeIndex](d, field)
}

// Stats aggregates partition stats.
func (d *Dataset) Stats() Stats {
	var total Stats
	for _, p := range d.partitions {
		total.Add(p.Stats())
	}
	return total
}
