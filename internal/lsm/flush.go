package lsm

import (
	"fmt"
	"time"
)

// Background flush and compaction.
//
// The partition's runs are the run-backed suffix of its components,
// newest first (runsLocked): the one run list. The flusher goroutine
// alone changes it, and every manifest is written from it (storeRuns),
// which gives the durability protocol a single serialization point:
//
//  1. flush: write the oldest frozen memtable as a run file (file
//     fsync + dir sync), store the manifest of the runs with it
//     (tmp + rename), swap the in-memory component for its run-backed
//     twin, then truncate WAL segments the manifest now covers;
//  2. compact: merge the newest size tier of runs into one, store the
//     manifest of the runs with the merged one in the tier's place,
//     replace the run suffix, delete the input files.
//
// A clean Close ends with the same two steps, run until nothing is
// frozen and no tier qualifies, then covers the whole log with the
// manifest (checkpoint) and deletes every WAL segment: the data rests
// in run files alone, and the next open replays nothing.
//
// Every step is ordered so that a crash between any two leaves a
// recoverable image: a run file not yet in the manifest is an orphan
// (deleted at open), a manifest lacking a just-written run still has
// the covering WAL tail (replayed at open), input runs are removed
// only after the manifest stopped referencing them, and a WAL segment
// only after the manifest covers every entry in it.

const (
	// compactionMinWidth is how many similar-sized adjacent runs it
	// takes to trigger a tiered compaction.
	compactionMinWidth = 4
	// compactionRatio bounds the size spread within one tier: a window
	// qualifies while max(bytes) <= ratio * min(bytes).
	compactionRatio = 4.0
)

func runFileName(seq uint64) string { return fmt.Sprintf("run-%06d.run", seq) }

// signalFlushLocked nudges the flusher; called with p.mu held (which is
// what makes the closed check race-free against Close).
func (p *Partition) signalFlushLocked() {
	if p.closed {
		return
	}
	select {
	case p.flushC <- struct{}{}:
	default: // a wake-up is already queued
	}
}

// flusher is the background goroutine started by OpenPartition.
func (p *Partition) flusher() {
	defer close(p.flusherDone)
	for range p.flushC {
		p.flushAndCompact()
	}
}

// flushAndCompact is one wake-up's work: drain flush work, then
// compact while a window qualifies. The first error of either stops
// that step and becomes the partition's sticky error.
func (p *Partition) flushAndCompact() {
	for _, step := range []func() (bool, error){p.flushOnce, p.compactOnce} {
		for {
			did, err := step()
			p.fail(err)
			if err != nil || !did {
				break
			}
		}
	}
}

// oldestFrozenLocked returns the oldest not-yet-persisted component.
// Flushes proceed oldest-first, so it sits just ahead of the runs.
func (p *Partition) oldestFrozenLocked() *component {
	if i := len(p.components) - len(p.runsLocked()); i > 0 {
		return p.components[i-1]
	}
	return nil
}

// runsLocked returns the partition's runs, newest first: the run-backed
// suffix of the components. It is the one run list; every manifest is
// written from it (storeRuns). Only the flusher changes it, under
// flushMu: a flush turns the component just ahead of it into a run, a
// compaction gives the partition a new slice. Neither writes inside a
// suffix already returned, so the flusher may keep one past p.mu.
func (p *Partition) runsLocked() []*component {
	i := len(p.components)
	for i > 0 && p.components[i-1].run != nil {
		i--
	}
	return p.components[i:]
}

// storeRuns stores the manifest of runs (newest first), the log covered
// up to flushed and the next run file sequence number, with the
// checkpoint table as it stands. Called with flushMu held.
func (p *Partition) storeRuns(runs []*component, flushed, nextSeq uint64) error {
	man := manifest{FlushedLSN: flushed, NextSeq: nextSeq, Checkpoints: p.checkpointsSnapshot()}
	for i := len(runs) - 1; i >= 0; i-- {
		man.Runs = append(man.Runs, runMetaFor(runs[i]))
	}
	if err := storeManifest(p.fs, p.dir, man); err != nil {
		return err
	}
	p.flushedLSN, p.nextSeq = flushed, nextSeq
	return nil
}

// liveMemtables is how many memtables' worth of slabs and tree nodes
// the free lists keep for a partition: the memtable filling while the
// last one flushes, and the next, frames in flight included.
const liveMemtables = 2

// flushOnce persists the oldest frozen component as a run file. It
// reports whether there was anything to flush.
func (p *Partition) flushOnce() (bool, error) {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()

	p.mu.RLock()
	c, runs := p.oldestFrozenLocked(), p.runsLocked()
	p.mu.RUnlock()
	if c == nil {
		return false, nil
	}
	// A batch is applied before its commit, so a frozen tree can hold one
	// whose commit failed: never acknowledged, it must not reach a run.
	// The log is made durable past the component first, and a log that
	// cannot be stops the flush.
	if err := p.wal.Commit(); err != nil {
		return false, fmt.Errorf("lsm: flush: %w", err)
	}

	// The component is immutable; write it without any partition lock.
	rf, err := writeRun(p.fs, p.dir, runFileName(p.nextSeq), p.renv, fillFromComponent(c))
	if err != nil {
		return false, fmt.Errorf("lsm: flush: %w", err)
	}
	flushed := &component{run: rf, upToLSN: c.upToLSN}
	// The checkpoint table is stored before the WAL truncation below can
	// drop the segments its entries live in. Including checkpoints newer
	// than the watermark is safe: a checkpoint is only written after the
	// records it covers were group-committed.
	if err := p.storeRuns(append([]*component{flushed}, runs...), c.upToLSN, p.nextSeq+1); err != nil {
		rf.close()
		return false, fmt.Errorf("lsm: flush: %w", err)
	}

	// Swap the frozen tree, still just ahead of the runs, for its
	// run-backed twin. The component pointer is replaced, never mutated:
	// snapshots that copied the old pointer keep reading the tree.
	// Once swapped, the tree is no reader's to see: whether one saw it
	// (frameSlabs) is settled, and if none did, its slabs and nodes go to
	// the free lists — but not on a closing partition, whose lists are
	// dropped. Both lists keep what liveMemtables memtables take.
	p.mu.Lock()
	p.components[len(p.components)-len(runs)-1] = flushed
	p.stats.FlushedRuns++
	recycle := c.slabs != nil && !c.slabs.escaped.Load() && !p.closed
	p.mu.Unlock()
	if recycle {
		p.free.put(c.slabs.slabs, liveMemtables*p.opts.MemBudget)
		c.tree.Release(liveMemtables)
	}

	// The manifest covers everything at or below the watermark; the WAL
	// segments wholly under it are dead. Truncation failure is not a
	// durability problem (just disk amplification), but it is still an
	// IO error worth surfacing.
	if err := p.wal.TruncateTo(c.upToLSN); err != nil {
		return false, fmt.Errorf("lsm: wal truncate: %w", err)
	}
	return true, nil
}

// checkpoint is a clean Close's flush, on a partition whose flusher has
// exited and which accepts no more writes: the memtable is frozen and
// flushed, compaction runs as the flusher's would after that flush, and
// the manifest is made to cover the whole log, so the caller may delete
// every WAL segment once it returns nil. A flush covers the log when the
// frozen tree held the whole tail; a tail of PutCheckpoint entries alone
// leaves an empty memtable, which freezeLocked skips, so then the
// manifest is stored here, with the checkpoint table and the log's last
// LSN as its watermark.
func (p *Partition) checkpoint() error {
	p.mu.Lock()
	p.freezeLocked()
	p.mu.Unlock()
	p.flushAndCompact()
	if err := p.Err(); err != nil {
		return err
	}
	if err := p.wal.Commit(); err != nil {
		return fmt.Errorf("lsm: checkpoint: %w", err)
	}
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	lsn := p.wal.LSN()
	if p.flushedLSN == lsn {
		return nil
	}
	p.mu.RLock()
	runs := p.runsLocked()
	p.mu.RUnlock()
	if err := p.storeRuns(runs, lsn, p.nextSeq); err != nil {
		return fmt.Errorf("lsm: checkpoint: %w", err)
	}
	return nil
}

// pickCompaction chooses how many of the newest runs (runs is newest
// first) to merge: the newest size tier — the longest run of newest
// runs whose sizes stay within compactionRatio of each other — if it is
// at least compactionMinWidth wide, and 0 otherwise. When the run count
// exceeds maxRuns every run merges regardless (the read-amplification
// backstop).
func pickCompaction(runs []*component, maxRuns int) int {
	n := len(runs)
	if n < 2 {
		return 0
	}
	if n > maxRuns {
		return n
	}
	w, maxB, minB := 1, runs[0].run.size, runs[0].run.size
	for ; w < n; w++ {
		b := runs[w].run.size
		nmax, nmin := max(maxB, b), min(minB, b)
		if float64(nmax) > compactionRatio*float64(max(nmin, 1)) {
			break
		}
		maxB, minB = nmax, nmin
	}
	if w >= compactionMinWidth {
		return w
	}
	return 0
}

// compactOnce merges the newest size tier of runs into a single run. It
// reports whether a compaction ran. A merge that fails — an input block
// that cannot be read, fails its checksum or does not parse — changes
// nothing: no output file, the manifest, the inputs and the components
// as they were.
func (p *Partition) compactOnce() (bool, error) {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()

	p.mu.RLock()
	runs := p.runsLocked()
	p.mu.RUnlock()
	w := pickCompaction(runs, p.opts.MaxComponents)
	if w == 0 {
		return false, nil
	}
	inputs := make([]*runFile, w)
	for i, c := range runs[:w] {
		inputs[i] = c.run
	}
	// Tombstones may only vanish when nothing older could be shadowed.
	rf, err := writeRun(p.fs, p.dir, runFileName(p.nextSeq), p.renv, fillFromRuns(inputs, w == len(runs)))
	if err != nil {
		return false, fmt.Errorf("lsm: compact: %w", err)
	}
	merged := append([]*component{{run: rf, upToLSN: runs[0].upToLSN}}, runs[w:]...)
	if err := p.storeRuns(merged, p.flushedLSN, p.nextSeq+1); err != nil {
		rf.close()
		return false, fmt.Errorf("lsm: compact: %w", err)
	}

	// Replace the run suffix; newer memory components may have been
	// prepended in the meantime, which does not move it. The new slice
	// leaves runs, and the snapshots' copies, as they were.
	p.mu.Lock()
	for _, in := range inputs {
		// Point lookups hold p.mu (we hold it exclusively); a snapshot
		// that reaches the run keeps its own reference. Drop the owner's,
		// so the file closes with the last of them.
		in.retire()
	}
	k := len(p.components) - len(runs)
	p.components = append(p.components[:k:k], merged...)
	p.stats.Merges++
	p.mu.Unlock()

	// The manifest no longer references the inputs; a live snapshot's
	// open handles keep reading the unlinked files.
	for _, in := range inputs {
		if err := p.fs.Remove(joinPath(p.dir, in.name)); err != nil {
			return false, fmt.Errorf("lsm: compact: %w", err)
		}
	}
	return true, nil
}

// Flush freezes the current memtable (if non-empty) and signals the
// flusher.
func (p *Partition) Flush() {
	p.mu.Lock()
	p.freezeLocked()
	p.mu.Unlock()
}

// WaitForFlush blocks until every frozen component has been persisted
// as a run file (or a storage error stops progress). Tests and
// benchmarks use it to observe flush throughput.
func (p *Partition) WaitForFlush() error {
	for {
		if err := p.Err(); err != nil {
			return err
		}
		p.mu.RLock()
		frozen := p.oldestFrozenLocked() != nil
		p.mu.RUnlock()
		if !frozen {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Runs reports how many run files back the partition.
func (p *Partition) Runs() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.runsLocked())
}
