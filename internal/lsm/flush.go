package lsm

import (
	"fmt"
	"time"
)

// Background flush and compaction.
//
// The flusher goroutine owns every manifest write, which gives the
// durability protocol a single serialization point:
//
//  1. flush: write the oldest frozen memtable as a run file (file
//     fsync + dir sync), commit it into the manifest (tmp + rename),
//     swap the in-memory component for its run-backed twin, then
//     truncate WAL segments the manifest now covers;
//  2. compact: merge a size-tiered window of adjacent runs into one,
//     commit the replacement manifest, swap components, delete the
//     input files.
//
// A clean Close ends with the same two steps, run until nothing is
// frozen and no window qualifies, then covers the whole log with the
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
// Components are newest-first and flushes proceed oldest-first, so
// run-backed components always form the suffix of the slice.
func (p *Partition) oldestFrozenLocked() *component {
	for i := len(p.components) - 1; i >= 0; i-- {
		if p.components[i].run == nil {
			return p.components[i]
		}
	}
	return nil
}

// flushOnce persists the oldest frozen component as a run file. It
// reports whether there was anything to flush.
func (p *Partition) flushOnce() (bool, error) {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()

	p.mu.RLock()
	c := p.oldestFrozenLocked()
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
	seq := p.man.NextSeq
	name := runFileName(seq)
	rf, err := writeRun(p.fs, p.dir, name, p.renv, fillFromComponent(c))
	if err != nil {
		return false, fmt.Errorf("lsm: flush: %w", err)
	}

	man := p.man
	man.NextSeq = seq + 1
	man.FlushedLSN = c.upToLSN
	man.Runs = append(append([]runMeta(nil), man.Runs...), runMetaFor(name, c.upToLSN, rf))
	// Snapshot the checkpoint table before the WAL truncation below can
	// drop the segments the checkpoint entries live in. Including
	// checkpoints newer than FlushedLSN is safe: a checkpoint is only
	// written after the records it covers were group-committed.
	man.Checkpoints = p.checkpointsSnapshot()
	if err := storeManifest(p.fs, p.dir, man); err != nil {
		rf.close()
		return false, fmt.Errorf("lsm: flush: %w", err)
	}
	p.man = man

	// Swap the frozen tree for its run-backed twin. The component
	// pointer is replaced, never mutated: snapshots that copied the old
	// pointer keep reading the tree.
	p.mu.Lock()
	for i, pc := range p.components {
		if pc == c {
			p.components[i] = &component{run: rf, upToLSN: c.upToLSN}
			break
		}
	}
	p.stats.FlushedRuns++
	p.mu.Unlock()

	// The manifest covers everything at or below FlushedLSN; the WAL
	// segments wholly under it are dead. Truncation failure is not a
	// durability problem (just disk amplification), but it is still an
	// IO error worth surfacing.
	if err := p.wal.TruncateTo(man.FlushedLSN); err != nil {
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
	if p.man.FlushedLSN == lsn {
		return nil
	}
	man := p.man
	man.FlushedLSN = lsn
	man.Checkpoints = p.checkpointsSnapshot()
	if err := storeManifest(p.fs, p.dir, man); err != nil {
		return fmt.Errorf("lsm: checkpoint: %w", err)
	}
	p.man = man
	return nil
}

// pickCompaction chooses a window of adjacent runs to merge, on the
// oldest-first manifest order: the longest newest suffix whose sizes
// stay within compactionRatio of each other, if it is at least
// compactionMinWidth wide — plain size-tiering, newest tier first.
// When the run count exceeds maxRuns the whole level merges regardless
// (the read-amplification backstop).
func pickCompaction(runs []runMeta, maxRuns int) (lo, hi int, ok bool) {
	n := len(runs)
	if n < 2 {
		return 0, 0, false
	}
	if n > maxRuns {
		return 0, n, true
	}
	start := n - 1
	maxB, minB := runs[start].Bytes, runs[start].Bytes
	for i := n - 2; i >= 0; i-- {
		b := runs[i].Bytes
		nmax, nmin := max(maxB, b), min(minB, b)
		if float64(nmax) > compactionRatio*float64(max(nmin, 1)) {
			break
		}
		start, maxB, minB = i, nmax, nmin
	}
	if n-start >= compactionMinWidth {
		return start, n, true
	}
	return 0, 0, false
}

// compactOnce merges one size-tiered window of adjacent run files into
// a single run. It reports whether a compaction ran. A merge that fails
// — an input block that cannot be read, fails its checksum or does not
// parse — changes nothing: no output file, the manifest, the inputs and
// the components as they were.
func (p *Partition) compactOnce() (bool, error) {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()

	lo, hi, ok := pickCompaction(p.man.Runs, p.opts.MaxComponents)
	if !ok {
		return false, nil
	}

	// Map the manifest window (oldest first) onto the component slice
	// (newest first): run-backed components are its suffix, in reverse
	// manifest order.
	p.mu.RLock()
	firstRun := len(p.components)
	for firstRun > 0 && p.components[firstRun-1].run != nil {
		firstRun--
	}
	nRuns := len(p.components) - firstRun
	if nRuns != len(p.man.Runs) {
		p.mu.RUnlock()
		return false, fmt.Errorf("lsm: compact: %d run components vs %d manifest runs", nRuns, len(p.man.Runs))
	}
	// Manifest index i lives at component index len(components)-1-i.
	runs := make([]*runFile, 0, hi-lo)
	for i := hi - 1; i >= lo; i-- {
		runs = append(runs, p.components[len(p.components)-1-i].run)
	}
	p.mu.RUnlock()

	// Tombstones may only vanish when nothing older could be shadowed.
	dropTombstones := lo == 0
	seq := p.man.NextSeq
	name := runFileName(seq)
	rf, err := writeRun(p.fs, p.dir, name, p.renv, fillFromRuns(runs, dropTombstones))
	if err != nil {
		return false, fmt.Errorf("lsm: compact: %w", err)
	}

	man := p.man
	man.NextSeq = seq + 1
	merged := runMetaFor(name, man.Runs[hi-1].MaxLSN, rf)
	newRuns := make([]runMeta, 0, len(man.Runs)-(hi-lo)+1)
	newRuns = append(newRuns, man.Runs[:lo]...)
	newRuns = append(newRuns, merged)
	newRuns = append(newRuns, man.Runs[hi:]...)
	oldRuns := man.Runs[lo:hi]
	man.Runs = newRuns
	man.Checkpoints = p.checkpointsSnapshot()
	if err := storeManifest(p.fs, p.dir, man); err != nil {
		rf.close()
		return false, fmt.Errorf("lsm: compact: %w", err)
	}
	p.man = man

	// Splice the merged component in place of its inputs (they sit
	// contiguously; newer memory components may have been prepended in
	// the meantime, which does not move the suffix mapping).
	p.mu.Lock()
	loC := len(p.components) - hi // component index of manifest run hi-1
	hiC := len(p.components) - lo // one past manifest run lo
	for _, pc := range p.components[loC:hiC] {
		// Point lookups hold p.mu (we hold it exclusively); a snapshot
		// that reaches the run keeps its own reference. Drop the owner's,
		// so the file closes with the last of them.
		pc.run.retire()
	}
	spliced := make([]*component, 0, len(p.components)-(hi-lo)+1)
	spliced = append(spliced, p.components[:loC]...)
	spliced = append(spliced, &component{run: rf, upToLSN: merged.MaxLSN})
	spliced = append(spliced, p.components[hiC:]...)
	p.components = spliced
	p.stats.Merges++
	p.mu.Unlock()

	// The manifest no longer references the inputs; a live snapshot's
	// open handles keep reading the unlinked files.
	for _, rm := range oldRuns {
		if err := p.fs.Remove(joinPath(p.dir, rm.File)); err != nil {
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
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	return len(p.man.Runs)
}
