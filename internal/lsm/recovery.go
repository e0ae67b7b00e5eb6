package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

// OpenPartition opens (or creates) the partition rooted at dir on fsys —
// NewOSFS for one that outlives the process, a NewMemFS for one that
// lives in its memory; nothing else differs. Recovery runs before the
// partition accepts work:
//
//  1. load the manifest (absent = fresh partition; one no flush could
//     have written is refused, see manifest.check);
//  2. open the manifest's run files as the component suffix (newest
//     first);
//  3. delete orphans — run files and temp manifests the manifest does
//     not reference, left behind by a crash mid-flush or mid-compaction
//     — once every file it does reference has checked out;
//  4. replay the WAL tail — every entry past the manifest's flushed
//     watermark — into a fresh memtable, then freeze and flush it as the
//     flusher would (flushOnce), so an open partition starts quiescent:
//     empty memtable, the tail in an ordinary run, the log truncated.
//     Only a crash leaves a tail: a clean Close deletes the log once the
//     manifest covers it, so after one there is nothing to replay, the
//     empty log starts at the watermark, and the open writes nothing;
//  5. start the background flusher.
//
// A partition that crashed at any point — inside step 4's flush or
// Close's checkpoint included — reopens to exactly the state covered by
// acknowledged commits: run files hold LSNs <= FlushedLSN, the WAL holds
// the rest, and the one frame a crash may have torn is all-or-nothing
// by CRC framing.
func OpenPartition(fsys FS, dir string, opts Options) (*Partition, error) {
	if opts.MemBudget <= 0 {
		opts.MemBudget = DefaultOptions().MemBudget
	}
	if opts.MaxComponents <= 0 {
		opts.MaxComponents = DefaultOptions().MaxComponents
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	man, err := loadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	p := &Partition{
		opts:        opts,
		fs:          fsys,
		dir:         dir,
		flushedLSN:  man.FlushedLSN,
		nextSeq:     man.NextSeq,
		renv:        runEnv{cache: opts.BlockCache, ctr: new(counters), lz: new(frame.Encoder)},
		flushC:      make(chan struct{}, 1),
		flusherDone: make(chan struct{}),
	}
	p.mem = p.newMemtable()

	// Manifest runs are oldest first; components are newest first.
	for i := len(man.Runs) - 1; i >= 0; i-- {
		rm := man.Runs[i]
		rf, err := openRun(fsys, dir, rm.File, p.renv)
		if err != nil {
			p.closeRunsLocked()
			return nil, err
		}
		if err := checkFences(rm, rf); err != nil {
			rf.close()
			p.closeRunsLocked()
			return nil, err
		}
		p.components = append(p.components, &component{run: rf, upToLSN: rm.MaxLSN})
	}
	if err := removeOrphans(fsys, dir, man); err != nil {
		p.closeRunsLocked()
		return nil, err
	}

	wal, err := OpenWAL(fsys, dir, opts.WALSegBytes)
	if err != nil {
		p.closeRunsLocked()
		return nil, err
	}
	// Feed-resume checkpoints: the manifest snapshot first, then the WAL
	// tail may raise them further during replay below.
	for scope, off := range man.Checkpoints {
		p.raiseCheckpointLocked(scope, off)
	}

	// Replay applies straight to the fresh memtable: no locks are
	// needed (the partition is not yet published) and no re-logging
	// happens (the entries are already in the WAL). Each logged frame is
	// sliced and applied as the write that logged it was — sorted,
	// duplicate keys collapsed to the last, one PutBatch — its entries
	// the segment bytes replay read. Tombstones stay in the memtable as
	// MISSING so they shadow older runs. Checkpoint entries (reserved key
	// prefix) route to the checkpoint table instead of the memtable.
	err = wal.Replay(man.FlushedLSN, func(_ uint64, entries []entry) error {
		w := 0
		for _, e := range entries {
			if scope, ok := checkpointScope(keyOf(e)); ok {
				if off, ok := recOf(e).AsInt(); ok {
					p.raiseCheckpointLocked(scope, uint64(off))
				}
				continue
			}
			entries[w] = e
			w++
		}
		p.mem.PutBatch(sortBatch(entries[:w]), nil)
		return nil
	})
	if err != nil {
		p.closeRunsLocked()
		return nil, fmt.Errorf("lsm: recovery: %w", err)
	}
	p.wal = wal
	// The WAL position is final now, so the freeze's watermark is correct.
	// The wake-up it queues lets the flusher look for a compaction once it
	// starts.
	p.freezeLocked()
	if _, err := p.flushOnce(); err != nil {
		wal.Close()
		p.closeRunsLocked()
		return nil, fmt.Errorf("lsm: recovery: %w", err)
	}
	go p.flusher()
	return p, nil
}

// checkFences cross-checks the key-range fences the manifest recorded
// for a run against the run file's own, byte for byte: both are the
// encodings the run file holds. Every run with entries is recorded with
// its fences (runMetaFor), so one named without them is refused like one
// whose fences name other keys.
func checkFences(rm runMeta, rf *runFile) error {
	if len(rf.blocks) == 0 {
		return nil
	}
	if rm.FirstKey == nil || rm.LastKey == nil {
		return fmt.Errorf("lsm: run %s: manifest names a run of %d entries without its fences", rm.File, rf.entries)
	}
	if !bytes.Equal(rm.FirstKey, rf.firstKey) || !bytes.Equal(rm.LastKey, rf.lastKey) {
		return fmt.Errorf("lsm: run %s: manifest fences [%v, %v] do not match file fences [%v, %v]",
			rm.File, fenceText(rm.FirstKey), fenceText(rm.LastKey), adm.ViewAlias(rf.firstKey), adm.ViewAlias(rf.lastKey))
	}
	return nil
}

// fenceText renders a manifest's fence for an error: the key it
// encodes, or its bytes when they encode none.
func fenceText(b []byte) any {
	if n, err := adm.SkipBinary(b); err == nil && n == len(b) {
		return adm.ViewAlias(b)
	}
	return fmt.Sprintf("%x", b)
}

// removeOrphans deletes files in dir that neither the manifest nor the
// WAL owns: interrupted run writes and manifest temp files.
func removeOrphans(fsys FS, dir string, man manifest) error {
	names, err := fsys.List(dir)
	if err != nil {
		return err
	}
	referenced := make(map[string]bool, len(man.Runs))
	for _, rm := range man.Runs {
		referenced[rm.File] = true
	}
	for _, name := range names {
		if name == manifestName || referenced[name] {
			continue
		}
		if _, ok := parseWALSegmentName(name); ok {
			continue
		}
		if err := fsys.Remove(joinPath(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// closeRunsLocked force-closes every run-backed component's file,
// whatever references snapshots still hold on it. Only used
// on open failure and at Close (no lock is actually held in the
// open-failure path; the partition is unpublished).
func (p *Partition) closeRunsLocked() error {
	var err error
	for _, c := range p.components {
		if c.run != nil {
			if cerr := c.run.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Close shuts the partition down as a checkpoint. The flusher drains
// and exits; the memtable is frozen, flushed and compacted as the
// flusher would; the manifest is made to cover every logged entry,
// feed-resume checkpoints included; then every WAL segment is deleted,
// oldest first. A cleanly closed directory holds the manifest and run
// files only, so the next open replays nothing and writes nothing, and
// the data rests compressed instead of in the log. A crash at any point
// of it recovers like any other (see OpenPartition): the log goes only
// after the manifest covers it. A partition that has failed (Err) skips
// all of this and keeps its log, which the next open replays as after a
// crash; Close then returns the failure. A read fault is not a failure
// of the partition: the reader it stopped reported it, and Close does
// not report it again. The run files close last. A run compaction had
// already replaced is not the partition's any more: it closes with its
// last reader (see runFile). The partition must not be used afterwards.
func (p *Partition) Close() error {
	p.mu.Lock()
	if p.closed {
		err := p.perr
		p.mu.Unlock()
		return err
	}
	p.closed = true
	p.mu.Unlock()
	close(p.flushC)
	<-p.flusherDone
	if p.Err() == nil {
		p.fail(p.checkpoint())
	}
	err := p.wal.Close()
	if err == nil && p.Err() == nil {
		err = p.wal.retire()
	}
	p.free.drop()
	p.nodes.Drop()
	p.mu.Lock()
	if cerr := p.closeRunsLocked(); err == nil {
		err = cerr
	}
	if err == nil {
		err = p.perr
	}
	p.mu.Unlock()
	return err
}

// Drop closes the partition (Close) and deletes its files, so a
// partition opened in the same directory afterwards starts empty. WAL
// segments — left only by a Close that failed — go first, then the
// manifest, then the run files: a crash in between
// reopens cleanly at every point, because without a manifest the run
// files are orphans that recovery removes. Close's error is reported
// but does not stop the removal.
func (p *Partition) Drop() error {
	err := p.Close()
	names, lerr := p.fs.List(p.dir)
	if lerr != nil {
		return errors.Join(err, lerr)
	}
	rank := func(name string) int {
		if _, isWAL := parseWALSegmentName(name); isWAL {
			return 0
		}
		if name == manifestName {
			return 1
		}
		return 2
	}
	slices.SortStableFunc(names, func(a, b string) int { return rank(a) - rank(b) })
	for _, name := range names {
		err = errors.Join(err, p.fs.Remove(joinPath(p.dir, name)))
	}
	return errors.Join(err, p.fs.SyncDir(p.dir))
}
