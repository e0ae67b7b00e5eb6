package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// The manifest is the durable root of a partition directory: it names
// the run files that make up the on-disk LSM (oldest first), the WAL
// position they cover, and the next file sequence number. It is
// replaced atomically (write tmp, fsync, rename, fsync dir), so a
// crash at any point leaves either the old or the new manifest — never
// a torn one. Run files and WAL segments not reachable from the
// manifest are garbage from an interrupted flush or compaction and are
// deleted on open.
//
// Only the flusher goroutine and Close write the manifest, each store
// from the partition's run list (Partition.storeRuns), so stores need no
// locking beyond the partition's own flush serialization.
const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	manifestVersion = 1
)

type manifest struct {
	Version    int       `json:"version"`
	FlushedLSN uint64    `json:"flushed_lsn"`
	NextSeq    uint64    `json:"next_file_seq"`
	Runs       []runMeta `json:"runs"` // oldest first
	// Checkpoints carries the feed-resume offsets (PutCheckpoint) across
	// WAL truncation: a checkpoint lives in the WAL like any entry, so
	// before the flusher truncates the log it snapshots the in-memory
	// checkpoint table here. Recovery seeds from the manifest, then WAL
	// replay overwrites with anything newer.
	Checkpoints map[string]uint64 `json:"checkpoints,omitempty"`
}

type runMeta struct {
	File    string `json:"file"`
	MaxLSN  uint64 `json:"max_lsn"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	// FirstKey/LastKey are the run's key-range fences (adm binary
	// encoding, the bytes the run file holds; JSON base64). Recovery
	// cross-checks them against the fences of the run file itself — a
	// mismatch, or no fences for a run that has entries, means the
	// manifest references a file it did not describe. Absent (nil) only
	// for empty runs.
	FirstKey []byte `json:"first_key,omitempty"`
	LastKey  []byte `json:"last_key,omitempty"`
}

// runMetaFor describes a run-backed component for the manifest,
// including its key-range fences as the run holds them.
func runMetaFor(c *component) runMeta {
	rf := c.run
	return runMeta{File: rf.name, MaxLSN: c.upToLSN, Entries: rf.entries, Bytes: rf.size, FirstKey: rf.firstKey, LastKey: rf.lastKey}
}

// check refuses a manifest no flush or compaction could have written.
// Recovery acts on the manifest's word — it deletes every run file not
// named here and its flush creates run NextSeq — so a name that leaves
// the directory or a NextSeq that collides with a named run would have
// it open, truncate or (at the next compaction) delete a file that is
// not this manifest's to touch.
func (m manifest) check() error {
	named := make(map[string]bool, len(m.Runs))
	var lsn uint64
	for i, rm := range m.Runs {
		var seq uint64
		if _, err := fmt.Sscanf(rm.File, "run-%d.run", &seq); err != nil || runFileName(seq) != rm.File {
			return fmt.Errorf("runs[%d].file %q is not a run file name", i, rm.File)
		}
		if seq >= m.NextSeq {
			return fmt.Errorf("runs[%d].file %q is not below next_file_seq %d", i, rm.File, m.NextSeq)
		}
		if named[rm.File] {
			return fmt.Errorf("runs[%d].file %q is named twice", i, rm.File)
		}
		named[rm.File] = true
		if rm.MaxLSN < lsn {
			return fmt.Errorf("runs[%d].max_lsn %d is below its predecessor's %d", i, rm.MaxLSN, lsn)
		}
		if lsn = rm.MaxLSN; lsn > m.FlushedLSN {
			return fmt.Errorf("runs[%d].max_lsn %d is above flushed_lsn %d", i, lsn, m.FlushedLSN)
		}
	}
	return nil
}

// loadManifest reads and checks the manifest from dir. A missing
// manifest is a fresh partition and yields an empty manifest, not an
// error.
func loadManifest(fsys FS, dir string) (manifest, error) {
	var m manifest
	data, err := readFileAll(fsys, joinPath(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			m.Version = manifestVersion
			m.NextSeq = 1
			return m, nil
		}
		return m, fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("lsm: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("lsm: manifest: unsupported version %d", m.Version)
	}
	if m.NextSeq == 0 {
		m.NextSeq = 1
	}
	if err := m.check(); err != nil {
		return m, fmt.Errorf("lsm: manifest: %w", err)
	}
	return m, nil
}

// storeManifest atomically replaces the manifest in dir.
func storeManifest(fsys FS, dir string, m manifest) error {
	m.Version = manifestVersion
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	tmp := joinPath(dir, manifestTmpName)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := fsys.Rename(tmp, joinPath(dir, manifestName)); err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	return nil
}
