package lsm

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// checkpointedDir fails unless dir holds what a clean Close leaves: the
// manifest and the run files it names, nothing else — no WAL segment, no
// orphan.
func checkpointedDir(t *testing.T, fsys FS, dir, when string) {
	t.Helper()
	names, err := fsys.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName}
	for _, rm := range man.Runs {
		want = append(want, rm.File)
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("%s: directory holds %v, want the manifest and its runs %v", when, names, want)
	}
}

// TestCloseIsACheckpoint: a clean Close flushes the memtable, covers the
// whole log with the manifest — a tail of checkpoint entries alone
// included — and deletes the log, so the directory is the manifest and
// its runs, and the next open replays nothing and writes nothing. LSNs
// continue past the manifest's watermark, and a write after the reopen
// is as durable as any.
func TestCloseIsACheckpoint(t *testing.T) {
	filesystems := map[string]func(t *testing.T) (FS, string){
		"MemFS": func(*testing.T) (FS, string) { return NewMemFS(), "part" },
		"OSFS":  func(t *testing.T) (FS, string) { return NewOSFS(), t.TempDir() },
	}
	for name, mk := range filesystems {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk(t)
			opts := Options{MemBudget: 16 << 10, MaxComponents: 8, WALSegBytes: 4 << 10}
			p, err := OpenPartition(fsys, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]int64{}
			for k := int64(0); k < 900; k++ {
				if err := p.Upsert(adm.Int(k%500), rec(k%500, "v", adm.Int(k))); err != nil {
					t.Fatal(err)
				}
				model[k%500] = k
			}
			if _, err := p.Delete(adm.Int(7)); err != nil {
				t.Fatal(err)
			}
			delete(model, 7)
			if err := p.PutCheckpoint("feed", 900); err != nil {
				t.Fatal(err)
			}
			settle(t, p)
			if p.Stats().MemEntries == 0 || p.Runs() == 0 {
				t.Fatalf("closing with %d runs and %d memtable entries, want both", p.Runs(), p.Stats().MemEntries)
			}

			// reopen closes p, checks what Close left and what the open
			// did with it, and returns the reopened partition.
			reopen := func(when string) *Partition {
				t.Helper()
				lsn := p.Epoch()
				if err := p.Close(); err != nil {
					t.Fatalf("%s: close: %v", when, err)
				}
				checkpointedDir(t, fsys, dir, when)
				image := dirImage(t, fsys, dir)
				writes := 0
				if m, ok := fsys.(*MemFS); ok {
					writes = m.Writes()
				}
				np, err := OpenPartition(fsys, dir, opts)
				if err != nil {
					t.Fatalf("%s: reopen: %v", when, err)
				}
				st := np.Stats()
				if st.MemEntries != 0 || st.Flushes != 0 || st.FlushedRuns != 0 {
					t.Fatalf("%s: the reopen replayed: %d memtable entries, %d freezes, %d runs flushed", when, st.MemEntries, st.Flushes, st.FlushedRuns)
				}
				if m, ok := fsys.(*MemFS); ok && m.Writes() != writes {
					t.Fatalf("%s: the reopen wrote %d times", when, m.Writes()-writes)
				}
				if !maps.Equal(image, dirImage(t, fsys, dir)) {
					t.Fatalf("%s: the reopen changed the directory", when)
				}
				if np.Epoch() != lsn || flushedLSN(np) != lsn {
					t.Fatalf("%s: closed at LSN %d, reopened at LSN %d over a manifest covering %d", when, lsn, np.Epoch(), flushedLSN(np))
				}
				return np
			}
			check := func(p *Partition, when string, ckpt uint64) {
				t.Helper()
				for k := int64(0); k < 500; k++ {
					got, ok, err := p.Get(adm.Int(k))
					want, live := model[k]
					if err != nil || ok != live || (live && got.Field("v").IntVal() != want) {
						t.Fatalf("%s: key %d = %s, %v, %v; model says %d (live %v)", when, k, got, ok, err, want, live)
					}
				}
				if got := p.Checkpoint("feed"); got != ckpt {
					t.Fatalf("%s: checkpoint %d, want %d", when, got, ckpt)
				}
			}

			p = reopen("a memtable tail")
			check(p, "reopened over a memtable tail", 900)

			// A checkpoint past the last flush, the memtable empty: nothing
			// to freeze, so only the manifest's own store keeps it.
			if err := p.PutCheckpoint("feed", 1000); err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.MemEntries != 0 {
				t.Fatalf("a checkpoint reached the memtable: %d entries", st.MemEntries)
			}
			p = reopen("a checkpoint-only tail")
			check(p, "reopened over a checkpoint-only tail", 1000)

			// The log starts again above the watermark, and what it holds
			// survives a crash like any tail.
			watermark := flushedLSN(p)
			if err := p.Upsert(adm.Int(7), rec(7, "v", adm.Int(7777))); err != nil {
				t.Fatal(err)
			}
			model[7] = 7777
			if lsn := p.Epoch(); lsn <= watermark {
				t.Fatalf("a write after the reopen got LSN %d, at or below the watermark %d", lsn, watermark)
			}
			img := crashImage(t, p)
			rp, err := OpenPartition(img, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rp.Close()
			check(rp, "recovered from a crash after the reopen", 1000)
		})
	}
}

// eventFS is a MemFS that reports every directory sync, rename and
// removal once it has happened — the points inside a Close at which a
// crash image is taken.
type eventFS struct {
	*MemFS
	mu    sync.Mutex
	after func(event string)
}

func (f *eventFS) event(e string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.after != nil {
		f.after(e)
	}
}

func (f *eventFS) SyncDir(dir string) error {
	err := f.MemFS.SyncDir(dir)
	f.event("sync " + dir)
	return err
}

func (f *eventFS) Rename(oldname, newname string) error {
	err := f.MemFS.Rename(oldname, newname)
	f.event("rename " + newname)
	return err
}

func (f *eventFS) Remove(name string) error {
	err := f.MemFS.Remove(name)
	f.event("remove " + name)
	return err
}

// walSegments lists the WAL segment files in dir.
func walSegments(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	names, err := fsys.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(names, func(name string) bool {
		_, isWAL := parseWALSegmentName(name)
		return !isWAL
	})
}

// closeCrashOpts gives Close a memtable tail spread over several WAL
// segments and a run count at which its flush sets off a compaction.
var closeCrashOpts = Options{MemBudget: 32 << 10, MaxComponents: 3, WALSegBytes: 2 << 10}

// TestCloseCrashPoints: a crash anywhere inside a clean Close — after the
// run write, after the manifest store, after each WAL segment's removal —
// recovers exactly the acknowledged state, feed checkpoint included. A
// Close whose flush fails returns the error, deletes no segment, and its
// crash image recovers every acknowledged write from the log.
func TestCloseCrashPoints(t *testing.T) {
	t.Run("images", func(t *testing.T) {
		mem := NewMemFS()
		fsys := &eventFS{MemFS: mem}
		p, err := OpenPartition(fsys, "part", closeCrashOpts)
		if err != nil {
			t.Fatal(err)
		}
		acked := crashWorkload(p, 40, 12)
		settle(t, p)
		if err := p.PutCheckpoint("feed", 77); err != nil {
			t.Fatal(err)
		}
		if p.Stats().MemEntries == 0 || len(walSegments(t, mem, "part")) < 2 {
			t.Fatalf("closing with %d memtable entries over %d WAL segments: the test proves nothing", p.Stats().MemEntries, len(walSegments(t, mem, "part")))
		}
		type image struct {
			event string
			fs    *MemFS
		}
		var images []image
		fsys.mu.Lock()
		fsys.after = func(e string) { images = append(images, image{e, mem.Crash()}) }
		fsys.mu.Unlock()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		var manifests, removed int
		for i, img := range images {
			manifests += strings.Count(img.event, "rename part/"+manifestName)
			removed += strings.Count(img.event, "remove part/wal-")
			tag := fmt.Sprintf("crash after %s (%d of %d)", img.event, i+1, len(images))
			rp, err := OpenPartition(img.fs, "part", closeCrashOpts)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", tag, err)
			}
			if got := rp.Checkpoint("feed"); got != 77 {
				t.Fatalf("%s: checkpoint %d, want 77", tag, got)
			}
			verifyRecovered(t, rp, acked, tag)
			if err := rp.Close(); err != nil {
				t.Fatalf("%s: close after recovery: %v", tag, err)
			}
		}
		if manifests == 0 || removed < 2 {
			t.Fatalf("Close stored %d manifests and removed %d segments: the images miss a crash point", manifests, removed)
		}
	})

	faults := map[string]func(*MemFS){
		"FailSyncs":       func(m *MemFS) { m.FailSyncs(true) },
		"FailWritesAfter": func(m *MemFS) { m.FailWritesAfter(0, 0) },
	}
	for name, arm := range faults {
		t.Run(name, func(t *testing.T) {
			fsys := NewMemFS()
			p, err := OpenPartition(fsys, "part", closeCrashOpts)
			if err != nil {
				t.Fatal(err)
			}
			acked := crashWorkload(p, 40, 12)
			settle(t, p)
			if p.Stats().MemEntries == 0 {
				t.Fatal("closing with an empty memtable: the flush has nothing to fail on")
			}
			segs := walSegments(t, fsys, "part")
			arm(fsys)
			if err := p.Close(); err == nil {
				t.Fatal("Close returned nil over a failed flush")
			}
			if got := walSegments(t, fsys, "part"); !slices.Equal(got, segs) {
				t.Fatalf("a failed Close left WAL segments %v of %v", got, segs)
			}
			rp, err := OpenPartition(fsys.Crash(), "part", closeCrashOpts)
			if err != nil {
				t.Fatalf("recovery after a failed Close: %v", err)
			}
			verifyRecovered(t, rp, acked, "failed close")
			rp.Close()
		})
	}
}

// TestDropLeavesEmptyDirectory: Drop closes a partition holding runs
// and a memtable tail and deletes every file it leaves: the directory
// ends empty.
func TestDropLeavesEmptyDirectory(t *testing.T) {
	fsys := NewMemFS()
	p, err := OpenPartition(fsys, "part", durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	upsert := func(lo, hi int64) {
		for k := lo; k < hi; k++ {
			if err := p.Upsert(adm.Int(k), rec(k, "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	upsert(0, 300)
	settle(t, p)
	upsert(300, 310)
	if p.Runs() == 0 || p.Stats().MemEntries == 0 {
		t.Fatalf("dropping %d runs and %d memtable entries, want both", p.Runs(), p.Stats().MemEntries)
	}
	if err := p.Drop(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fsys.List("part"); len(names) != 0 {
		t.Fatalf("Drop left %v", names)
	}
}
