package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// The crash-injection suite: run a deterministic workload against a
// durable partition on MemFS, kill the filesystem at sampled write
// counts (clean kill and torn final write), take the crash image
// (every file cut to its fsynced prefix), recover, and require that
// the recovered partition equals exactly the acknowledged state:
//
//   - every batch whose commit returned nil is fully present;
//   - nothing unacknowledged survives (a failed commit was never
//     acknowledged, and the synced-prefix model guarantees its bytes
//     never reached "disk" — torn frames are cut by CRC on replay);
//   - the recovered partition accepts new writes.
//
// The same write counter covers WAL appends, run-file flushes, manifest
// stores, and compactions, so the sampled injection points land in
// every phase of the storage lifecycle that the workload reaches.
// Recovery writes too — it flushes the tail it replayed — so every image
// is also recovered by a process that is itself killed at a sampled
// write, and then once more.

// crashWorkload drives one deterministic workload against p, returning
// the acknowledged model (key → version; deletions removed). Update
// acknowledgment is per batch: only batches whose UpsertBatch (or
// per-record op) returned with a nil error enter the model.
func crashWorkload(p *Partition, frames, perFrame int) map[int64]int64 {
	acked := make(map[int64]int64)
	r := rand.New(rand.NewSource(42))
	version := int64(0)
	keys := make([]adm.Value, 0, perFrame)
	recs := make([]adm.Value, 0, perFrame)
	for f := 0; f < frames; f++ {
		keys, recs = keys[:0], recs[:0]
		staged := make(map[int64]int64, perFrame)
		for i := 0; i < perFrame; i++ {
			k := r.Int63n(int64(frames * perFrame / 4)) // plenty of overwrites
			version++
			keys = append(keys, adm.Int(k))
			recs = append(recs, rec(k, "ver", adm.Int(version), "pad", adm.String("ppppppppppppppppppppppppppppppppppppppppppppppp")))
			staged[k] = version
		}
		if err := p.UpsertBatch(keys, recs); err == nil {
			for k, v := range staged {
				acked[k] = v
			}
		}
		// Sprinkle per-record deletes; Delete has no error return, so
		// acknowledge via the partition's sticky error state.
		if f%3 == 2 {
			k := r.Int63n(int64(frames * perFrame / 4))
			before := p.Err()
			p.Delete(adm.Int(k))
			if before == nil && p.Err() == nil {
				delete(acked, k)
			} else {
				// Uncertain: the delete may or may not have committed.
				// Keep the model honest by removing the key from strict
				// checking either way — mark it with version -1.
				acked[k] = -1
			}
		}
	}
	return acked
}

// verifyRecovered checks the recovered partition against the acked
// model: exact versions for certain keys, either-state for the (rare)
// uncertain ones (version -1).
func verifyRecovered(t *testing.T, p *Partition, acked map[int64]int64, tag string) {
	t.Helper()
	certain := 0
	for k, v := range acked {
		got, ok, _ := p.Get(adm.Int(k))
		if v == -1 {
			continue // uncertain delete: any state is acceptable
		}
		certain++
		if !ok {
			t.Fatalf("%s: acked key %d lost", tag, k)
		}
		if gv := got.Field("ver").IntVal(); gv != v {
			t.Fatalf("%s: key %d recovered version %d, want %d", tag, k, gv, v)
		}
	}
	// Nothing beyond the model may survive: count live records that the
	// model does not know as certain-or-uncertain.
	p.Snapshot().Scan(func(k, _ adm.Value) bool {
		if _, known := acked[k.IntVal()]; !known {
			t.Fatalf("%s: unacknowledged key %d resurrected", tag, k.IntVal())
		}
		return true
	})
	// And the partition must accept new work.
	p.Upsert(adm.Int(-99), rec(-99, "ver", adm.Int(-99)))
	if err := p.Err(); err != nil {
		t.Fatalf("%s: recovered partition rejects writes: %v", tag, err)
	}
	if got, ok, _ := p.Get(adm.Int(-99)); !ok || got.Field("ver").IntVal() != -99 {
		t.Fatalf("%s: write after recovery not visible", tag)
	}
	_ = certain
}

func TestCrashRecovery(t *testing.T) {
	cases := []struct {
		name     string
		opts     Options
		frames   int
		perFrame int
		points   int
		// flushes and merges: the dry run's workload must flush, and
		// compact, before Close, or no injection point lands inside one.
		flushes, merges bool
	}{
		// Everything stays in the memtable: crashes only ever hit WAL
		// appends and commits.
		{"memtable-only", Options{MemBudget: 8 << 20, MaxComponents: 8, WALSegBytes: 16 << 10}, 24, 8, 10, false, false},
		// Small budget: several flushes, run files, WAL truncation.
		{"flushed", Options{MemBudget: 8 << 10, MaxComponents: 8, WALSegBytes: 8 << 10}, 40, 12, 12, true, false},
		// Tiny budget + low component cap: compactions run during the
		// workload, so injection points land mid-compaction too.
		{"mid-compaction", Options{MemBudget: 4 << 10, MaxComponents: 3, WALSegBytes: 8 << 10}, 60, 12, 14, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Dry run: measure the workload's total write count with no
			// faults (also sanity-checks the workload itself).
			dryFS := NewMemFS()
			p, err := OpenPartition(dryFS, "part", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			acked := crashWorkload(p, tc.frames, tc.perFrame)
			settle(t, p)
			if st := p.Stats(); tc.flushes && st.FlushedRuns == 0 || tc.merges && st.Merges == 0 {
				t.Fatalf("the workload flushed %d runs and merged %d times before Close", st.FlushedRuns, st.Merges)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			totalWrites := dryFS.Writes()
			if totalWrites < tc.points {
				t.Fatalf("workload too small: %d writes", totalWrites)
			}
			// Sanity: a clean close must reopen to the full model.
			rp, err := OpenPartition(dryFS.Crash(), "part", tc.opts)
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			verifyRecovered(t, rp, acked, "clean-close")
			rp.Close()

			// Injection runs: kill at sampled points, torn and clean.
			r := rand.New(rand.NewSource(7))
			for i := 0; i < tc.points; i++ {
				n := i * totalWrites / tc.points
				if i > 0 {
					n += r.Intn(totalWrites/tc.points + 1)
				}
				for _, torn := range []int{0, 7} {
					tag := fmt.Sprintf("kill@%d/%d torn=%d", n, totalWrites, torn)
					fs := NewMemFS()
					p, err := OpenPartition(fs, "part", tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					fs.FailWritesAfter(n, torn)
					acked := crashWorkload(p, tc.frames, tc.perFrame)
					img := fs.Crash()
					// The doomed process shuts down after the crash image
					// is taken; its writes no longer matter.
					p.Close()

					killed := img.Crash() // a second copy of the image
					rp, err := OpenPartition(img, "part", tc.opts)
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", tag, err)
					}
					recoveryWrites := img.Writes()
					verifyRecovered(t, rp, acked, tag)
					if err := rp.Close(); err != nil {
						t.Fatalf("%s: close after recovery: %v", tag, err)
					}

					// The same recovery, killed inside its own flush.
					k := r.Intn(recoveryWrites + 1)
					tag = fmt.Sprintf("%s, recovery killed@%d/%d", tag, k, recoveryWrites)
					killed.FailWritesAfter(k, torn)
					if rp, err := OpenPartition(killed, "part", tc.opts); err == nil {
						rp.Close()
					}
					rp, err = OpenPartition(killed.Crash(), "part", tc.opts)
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", tag, err)
					}
					verifyRecovered(t, rp, acked, tag)
					rp.Close()
				}
			}
		})
	}
}

// keepWALFS refuses to remove WAL segments: the filesystem of a process
// that dies after the flush stored its manifest and before it truncated
// the log.
type keepWALFS struct{ *MemFS }

func (f keepWALFS) Remove(name string) error {
	if _, isWAL := parseWALSegmentName(path.Base(name)); isWAL {
		return fmt.Errorf("remove %s: %w", name, ErrInjected)
	}
	return f.MemFS.Remove(name)
}

// TestCrashRecoveryDoubleCrash: recovery itself is crash-safe — kill
// the process at every write of its recovery (the tail's run file block
// by block, then the manifest that names it: a kill at the last leaves
// the run written and not yet in the manifest) and between the manifest
// and the log's truncation, recover again, and the acknowledged state
// must still be intact.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	cases := map[string]Options{
		// Runs, a manifest and a tail of under a memtable.
		"flushed": {MemBudget: 8 << 10, MaxComponents: 4, WALSegBytes: 8 << 10},
		// Nothing flushed: the whole workload is the tail, in segments
		// recovery's flush leaves all but the last of behind it.
		"tail-only": {MemBudget: 8 << 20, MaxComponents: 4, WALSegBytes: 2 << 10},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS()
			p, err := OpenPartition(fs, "part", opts)
			if err != nil {
				t.Fatal(err)
			}
			fs.FailWritesAfter(300, 0)
			acked := crashWorkload(p, 40, 12)
			img := fs.Crash()
			p.Close()

			recoverAfter := func(attempt *MemFS, tag string) {
				t.Helper()
				final, err := OpenPartition(attempt.Crash(), "part", opts)
				if err != nil {
					t.Fatalf("recovery after killed recovery (%s): %v", tag, err)
				}
				verifyRecovered(t, final, acked, "double-crash "+tag)
				final.Close()
			}
			dry := img.Crash() // fresh copy of the image
			rp, err := OpenPartition(dry, "part", opts)
			if err != nil {
				t.Fatal(err)
			}
			writes, flushed := dry.Writes(), rp.Stats().FlushedRuns
			rp.Close()
			if flushed != 1 || writes < 3 {
				t.Fatalf("recovery flushed %d runs in %d writes: the image has no tail, the test proves nothing", flushed, writes)
			}
			// Crash the first recovery attempt at each of its writes; none of
			// them may damage the image for the attempt after it.
			for n := 0; n <= writes; n++ {
				attempt := img.Crash()
				attempt.FailWritesAfter(n, 0)
				rp, err := OpenPartition(attempt, "part", opts)
				if err == nil {
					// Recovery survived the injection (the last point is past it).
					rp.Close()
				}
				recoverAfter(attempt, fmt.Sprintf("n=%d/%d", n, writes))
			}
			attempt := img.Crash()
			if rp, err = OpenPartition(keepWALFS{attempt}, "part", opts); err == nil {
				rp.Close() // the tail lay in one segment: nothing to truncate
			}
			if name == "tail-only" && !errors.Is(err, ErrInjected) {
				t.Fatalf("recovery over a log it cannot truncate: %v; the test proves nothing", err)
			}
			recoverAfter(attempt, "manifest stored, log not truncated")
		})
	}
}

// TestWALReplayTornTail: a WAL segment whose tail holds a torn frame —
// bytes that reached disk but fail the CRC — replays every complete
// frame and truncates the garbage, and the log accepts appends after.
func TestWALReplayTornTail(t *testing.T) {
	fs := NewMemFS()
	w, err := OpenWAL(fs, "wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, func(uint64, []entry) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for i := int64(1); i <= 5; i++ {
		enc = adm.AppendBinary(enc[:0], adm.Int(i))
		enc = adm.AppendBinary(enc, rec(i))
		w.appendEncoded(enc, 1)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Append torn garbage straight to the segment and make it durable —
	// the disk image a crash can leave when the page cache flushed a
	// partial frame.
	f, err := fs.Open("wal/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(fs, "wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	err = w2.Replay(0, func(_ uint64, entries []entry) error {
		for _, e := range entries {
			got = append(got, keyOf(e).IntVal())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(got))
	}
	if w2.LSN() != 5 {
		t.Fatalf("LSN after torn-tail replay = %d, want 5", w2.LSN())
	}
	// The torn bytes are gone; appending must work.
	enc = adm.AppendBinary(enc[:0], adm.Int(6))
	enc = adm.AppendBinary(enc, rec(6))
	w2.appendEncoded(enc, 1)
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, err := OpenWAL(fs, "wal", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := w3.Replay(0, func(_ uint64, entries []entry) error { count += len(entries); return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("final replay saw %d entries, want 6", count)
	}
	w3.Close()
}

// TestFlushPersistsOnlyCommittedEntries: a batch reaches the memtable
// before its commit, so a frozen tree can hold one the log failed to make
// durable — never acknowledged. Flushing that tree would put it in a run
// file, where a crash at the right write (the run and manifest stored,
// then the log write killed) would recover it; the flusher makes the log
// durable first, and a log that cannot be stops the flush.
func TestFlushPersistsOnlyCommittedEntries(t *testing.T) {
	fs := NewMemFS()
	p, err := OpenPartition(fs, "part", Options{MemBudget: 1 << 30, MaxComponents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.wal.mu.Lock()
	p.wal.werr = errors.New("injected log failure")
	p.wal.mu.Unlock()
	if err := p.Upsert(adm.Int(1), rec(1)); err == nil {
		t.Fatal("an upsert was acknowledged over a failed log")
	}
	p.mu.Lock()
	p.freezeLocked()
	p.mu.Unlock()
	if _, err := p.flushOnce(); err == nil {
		t.Fatal("a tree holding an uncommitted batch was flushed")
	}
	if runs := p.Runs(); runs != 0 {
		t.Fatalf("%d run files hold what the log never made durable", runs)
	}
}
