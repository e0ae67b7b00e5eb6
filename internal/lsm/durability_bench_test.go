package lsm

import (
	"fmt"
	"os"
	"testing"
)

// Durability benchmarks. All run on MemFS by default so the numbers
// measure the storage engine (encoding, framing, CRC, group-commit
// coalescing, run building), not a particular disk; set
// IDEA_BENCH_DATADIR to an existing directory to run BenchmarkWALAppend
// against the real filesystem.

func benchFS(b *testing.B) (FS, string) {
	if dir := os.Getenv("IDEA_BENCH_DATADIR"); dir != "" {
		sub, err := os.MkdirTemp(dir, "ideabench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { os.RemoveAll(sub) })
		return NewOSFS(), sub
	}
	return NewMemFS(), "bench"
}

// BenchmarkWALAppend measures the durable write path per frame: binary
// encoding of every key/record, one CRC-framed WAL append, one group
// commit (write + fsync). records/s is the headline number against the
// in-memory BenchmarkStorageUpsert/batch path.
func BenchmarkWALAppend(b *testing.B) {
	const frameSize = 1000
	for _, frame := range []int{1, 100, frameSize} {
		b.Run(fmt.Sprintf("frame=%d", frame), func(b *testing.B) {
			fsys, dir := benchFS(b)
			p, err := OpenPartition(fsys, dir, Options{
				MemBudget:     1 << 30, // never flush: isolate the WAL
				MaxComponents: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			written := 0
			for i := 0; i < b.N; i++ {
				keys, recs := storageFrame(int64(written%(64*frameSize)), frame)
				b.StartTimer()
				if err := p.UpsertBatch(keys, recs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				written += frame
			}
			b.ReportMetric(float64(written)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkRecoveryReplay measures crash recovery: replaying a WAL tail
// of n records into a fresh memtable and flushing it (manifest load and
// run opening are included but empty — the workload never flushes). The
// tail is a crash image's: a clean Close leaves no log to replay.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fsys := NewMemFS()
			opts := Options{MemBudget: 1 << 30, MaxComponents: 8}
			p, err := OpenPartition(fsys, "bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			const frame = 1000
			for done := 0; done < n; done += frame {
				keys, recs := storageFrame(int64(done), min(frame, n-done))
				if err := p.UpsertBatch(keys, recs); err != nil {
					b.Fatal(err)
				}
			}
			img := crashImage(b, p).(*MemFS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp, err := OpenPartition(img.Crash(), "bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if liveLen(b, rp.Snapshot()) != n {
					b.Fatalf("recovered %d records, want %d", liveLen(b, rp.Snapshot()), n)
				}
				rp.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkCloseCheckpoint measures a clean Close over a memtable of n
// records: the flush, the manifest store and the log's deletion, which
// leave the next open nothing to replay — the work BenchmarkRecoveryReplay
// times at open after a crash, moved into Close.
func BenchmarkCloseCheckpoint(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			opts := Options{MemBudget: 1 << 30, MaxComponents: 8}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				fsys := NewMemFS()
				p, err := OpenPartition(fsys, "bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				const frame = 1000
				for done := 0; done < n; done += frame {
					keys, recs := storageFrame(int64(done), min(frame, n-done))
					if err := p.UpsertBatch(keys, recs); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if names, _ := fsys.List("bench"); len(names) != 2 {
					b.Fatalf("Close left %v, want the manifest and one run", names)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkFlushThroughput measures memtable→run-file flush bandwidth:
// freeze a loaded memtable and drain it through the flusher (sorted
// block building, CRC framing, fsync, manifest commit, WAL truncation).
func BenchmarkFlushThroughput(b *testing.B) {
	const n = 10_000
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		fsys := NewMemFS()
		p, err := OpenPartition(fsys, "bench", Options{MemBudget: 1 << 30, MaxComponents: 8})
		if err != nil {
			b.Fatal(err)
		}
		const frame = 1000
		for done := 0; done < n; done += frame {
			keys, recs := storageFrame(int64(done), frame)
			if err := p.UpsertBatch(keys, recs); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		p.mu.RLock()
		for _, c := range p.runsLocked() {
			bytes += c.run.size
		}
		p.mu.RUnlock()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(bytes)/b.Elapsed().Seconds()/(1<<20), "MiB/s")
}
