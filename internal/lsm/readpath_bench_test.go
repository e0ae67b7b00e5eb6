package lsm

import (
	"fmt"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// benchReadPartition builds a durable partition holding even keys
// 0..2*n-2 spread across three run files (three explicit flushes; three
// runs stay under compactionMinWidth, so the set is stable) plus an
// empty memtable.
func benchReadPartition(b *testing.B, n int, cache *BlockCache) *Partition {
	b.Helper()
	fs := NewMemFS()
	p, err := OpenPartition(fs, "part", Options{MemBudget: 64 << 20, MaxComponents: 8, WALSegBytes: 1 << 20, BlockCache: cache})
	if err != nil {
		b.Fatal(err)
	}
	third := n / 3
	for i := 0; i < n; i++ {
		k := adm.Int(int64(2 * i))
		p.Upsert(k, adm.ObjectValue(adm.ObjectFromPairs("pk", k, "pad", adm.String("pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"))))
		if i == third || i == 2*third {
			p.Flush()
			if err := p.WaitForFlush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		b.Fatal(err)
	}
	if got := p.Runs(); got != 3 {
		b.Fatalf("built %d runs, want 3", got)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

// BenchmarkPointLookupDurable measures the durable point-lookup path.
// The negative variants must do zero filesystem block reads — fences
// reject keys outside every run's range, blooms reject absent keys
// inside it — and the warm-cache hit must read zero blocks and stay at
// ~0 allocs/op. block_reads/op is reported from the partition counters.
func BenchmarkPointLookupDurable(b *testing.B) {
	const n = 3000 // even keys 0..5998, three runs
	run := func(name string, cache *BlockCache, key func(i int) adm.Value, wantFound, wantNoReads bool) {
		b.Run(name, func(b *testing.B) {
			p := benchReadPartition(b, n, cache)
			// Warm: one pass over the probe set fills the cache (when one
			// is wired) before measurement.
			for i := 0; i < 1000; i++ {
				p.Get(key(i))
			}
			before := p.renv.ctr.blockReads.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, _ := p.Get(key(i))
				if ok != wantFound {
					b.Fatalf("get(%v) found=%v, want %v", key(i), ok, wantFound)
				}
			}
			b.StopTimer()
			reads := p.renv.ctr.blockReads.Load() - before
			b.ReportMetric(float64(reads)/float64(b.N), "block_reads/op")
			if wantNoReads && reads != 0 {
				b.Fatalf("%d filesystem block reads, want 0", reads)
			}
		})
	}

	// Keys beyond every run's last key: fences short-circuit all three
	// runs without hashing or block IO.
	run("negative/fence", nil, func(i int) adm.Value { return adm.Int(int64(2*n + i%1000)) }, false, true)
	// Absent odd keys inside the fenced range: the bloom filters reject
	// (modulo ~1% false positives — those read one block, so the sub-
	// benchmark asserts only the counter metric, not zero).
	run("negative/bloom", nil, func(i int) adm.Value { return adm.Int(int64(2*(i%n) + 1)) }, false, false)
	// Warm cache hits: every probed block is resident, so the lookup
	// does zero filesystem reads and no allocation.
	run("hit/warm", NewBlockCache(DefaultBlockCacheBytes), func(i int) adm.Value { return adm.Int(int64(2 * (i % 1000))) }, true, true)
	// Cache-off baseline: every hit reads its block from the filesystem
	// into pooled buffers and keeps a copy of its record.
	run("hit/nocache", nil, func(i int) adm.Value { return adm.Int(int64(2 * (i % 1000))) }, true, false)

	// A full cache, every probe a first touch: a cache of one byte a shard
	// never has room for a block, nor for a frame, and the probes cycle
	// through the first keys of ten times as many blocks. Each probe is
	// declined, reads its block into pooled buffers and keeps a copy of
	// its record; bypasses/op must be 1.
	b.Run("miss/full", func(b *testing.B) {
		cache := NewBlockCache(blockCacheShards)
		p := benchReadPartition(b, 10*n, cache)
		keys := blockKeys(p)
		before := cache.Stats().BlockCacheBypasses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _ := p.Get(keys[i%len(keys)]); !ok {
				b.Fatalf("get(%v) found nothing", keys[i%len(keys)])
			}
		}
		b.StopTimer()
		bypasses := cache.Stats().BlockCacheBypasses - before
		b.ReportMetric(float64(bypasses)/float64(b.N), "bypasses/op")
		if bypasses != uint64(b.N) {
			b.Fatalf("%d of %d probes bypassed the cache", bypasses, b.N)
		}
	})
	// Every frame resident, few decoded blocks: the cache's budget is four
	// times the frames of the same ten-times-larger data, so its frame
	// stores hold every frame, and the probes cycle through the first
	// keys of more blocks than the rest of it holds decoded. A probe whose
	// block is not resident decodes its kept frame into a recycled entry
	// and keeps a copy of its record; block_reads/op must be 0.
	b.Run("hit/frame", func(b *testing.B) {
		var frames int64
		for _, r := range partitionRuns(benchReadPartition(b, 10*n, nil)) {
			for _, m := range r.blocks {
				frames += frameRecHeader + int64(m.length)
			}
		}
		cache := NewBlockCache(4 * frames)
		p := benchReadPartition(b, 10*n, cache)
		keys := blockKeys(p)
		for range 2 { // the first pass keeps every frame
			for _, k := range keys {
				p.Get(k)
			}
		}
		before, hits := p.renv.ctr.blockReads.Load(), cache.Stats().BlockCacheFrameHits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _ := p.Get(keys[i%len(keys)]); !ok {
				b.Fatalf("get(%v) found nothing", keys[i%len(keys)])
			}
		}
		b.StopTimer()
		reads := p.renv.ctr.blockReads.Load() - before
		b.ReportMetric(float64(reads)/float64(b.N), "block_reads/op")
		b.ReportMetric(float64(cache.Stats().BlockCacheFrameHits-hits)/float64(b.N), "frame_hits/op")
		if reads != 0 {
			b.Fatalf("%d filesystem block reads, want 0", reads)
		}
	})
}

// blockKeys is the first key of every block of p's runs.
func blockKeys(p *Partition) []adm.Value {
	var keys []adm.Value
	for _, r := range partitionRuns(p) {
		for _, m := range r.blocks {
			keys = append(keys, adm.ViewAlias(m.firstKey))
		}
	}
	return keys
}

// BenchmarkScanWarmCache measures full-snapshot scans over the same
// three-run partition with a warm cache versus no cache.
func BenchmarkScanWarmCache(b *testing.B) {
	const n = 3000
	for _, tc := range []struct {
		name  string
		cache *BlockCache
	}{
		{"warm", NewBlockCache(DefaultBlockCacheBytes)},
		{"nocache", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := benchReadPartition(b, n, tc.cache)
			scan := func() int {
				count := 0
				cur := p.Snapshot().Cursor()
				defer cur.Close()
				for {
					if _, _, ok := cur.Next(); !ok {
						return count
					}
					count++
				}
			}
			if got := scan(); got != n { // warms the cache
				b.Fatalf("scan saw %d records, want %d", got, n)
			}
			before := p.renv.ctr.blockReads.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := scan(); got != n {
					b.Fatalf("scan saw %d records, want %d", got, n)
				}
			}
			b.StopTimer()
			reads := p.renv.ctr.blockReads.Load() - before
			b.ReportMetric(float64(reads)/float64(b.N), "block_reads/op")
			if tc.cache != nil && reads != 0 {
				b.Fatalf("warm scan did %d filesystem block reads, want 0", reads)
			}
			_ = fmt.Sprintf
		})
	}
}
