package lsm

import (
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// storageFrame builds one frame's worth of keys and tweet-shaped
// records starting at base.
func storageFrame(base int64, n int) (keys, recs []adm.Value) {
	keys = make([]adm.Value, n)
	recs = make([]adm.Value, n)
	for i := 0; i < n; i++ {
		id := base + int64(i)
		keys[i] = adm.Int(id)
		recs[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(id),
			"text", adm.String("benchmark tweet with some padding text"),
			"lang", adm.String("en"),
		))
	}
	return keys, recs
}

// BenchmarkStorageUpsert measures what a frame buys on the one storage
// write path: the same 1k records stored as 1000 batches of one (Upsert:
// one WAL append, lock acquisition, group commit and root-to-leaf descent
// per record) against one frame-granular UpsertBatch. This is the
// storage half of the feed pipeline in isolation.
func BenchmarkStorageUpsert(b *testing.B) {
	const frameSize = 1000
	// Keys wrap over a bounded space so steady state mixes fresh
	// inserts with replacements, like a long-running feed.
	const keySpace = 64 * frameSize

	b.Run("batches-of-one", func(b *testing.B) {
		p := memPartition(b, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			keys, recs := storageFrame(int64(i*frameSize%keySpace), frameSize)
			b.StartTimer()
			for j := range keys {
				p.Upsert(keys[j], recs[j])
			}
			b.StopTimer()
		}
		b.ReportMetric(float64(b.N*frameSize)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("batch", func(b *testing.B) {
		p := memPartition(b, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			keys, recs := storageFrame(int64(i*frameSize%keySpace), frameSize)
			b.StartTimer()
			p.UpsertBatch(keys, recs)
			b.StopTimer()
		}
		b.ReportMetric(float64(b.N*frameSize)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkStorageUpsertIndexed is the same comparison with a secondary
// B-tree index attached, adding the get-before-put old-value pass and
// index maintenance to both sides (an entry deleted and one put per
// record, under one index lock per batch). The old
// values are read back from run files: the plain sub-benchmarks open the
// partition bare, as DefaultOptions leaves it, and load a block per
// lookup; the -cached ones wire the block cache every cluster partition
// has (cachedOptions).
func BenchmarkStorageUpsertIndexed(b *testing.B) {
	const frameSize = 1000
	const keySpace = 64 * frameSize

	for _, cfg := range []struct {
		suffix string
		opts   Options
	}{{"", DefaultOptions()}, {"-cached", cachedOptions()}} {
		b.Run("batches-of-one"+cfg.suffix, func(b *testing.B) {
			p := memPartition(b, cfg.opts)
			if err := p.AttachIndex(NewBTreeIndex("byLang", FieldKeyExtractor("lang"))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				keys, recs := storageFrame(int64(i*frameSize%keySpace), frameSize)
				b.StartTimer()
				for j := range keys {
					p.Upsert(keys[j], recs[j])
				}
				b.StopTimer()
			}
			b.ReportMetric(float64(b.N*frameSize)/b.Elapsed().Seconds(), "records/s")
		})

		b.Run("batch"+cfg.suffix, func(b *testing.B) {
			p := memPartition(b, cfg.opts)
			if err := p.AttachIndex(NewBTreeIndex("byLang", FieldKeyExtractor("lang"))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				keys, recs := storageFrame(int64(i*frameSize%keySpace), frameSize)
				b.StartTimer()
				p.UpsertBatch(keys, recs)
				b.StopTimer()
			}
			b.ReportMetric(float64(b.N*frameSize)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkCompaction merges 4 runs × 20 000 tweet-shaped records on
// MemFS: the compaction layer's time and allocation per input byte.
func BenchmarkCompaction(b *testing.B) {
	fsys := NewMemFS()
	runs := tweetRuns(b, fsys, 4, 20_000, runEnv{})
	var size int64
	for _, rf := range runs {
		size += rf.size
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf, err := writeRun(fsys, "runs", "out.run", runEnv{}, fillFromRuns(runs, true))
		if err != nil {
			b.Fatal(err)
		}
		rf.close()
	}
}
