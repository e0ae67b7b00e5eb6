package idea

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// knobOutcome is what one TestConfigKnobs scenario observed; a row reads
// the fields its knob is supposed to move.
type knobOutcome struct {
	count   int // partitions, files: whatever the row counts
	runs    int // run files a partition ended with
	walSegs int // WAL segment files it ended with
	elapsed time.Duration
	feed    FeedStats
	storage StorageStats
}

// TestConfigKnobs: every field of idea.Config and of lsm.Options changes
// something an operator can observe — each row runs one scenario under
// two values of one field and states how the outcomes must differ. A
// field that cannot earn a row here does not belong in the struct (the
// CREATE FEED keys have the same table in TestFeedDDLKnobs).
func TestConfigKnobs(t *testing.T) {
	type scenario func(*testing.T) knobOutcome
	// fast switches the simulated job overheads off unless the row sets them.
	fast := func(cfg Config) Config {
		if cfg.DispatchOverheadPerNode == 0 {
			cfg.DispatchOverheadPerNode = 1
		}
		if cfg.InvokeOverheadPerNode == 0 {
			cfg.InvokeOverheadPerNode = 1
		}
		return cfg
	}
	// feed runs n records through a feed declared with the given WITH
	// body (udfDelay > 0 attaches a slow UDF) and reports its final state.
	feed := func(cfg Config, with string, udfDelay time.Duration, n int) scenario {
		return func(t *testing.T) knobOutcome {
			c := knobCluster(t, cfg)
			apply := ""
			if udfDelay > 0 {
				apply = " APPLY FUNCTION slow"
				if err := c.RegisterNativeUDF("slow", func() NativeUDF { return &slowUDF{delay: udfDelay} }); err != nil {
					t.Fatal(err)
				}
			}
			c.MustExecute(fmt.Sprintf(`
				CREATE FEED F WITH { "adapter-name": "channel_adapter", %s };
				CONNECT FEED F TO DATASET Events%s;
			`, with, apply))
			records := make([][]byte, n)
			for i := range records {
				records[i] = []byte(fmt.Sprintf(`{"id":%d}`, i))
			}
			if err := c.SetFeedSource("F", func(int) (FeedSource, error) { return &RecordsSource{Records: records}, nil }); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			f := c.MustExecute(`START FEED F;`).Feeds()[0]
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			out := knobOutcome{elapsed: time.Since(start)}
			out.feed, _ = f.Stats()
			if out.feed.Stored != int64(n) {
				t.Fatalf("feed stored %d of %d records", out.feed.Stored, n)
			}
			return out
		}
	}
	// partition opens one partition on a private filesystem, lets work
	// drive it, and reports its counters and files.
	partition := func(opts lsm.Options, work func(t *testing.T, p *lsm.Partition)) scenario {
		return func(t *testing.T) knobOutcome {
			fsys := lsm.NewMemFS()
			p, err := lsm.OpenPartition(fsys, "part", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			work(t, p)
			out := knobOutcome{runs: p.Runs()}
			names, err := fsys.List("part")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if strings.HasPrefix(name, "wal-") {
					out.walSegs++
				}
			}
			out.storage.Stats = p.Stats()
			if opts.BlockCache != nil {
				out.storage.CacheStats = opts.BlockCache.Stats()
			}
			return out
		}
	}
	congested := func(holders, frame int) Config {
		return fast(Config{Nodes: 1, HolderCapacity: holders, FrameCapacity: frame})
	}

	knobs := []struct {
		field  string
		a, b   scenario // the same scenario under two values of the field
		differ func(t *testing.T, a, b knobOutcome)
	}{
		{"Config.Nodes",
			func(t *testing.T) knobOutcome { return knobOutcome{count: eventsPartitions(t, fast(Config{Nodes: 1}))} },
			func(t *testing.T) knobOutcome { return knobOutcome{count: eventsPartitions(t, fast(Config{Nodes: 3}))} },
			func(t *testing.T, a, b knobOutcome) {
				if a.count != 1 || b.count != 3 {
					t.Errorf("a dataset has %d partitions on 1 node and %d on 3, want 1 and 3", a.count, b.count)
				}
			}},
		{"Config.DispatchOverheadPerNode",
			feed(Config{Nodes: 1, DispatchOverheadPerNode: 40 * time.Millisecond, InvokeOverheadPerNode: 1}, `"batch-size": 10`, 0, 10),
			feed(fast(Config{Nodes: 1}), `"batch-size": 10`, 0, 10),
			func(t *testing.T, a, b knobOutcome) {
				// Starting a feed dispatches its jobs; each pays the overhead.
				if a.elapsed < 40*time.Millisecond || b.elapsed >= a.elapsed {
					t.Errorf("a feed took %v with a 40ms dispatch overhead and %v with none", a.elapsed, b.elapsed)
				}
			}},
		{"Config.InvokeOverheadPerNode",
			feed(Config{Nodes: 1, DispatchOverheadPerNode: 1, InvokeOverheadPerNode: 10 * time.Millisecond}, `"batch-size": 10`, 0, 100),
			feed(fast(Config{Nodes: 1}), `"batch-size": 10`, 0, 100),
			func(t *testing.T, a, b knobOutcome) {
				if a.feed.MeanRefresh < 10*time.Millisecond || b.feed.MeanRefresh >= a.feed.MeanRefresh {
					t.Errorf("mean refresh %v with a 10ms invoke overhead and %v with none", a.feed.MeanRefresh, b.feed.MeanRefresh)
				}
			}},
		{"Config.HolderCapacity",
			feed(congested(2, 8), `"batch-size": 32`, 30*time.Microsecond, 400),
			feed(congested(256, 8), `"batch-size": 32`, 30*time.Microsecond, 400),
			func(t *testing.T, a, b knobOutcome) {
				// 400 records are 50 frames: a 2-frame ring overflows into
				// the spill lane, a 256-frame ring holds them all.
				if a.feed.SpilledFrames == 0 || b.feed.SpilledFrames != 0 {
					t.Errorf("spilled frames: %d with a 2-frame ring, %d with a 256-frame ring", a.feed.SpilledFrames, b.feed.SpilledFrames)
				}
			}},
		{"Config.FrameCapacity",
			feed(congested(2, 4), `"batch-size": 64`, 30*time.Microsecond, 400),
			feed(congested(2, 16), `"batch-size": 64`, 30*time.Microsecond, 400),
			func(t *testing.T, a, b knobOutcome) {
				if a.feed.SpilledFrames == 0 || b.feed.SpilledFrames == 0 {
					t.Fatalf("nothing spilled (%d, %d frames): no frame to measure", a.feed.SpilledFrames, b.feed.SpilledFrames)
				}
				perA := float64(a.feed.SpilledRecords) / float64(a.feed.SpilledFrames)
				perB := float64(b.feed.SpilledRecords) / float64(b.feed.SpilledFrames)
				if perA > 4 || perB <= 4 || perB > 16 {
					t.Errorf("%.1f records per frame at capacity 4, %.1f at capacity 16", perA, perB)
				}
			}},
		{"Config.DataDir",
			func(t *testing.T) knobOutcome {
				return knobOutcome{count: filesLeftBy(t, fast(Config{Nodes: 1}), false)}
			},
			func(t *testing.T) knobOutcome {
				return knobOutcome{count: filesLeftBy(t, fast(Config{Nodes: 1}), true)}
			},
			func(t *testing.T, a, b knobOutcome) {
				if a.count != 0 || b.count == 0 {
					t.Errorf("%d files on disk without a DataDir, %d with one", a.count, b.count)
				}
			}},
		{"Config.BlockCacheBytes",
			func(t *testing.T) knobOutcome { return rescan(t, fast(Config{Nodes: 1, BlockCacheBytes: -1})) },
			func(t *testing.T) knobOutcome { return rescan(t, fast(Config{Nodes: 1})) },
			func(t *testing.T, a, b knobOutcome) {
				if a.storage.BlockCacheHits != 0 || b.storage.BlockCacheHits == 0 {
					t.Errorf("cache hits: %d with the cache disabled, %d with the default budget", a.storage.BlockCacheHits, b.storage.BlockCacheHits)
				}
			}},
		{"Options.MemBudget",
			partition(lsm.Options{MemBudget: 4 << 10}, write200),
			partition(lsm.Options{MemBudget: 8 << 20}, write200),
			func(t *testing.T, a, b knobOutcome) {
				if a.storage.Flushes == 0 || b.storage.Flushes != 0 {
					t.Errorf("200 records froze the memtable %d times under a 4 KiB budget, %d under 8 MiB", a.storage.Flushes, b.storage.Flushes)
				}
			}},
		{"Options.MaxComponents",
			partition(lsm.Options{MaxComponents: 2}, threeRuns),
			partition(lsm.Options{MaxComponents: 64}, threeRuns),
			func(t *testing.T, a, b knobOutcome) {
				// Three runs are too few for a size tier; only the cap merges
				// them. The one-record run that follows joins either way.
				if a.runs != 2 || b.runs != 4 {
					t.Errorf("three runs and a small one ended as %d under a cap of 2 and %d under a cap of 64, want 2 and 4", a.runs, b.runs)
				}
			}},
		{"Options.WALSegBytes",
			partition(lsm.Options{WALSegBytes: 1 << 10}, write200),
			partition(lsm.Options{WALSegBytes: 1 << 20}, write200),
			func(t *testing.T, a, b knobOutcome) {
				if a.walSegs < 2 || b.walSegs != 1 {
					t.Errorf("200 records span %d WAL segments of 1 KiB and %d of 1 MiB", a.walSegs, b.walSegs)
				}
			}},
		{"Options.BlockCache",
			partition(lsm.Options{}, getTwice),
			partition(lsm.Options{BlockCache: lsm.NewBlockCache(1 << 20)}, getTwice),
			func(t *testing.T, a, b knobOutcome) {
				if a.storage.BlockReads < 400 || b.storage.BlockCacheHits == 0 || b.storage.BlockReads >= a.storage.BlockReads {
					t.Errorf("400 lookups: %d block reads uncached; %d block reads and %d hits cached",
						a.storage.BlockReads, b.storage.BlockReads, b.storage.BlockCacheHits)
				}
			}},
	}
	for _, k := range knobs {
		t.Run(k.field, func(t *testing.T) { k.differ(t, k.a(t), k.b(t)) })
	}
}

// knobCluster boots a cluster with the Events dataset and closes it
// with the test.
func knobCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.MustExecute(`
		CREATE TYPE ET AS OPEN { id: int64 };
		CREATE DATASET Events(ET) PRIMARY KEY id;
	`)
	return c
}

func knobInsert(t *testing.T, c *Cluster, n int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"id": %d, "pad": "pppppppppppppppppppppppppppppppp"},`, i)
	}
	c.MustExecute(`UPSERT INTO Events ([` + strings.TrimSuffix(b.String(), ",") + `]);`)
}

func knobUpsert(t *testing.T, p *lsm.Partition, lo, hi int64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		rec := adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(k), "pad", adm.String("pppppppppppppppppppppppppppppppp")))
		if err := p.Upsert(adm.Int(k), rec); err != nil {
			t.Fatal(err)
		}
	}
}

func knobFlush(t *testing.T, p *lsm.Partition) {
	t.Helper()
	p.Flush()
	if err := p.WaitForFlush(); err != nil {
		t.Fatal(err)
	}
}

func eventsPartitions(t *testing.T, cfg Config) int {
	t.Helper()
	ds, ok := knobCluster(t, cfg).inner.Dataset("Events")
	if !ok {
		t.Fatal("dataset Events missing")
	}
	return ds.NumPartitions()
}

// filesLeftBy boots a cluster — with a fresh directory as its DataDir
// when durable — stores some rows, closes it, and counts the files under
// the directory.
func filesLeftBy(t *testing.T, cfg Config, durable bool) int {
	t.Helper()
	dir := t.TempDir()
	if durable {
		cfg.DataDir = dir
	}
	c := knobCluster(t, cfg)
	knobInsert(t, c, 50)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	files := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// rescan stores rows, scans until the scan reads run-file blocks (the
// first snapshot freezes the memtable; the flusher then writes it out),
// scans twice more, and reports the storage counters.
func rescan(t *testing.T, cfg Config) knobOutcome {
	t.Helper()
	c := knobCluster(t, cfg)
	knobInsert(t, c, 300)
	scan := func() {
		if got := queryVals(t, c, `SELECT VALUE count(*) FROM Events e`); got[0].Int() != 300 {
			t.Fatalf("count = %v, want 300", got[0])
		}
	}
	for deadline := time.Now().Add(5 * time.Second); c.StorageStats().BlockReads == 0; scan() {
		if time.Now().After(deadline) {
			t.Fatal("scans never read a run-file block")
		}
	}
	scan()
	scan()
	return knobOutcome{storage: c.StorageStats()}
}

// write200 stores 200 records and leaves the rest to the engine.
func write200(t *testing.T, p *lsm.Partition) { knobUpsert(t, p, 0, 200) }

// threeRuns flushes three equal runs, then a one-record fourth. The
// flusher works through its wake-ups in order and compacts at the end of
// each, so once the fourth flush is done the third's compaction — the
// only one a cap can trigger here — has run or never will.
func threeRuns(t *testing.T, p *lsm.Partition) {
	for round := int64(0); round < 3; round++ {
		knobUpsert(t, p, round*100, round*100+100)
		knobFlush(t, p)
	}
	knobUpsert(t, p, 300, 301)
	knobFlush(t, p)
}

// getTwice flushes 200 records to a run and looks each up twice.
func getTwice(t *testing.T, p *lsm.Partition) {
	knobUpsert(t, p, 0, 200)
	knobFlush(t, p)
	for pass := 0; pass < 2; pass++ {
		for k := int64(0); k < 200; k++ {
			if _, ok, _ := p.Get(adm.Int(k)); !ok {
				t.Fatalf("key %d lost", k)
			}
		}
	}
}
