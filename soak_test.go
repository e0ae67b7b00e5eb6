package idea

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

// TestSoakResourcesReturnToBaseline churns a cluster for a fixed budget
// of operations — a feed enriching against a reference dataset while the
// test upserts and deletes reference rows, opens queries it abandons
// after a few rows and closes, and every one of those snapshots freezes
// a memtable for the flusher to write out and compact — and then
// requires everything a long-lived server could leak to be back where it
// was after setup: every open run file is a live component's (a replaced
// run closes with its last snapshot or cursor), no cache block is pinned
// (a live cursor would pin one), and no goroutine was left behind. It
// holds wherever the engine keeps its files.
func TestSoakResourcesReturnToBaseline(t *testing.T) {
	t.Run("memory", func(t *testing.T) { soak(t, "") })
	t.Run("directory", func(t *testing.T) { soak(t, t.TempDir()) })
}

func soak(t *testing.T, dataDir string) {
	const (
		records = 6000
		ops     = 300
		refKeys = 100
	)
	ctx := context.Background()
	c, err := NewCluster(Config{Nodes: 2, DispatchOverheadPerNode: 1, InvokeOverheadPerNode: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MustExecute(`
		CREATE TYPE RefT AS OPEN { k: string };
		CREATE DATASET Ref(RefT) PRIMARY KEY k;
		CREATE TYPE OutT AS OPEN { id: int64 };
		CREATE DATASET Out(OutT) PRIMARY KEY id;
		CREATE FUNCTION tag(t) {
			LET vs = (SELECT VALUE r.v FROM Ref r WHERE r.k = t.k)
			SELECT t.*, vs
		};
		CREATE FEED F WITH { "adapter-name": "channel_adapter", "batch-size": 100 };
		CONNECT FEED F TO DATASET Out APPLY FUNCTION tag;
	`)
	refKey := func(i int) string { return fmt.Sprintf("k%03d", i%refKeys) }
	for i := 0; i < refKeys; i++ {
		c.MustExecute(`UPSERT INTO Ref ([{"k": $1, "v": 0}]);`, refKey(i))
	}
	ref, ok := c.inner.Dataset("Ref")
	if !ok {
		t.Fatal("dataset Ref missing")
	}
	// peek opens a query, reads at most k rows, and closes it.
	peek := func(q string, k int) {
		t.Helper()
		rows, err := c.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k && rows.Next(); i++ {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// quiesced waits until the flushers are idle and every reader's
	// references have been collected, and returns the storage gauges.
	quiesced := func(when string) StorageStats {
		t.Helper()
		var st StorageStats
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			runtime.GC() // snapshot references drop on collection
			if st = c.StorageStats(); st.OpenRunFiles == st.Components {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d open run files for %d components", when, st.OpenRunFiles, st.Components)
			}
		}
	}
	peek(`SELECT VALUE r FROM Ref r`, 3)
	quiesced("after setup")
	goroutines := runtime.NumGoroutine()

	feedRecords := make([][]byte, records)
	for i := range feedRecords {
		feedRecords[i] = []byte(fmt.Sprintf(`{"id":%d,"k":"%s"}`, i, refKey(i)))
	}
	if err := c.SetFeedSource("F", func(int) (FeedSource, error) {
		return &pacedSource{records: feedRecords, delay: 20 * time.Microsecond}, nil
	}); err != nil {
		t.Fatal(err)
	}
	feed := c.MustExecute(`START FEED F;`).Feeds()[0]
	for op := 0; op < ops; op++ {
		c.MustExecute(`UPSERT INTO Ref ([{"k": $1, "v": $2}]);`, refKey(op*7), int64(op))
		if op%5 == 0 {
			if _, err := ref.Delete(adm.String(refKey(op * 3))); err != nil {
				t.Fatal(err)
			}
		}
		peek(`SELECT VALUE o.id FROM Out o`, 5)
		peek(`SELECT VALUE r FROM Ref r WHERE r.v >= 0`, 2)
	}
	if err := feed.Wait(); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.DatasetLen("Out"); n != records {
		t.Fatalf("feed stored %d of %d records", n, records)
	}

	st := quiesced("after the soak")
	if st.Merges == 0 || st.FlushedRuns == 0 {
		t.Fatalf("the soak ran %d flushes and %d compactions: it replaced no run, and proves nothing", st.FlushedRuns, st.Merges)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the soak, %d after setup", runtime.NumGoroutine(), goroutines)
		}
	}
}
