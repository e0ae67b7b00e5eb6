package lsm

import (
	"maps"
	"runtime"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

// heldView is a snapshot and the model the partition held when it was
// taken.
type heldView struct {
	snap  *Snapshot
	model map[int64]int64
}

// churnWithSnapshots writes rounds of upserts and deletes, flushes each
// round to a run, snapshots it, and forces compactions in between — so
// every snapshot reaches runs that a later compaction replaces.
func churnWithSnapshots(t *testing.T, p *Partition) []heldView {
	t.Helper()
	var views []heldView
	model := map[int64]int64{}
	for round := int64(0); round < 6; round++ {
		for i := int64(0); i < 200; i++ {
			k := (round*37 + i*7) % 500
			if i%9 == 0 {
				if _, err := p.Delete(adm.Int(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
				continue
			}
			v := round*1000 + i
			if err := p.Upsert(adm.Int(k), rec(k, "v", adm.Int(v), "pad", adm.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		p.Flush()
		if err := p.WaitForFlush(); err != nil {
			t.Fatal(err)
		}
		views = append(views, heldView{p.Snapshot(), maps.Clone(model)})
		if round%2 == 1 {
			forceCompaction(p)
		}
	}
	forceCompaction(p)
	return views
}

// TestReplacedRunsCloseWithLastReader: a run file compaction replaced
// stays open and readable exactly as long as a snapshot (or a cursor
// made from one) can reach it. While the snapshots are held, each still scans to the model
// of its moment; once they are dropped and collected, the only open run
// files are the partition's own components.
func TestReplacedRunsCloseWithLastReader(t *testing.T) {
	filesystems := map[string]func(t *testing.T) (FS, string){
		"MemFS": func(*testing.T) (FS, string) { return NewMemFS(), "part" },
		"OSFS":  func(t *testing.T) (FS, string) { return NewOSFS(), t.TempDir() },
	}
	for name, mk := range filesystems {
		t.Run(name, func(t *testing.T) {
			fsys, dir := mk(t)
			p, err := OpenPartition(fsys, dir, Options{MemBudget: 1 << 20, MaxComponents: 64, BlockCache: NewBlockCache(1 << 20)})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			views := churnWithSnapshots(t, p)
			if open, runs := p.Stats().OpenRunFiles, p.Runs(); open <= runs {
				t.Fatalf("%d open run files for %d runs: the snapshots reach no replaced run, the test proves nothing", open, runs)
			}
			for i, v := range views {
				n := 0
				err := v.snap.Scan(func(key, rec adm.Value) bool {
					if want, ok := v.model[key.IntVal()]; !ok || rec.Field("v").IntVal() != want {
						t.Fatalf("snapshot %d: key %s = %s, model says %d (present %v)", i, key, rec, want, ok)
					}
					n++
					return true
				})
				if err != nil || n != len(v.model) {
					t.Fatalf("snapshot %d scanned %d of %d records, err %v", i, n, len(v.model), err)
				}
			}
			// A cursor keeps the snapshot it was made from reachable after
			// its maker let go: the oldest snapshot holds the first round's
			// one run.
			cu, want0 := views[0].snap.Cursor(), len(views[0].model)

			views = nil
			collected := func(want int) bool {
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					runtime.GC() // cleanups run on their own goroutine after the cycle
					if p.Stats().OpenRunFiles == want {
						return true
					}
				}
				return false
			}
			if !collected(p.Runs() + 1) {
				t.Fatalf("%d run files open for %d runs and one cursor after every snapshot was dropped and collected", p.Stats().OpenRunFiles, p.Runs())
			}
			n := 0
			for _, _, ok := cu.Next(); ok; _, _, ok = cu.Next() {
				n++
			}
			if n != want0 {
				t.Fatalf("the cursor read %d of %d records once its snapshot was gone", n, want0)
			}
			if !collected(p.Runs()) {
				t.Fatalf("%d run files still open for %d runs after the last reader finished", p.Stats().OpenRunFiles, p.Runs())
			}
			if st := p.Stats(); st.Components != p.Runs() {
				t.Fatalf("%d components for %d runs", st.Components, p.Runs())
			}
		})
	}
}
