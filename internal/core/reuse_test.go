package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/lsm"
)

// Tests for enrichment-state reuse across batches. What they guard is
// the paper's Model 2, stated as an invariant: a batch's enrichment
// observes every reference write acknowledged before the batch began.

// reuseCluster is a two-node cluster (so reference datasets have two
// partitions, each with its own LSN) with an untyped target dataset Out
// and two small reference datasets.
func reuseCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	tuning := cluster.DefaultTuning()
	tuning.DispatchOverheadPerNode = 0
	tuning.InvokeOverheadPerNode = 0
	c, err := cluster.New(2, tuning)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, ds := range []struct{ name, pk string }{{"Out", "id"}, {"Ratings", "k"}, {"Tags", "k"}} {
		if _, err := c.CreateDataset(ds.name, "", ds.pk); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func mustDataset(t *testing.T, c *cluster.Cluster, name string) *lsm.Dataset {
	t.Helper()
	ds, ok := c.Dataset(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	return ds
}

func refRow(key string, version int64) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs("k", adm.String(key), "grp", adm.String("g"), "v", adm.Int(version)))
}

func createFunction(t *testing.T, c *cluster.Cluster, ddl string) {
	t.Helper()
	fn, err := parseDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFunction(fn); err != nil {
		t.Fatal(err)
	}
}

// viewUDF joins every Ratings row to each record (one shared grp), so a
// stored record carries the whole reference dataset as its batch saw it.
const viewUDF = `CREATE FUNCTION viewOf(t) {
	LET ratings = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.grp = t.grp)
	SELECT t.*, ratings
};`

// pkViewUDF carries the same view through five probes of Ratings'
// primary index, one per key a test writes (the record lists them), so
// every lookup reads the batch's pinned snapshot.
const pkViewUDF = `CREATE FUNCTION pkViewOf(t) {
	LET ratings0 = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.k = t.keys[0]),
	    ratings1 = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.k = t.keys[1]),
	    ratings2 = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.k = t.keys[2]),
	    ratings3 = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.k = t.keys[3]),
	    ratings4 = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.k = t.keys[4])
	SELECT t.*, ratings0, ratings1, ratings2, ratings3, ratings4
};`

// steppedFeed drives a feed one record — one invocation — at a time.
// The pipeline runs on node 0 alone with BatchSize 1, so every record
// is its own frame and its own computing job, and the test knows
// between which of its own actions each job's state was refreshed:
// after it sent the previous record, and before it saw the job counted
// as started.
type steppedFeed struct {
	t    *testing.T
	f    *Feed
	ch   chan []byte
	sent int
	// floor[i] precedes the start of record i's batch; ceil[i] follows
	// the end of its state refresh.
	floor, ceil []time.Time
}

func startStepped(t *testing.T, c *cluster.Cluster, function string, recompile bool) *steppedFeed {
	t.Helper()
	s := &steppedFeed{t: t, ch: make(chan []byte), floor: []time.Time{time.Now()}}
	f, err := Start(context.Background(), c, Config{
		Name:              "stepped",
		Dataset:           "Out",
		Function:          function,
		BatchSize:         1,
		Nodes:             []int{0},
		RecompilePerBatch: recompile,
		NewAdapter:        func(int) (Adapter, error) { return &ChannelAdapter{C: s.ch}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.f = f
	return s
}

// started counts invocations whose state is ready.
func (s *steppedFeed) started() int {
	st := s.f.Stats()
	return int(st.StateBuilds + st.StateReuses)
}

// step waits until the invocation that will take the next record holds
// its state, runs between (reference writes the *following* batch must
// observe), then sends the record. It returns the record's id.
func (s *steppedFeed) step(between func()) int {
	s.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.started() < s.sent+1 {
		if err := context.Cause(s.f.ctx); err != nil {
			s.t.Fatalf("feed failed: %v", err)
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("invocation %d never started", s.sent)
		}
		time.Sleep(20 * time.Microsecond)
	}
	s.ceil = append(s.ceil, time.Now())
	if between != nil {
		between()
	}
	s.floor = append(s.floor, time.Now())
	id := s.sent
	s.ch <- steppedRecord(id)
	s.sent++
	return id
}

// steppedRecord is the record a stepped feed sends as its id'th: one
// shared grp for viewOf, and the keys pkViewOf looks up.
func steppedRecord(id int) []byte {
	return []byte(fmt.Sprintf(`{"id":%d,"grp":"g","keys":["own","u0","u1","u2","u3"]}`, id))
}

// finish drains the feed and returns what it stored, by id.
func (s *steppedFeed) finish(c *cluster.Cluster) map[int]adm.Value {
	s.t.Helper()
	close(s.ch)
	if err := s.f.Wait(); err != nil {
		s.t.Fatal(err)
	}
	out := make(map[int]adm.Value, s.sent)
	sc := mustDataset(s.t, c, "Out").Scan()
	for key, rec, ok := sc.Next(); ok; key, rec, ok = sc.Next() {
		out[int(key.IntVal())] = rec
	}
	if len(out) != s.sent {
		s.t.Fatalf("stored %d records, sent %d", len(out), s.sent)
	}
	if s.f.prepared != nil || s.f.curInv.Load() != nil {
		s.t.Error("a stopped feed still holds its enrichment state")
	}
	return out
}

// view extracts key → version from a record enriched by viewOf or
// pkViewOf: the rows of every field named ratings….
func view(rec adm.Value) map[string]int64 {
	out := map[string]int64{}
	o := rec.ObjectVal()
	for i := range o.Len() {
		if !strings.HasPrefix(o.Name(i), "ratings") {
			continue
		}
		for _, r := range o.At(i).ArrayVal() {
			out[r.Field("k").StringVal()] = r.Field("v").IntVal()
		}
	}
	return out
}

// refEvent is one reference write: the sequence number it stored under
// its key (or removed the key), bracketed by wall-clock readings taken
// before the call and after it returned.
type refEvent struct {
	seq           int64
	deleted       bool
	issued, acked time.Time
}

// refLog records every reference write per key. Each key has a single
// writer, so its events are totally ordered.
type refLog struct {
	ds     *lsm.Dataset
	mu     sync.Mutex
	events map[string][]refEvent
}

func newRefLog(ds *lsm.Dataset, keys ...string) *refLog {
	now := time.Now()
	l := &refLog{ds: ds, events: map[string][]refEvent{}}
	for _, k := range keys {
		l.events[k] = []refEvent{{deleted: true, issued: now, acked: now}} // initially absent
	}
	return l
}

func (l *refLog) write(t *testing.T, key string, del bool) {
	l.mu.Lock()
	seq := int64(len(l.events[key]))
	l.mu.Unlock()
	ev := refEvent{seq: seq, deleted: del, issued: time.Now()}
	var err error
	if del {
		_, err = l.ds.Delete(adm.String(key))
	} else {
		err = l.ds.Upsert(refRow(key, seq))
	}
	if err != nil {
		t.Error(err)
	}
	ev.acked = time.Now()
	l.mu.Lock()
	l.events[key] = append(l.events[key], ev)
	l.mu.Unlock()
}

// check verifies the invariant for one stored record: for every key,
// what the record shows is the outcome of some write no older than the
// newest one acknowledged before the record's batch began (and not one
// issued after its state was ready).
func (l *refLog) check(t *testing.T, id int, got map[string]int64, floor, ceil time.Time) {
	t.Helper()
	for key, events := range l.events {
		first := 0
		for j, ev := range events {
			if ev.acked.Before(floor) {
				first = j
			}
		}
		version, present := got[key]
		ok := false
		for _, ev := range events[first:] {
			if ev.issued.After(ceil) {
				break
			}
			if ev.deleted != present && (ev.deleted || ev.seq == version) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("record %d, key %s: shows version %d (present=%v), but write #%d was acknowledged before its batch began",
				id, key, version, present, events[first].seq)
		}
	}
}

// runModel2 drives rounds one-record batches through the function ddl
// declares (viewOf or pkViewOf). The test
// goroutine writes key "own" between batches on a fixed script; with
// racing set, a second goroutine upserts and deletes four more keys
// concurrently for the first two thirds of the run. Every stored record
// is checked against the invariant.
func runModel2(t *testing.T, ddl string, rounds int, recompile, racing bool) (map[int]map[string]int64, FeedStats) {
	t.Helper()
	c := reuseCluster(t)
	createFunction(t, c, ddl)
	log := newRefLog(mustDataset(t, c, "Ratings"), "own", "u0", "u1", "u2", "u3")
	fn, err := parseDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	s := startStepped(t, c, fn.Name, recompile)

	stop := make(chan struct{})
	var updater sync.WaitGroup
	if racing {
		updater.Add(1)
		go func() {
			defer updater.Done()
			r := rand.New(rand.NewSource(13))
			for {
				select {
				case <-stop:
					return
				default:
				}
				log.write(t, fmt.Sprintf("u%d", r.Intn(4)), r.Intn(4) == 0)
				time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if i == rounds*2/3 {
			close(stop)
			updater.Wait()
		}
		var between func()
		// The last dozen rounds are quiet, so state must be reused there
		// whatever the scheduler did before.
		if i < rounds-12 && i%2 == 0 {
			del := i%10 == 8
			between = func() { log.write(t, "own", del) }
		}
		s.step(between)
	}
	stored := s.finish(c)

	views := make(map[int]map[string]int64, len(stored))
	for id, rec := range stored {
		views[id] = view(rec)
		log.check(t, id, views[id], s.floor[id], s.ceil[id])
	}
	return views, s.f.Stats()
}

// TestModel2Invariant is the Model-2 invariant under reuse: with
// reference rows upserted and deleted beside ingestion, every stored
// record carries ratings at least as new as the newest acknowledged
// before its batch began — with state reuse and with the
// rebuild-every-batch ablation, through a patched hash table and through
// probes of the primary index — and on the same scripted input all of
// them store identical data. Run under -race.
func TestModel2Invariant(t *testing.T) {
	t.Run("racing updates", func(t *testing.T) {
		_, st := runModel2(t, viewUDF, 600, false, true)
		if st.StateReuses < 10 {
			t.Errorf("reuses = %d over a quiet tail of 12 batches", st.StateReuses)
		}
		if st.StateBuilds < 295 {
			t.Errorf("builds = %d, fewer than the scripted writes alone require", st.StateBuilds)
		}
		if st.AccessPatches == 0 {
			t.Error("no refresh patched the hash table")
		}
	})
	t.Run("pk probe, racing updates", func(t *testing.T) {
		_, st := runModel2(t, pkViewUDF, 600, false, true)
		if st.StateReuses < 10 {
			t.Errorf("reuses = %d over a quiet tail of 12 batches", st.StateReuses)
		}
		if st.StateBuilds < 295 {
			t.Errorf("refreshes = %d, fewer than the scripted writes alone require", st.StateBuilds)
		}
		if b, p := st.AccessBuilds, st.AccessPatches; b != 0 || p != 0 {
			t.Errorf("%d accesses built, %d patched; a primary-key probe only pins", b, p)
		}
	})
	t.Run("reuse equals rebuild-every-batch", func(t *testing.T) {
		reuse, st := runModel2(t, viewUDF, 120, false, false)
		// 54 scripted writes, each seen by exactly the next batch, plus
		// the initial build; every other batch must have reused.
		if b, r := st.StateBuilds, st.StateReuses; b != 55 || r != 121-55 {
			t.Errorf("reuse run: %d builds, %d reuses; want 55 and 66", b, r)
		}
		if st.AccessPatches == 0 {
			t.Error("reuse run: no refresh patched the hash table")
		}
		rebuild, st := runModel2(t, viewUDF, 120, true, false)
		if b, r := st.StateBuilds, st.StateReuses; b != 121 || r != 0 {
			t.Errorf("RecompilePerBatch run: %d builds, %d reuses; it must rebuild unconditionally", b, r)
		}
		if !reflect.DeepEqual(reuse, rebuild) {
			t.Errorf("reuse and rebuild-every-batch stored different data:\nreuse   %v\nrebuild %v", reuse, rebuild)
		}
		pk, st := runModel2(t, pkViewUDF, 120, false, false)
		if b, r := st.StateBuilds, st.StateReuses; b != 55 || r != 121-55 || st.AccessBuilds != 0 {
			t.Errorf("primary-key run: %d refreshes, %d reuses, %d accesses built; want 55, 66 and 0", b, r, st.AccessBuilds)
		}
		if !reflect.DeepEqual(reuse, pk) {
			t.Errorf("the hash join and the primary-key probes stored different data:\nhash %v\npk   %v", reuse, pk)
		}
	})
}

// TestReuseAcrossDropAndCreate: a reference dataset dropped and
// re-created under the same name between two batches, with as many
// writes per partition as before so the LSNs coincide, must still be
// noticed — the stamp carries the dataset's identity.
func TestReuseAcrossDropAndCreate(t *testing.T) {
	c := reuseCluster(t)
	createFunction(t, c, viewUDF)
	old := mustDataset(t, c, "Ratings")
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if err := old.Upsert(refRow(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s := startStepped(t, c, "viewOf", false)
	s.step(nil)
	s.step(func() {
		if err := c.DropDataset("Ratings"); err != nil {
			t.Fatal(err)
		}
		fresh, err := c.CreateDataset("Ratings", "", "k")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := fresh.Upsert(refRow(k, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(fresh.Epoch(), old.Epoch()) {
			t.Fatalf("test needs coinciding LSNs, got %v vs %v", fresh.Epoch(), old.Epoch())
		}
	})
	last := s.step(nil)
	stored := s.finish(c)
	for k, v := range view(stored[last]) {
		if v != 2 {
			t.Errorf("key %s: version %d from the dropped dataset", k, v)
		}
	}
	if got := len(view(stored[last])); got != len(keys) {
		t.Errorf("record shows %d ratings, want %d", got, len(keys))
	}
}

// TestReuseWithLazilyPinnedDataset: the subquery names an outer LET, so
// the planner leaves it to generic evaluation, which pins Ratings at
// the first record rather than at Prepare. That pin's stamp must end
// reuse all the same.
func TestReuseWithLazilyPinnedDataset(t *testing.T) {
	c := reuseCluster(t)
	createFunction(t, c, `CREATE FUNCTION lazyView(t) {
		LET g = t.grp,
		    ratings = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.grp = g)
		SELECT t.*, ratings
	};`)
	ratings := mustDataset(t, c, "Ratings")
	if err := ratings.Upsert(refRow("a", 1)); err != nil {
		t.Fatal(err)
	}
	s := startStepped(t, c, "lazyView", false)
	if d := s.f.plan.Describe(); len(d) != 0 {
		t.Fatalf("subquery was compiled after all: %v", d)
	}
	first := s.step(nil) // pins Ratings while evaluating
	s.step(nil)          // quiet: reuses the state and its lazy pin
	s.step(func() {
		if err := ratings.Upsert(refRow("a", 2)); err != nil {
			t.Fatal(err)
		}
	})
	last := s.step(nil)
	stored := s.finish(c)
	if got := view(stored[first])["a"]; got != 1 {
		t.Errorf("first record shows version %d, want 1", got)
	}
	if got := view(stored[last])["a"]; got != 2 {
		t.Errorf("record batched after the acknowledged write shows version %d, want 2", got)
	}
	st := s.f.Stats()
	if st.StateReuses == 0 {
		t.Error("the quiet batch did not reuse the state")
	}
	if st.AccessBuilds != 0 {
		t.Errorf("AccessBuilds = %d for a plan with nothing compiled", st.AccessBuilds)
	}
}

// TestReuseRebuildsOnlyTheWrittenDataset: a UDF over two reference
// datasets, one of which is written between batches. Exactly one access
// structure is patched, and the record enriched from the patched state
// equals what a full rebuild produces.
func TestReuseRebuildsOnlyTheWrittenDataset(t *testing.T) {
	c := reuseCluster(t)
	createFunction(t, c, `CREATE FUNCTION twoRefs(t) {
		LET ratings = (SELECT r.k AS k, r.v AS v FROM Ratings r WHERE r.grp = t.grp),
		    tags = (SELECT VALUE g.v FROM Tags g WHERE g.grp = t.grp)
		SELECT t.*, ratings, tags
	};`)
	ratings, tags := mustDataset(t, c, "Ratings"), mustDataset(t, c, "Tags")
	for _, ds := range []*lsm.Dataset{ratings, tags} {
		for i, k := range []string{"a", "b", "c"} {
			if err := ds.Upsert(refRow(k, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := startStepped(t, c, "twoRefs", false)
	s.step(nil)
	s.step(func() {
		if err := tags.Upsert(refRow("b", 40)); err != nil {
			t.Fatal(err)
		}
	})
	last := s.step(nil)
	s.step(nil)
	plan := s.f.plan
	stored := s.finish(c)

	st := s.f.Stats()
	b, a, p, r := st.StateBuilds, st.AccessBuilds, st.AccessPatches, st.StateReuses
	if b != 2 || a != 2 || p != 1 || r != 3 {
		t.Errorf("builds=%d accesses built=%d patched=%d reuses=%d; want 2 builds, 2 structures built then 1 patched, and 3 reuses", b, a, p, r)
	}
	full, err := plan.Prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	in, err := adm.ParseJSON(steppedRecord(last))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.EvalRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Equal(stored[last], want) {
		t.Errorf("patched state stored %v, a full rebuild gives %v", stored[last], want)
	}
}
