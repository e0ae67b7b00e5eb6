package query

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
)

// membersUDF probes a filtered hash access whose chains hold many
// entries: the ids array shows a chain's order as it is read.
const membersUDF = `CREATE FUNCTION activeMembers(t) {
	LET ids = (SELECT VALUE m.id FROM Members m WHERE m.grp = t.grp AND m.active)
	SELECT t.*, ids
};`

func member(id int64, grp int, active bool) adm.Value {
	return obj("id", adm.Int(id), "grp", adm.String(fmt.Sprintf("g%d", grp)), "active", adm.Bool(active))
}

// sameEnrichment fails the test unless pe enriches every input exactly
// as a fresh Prepare does, byte for byte and in order.
func sameEnrichment(t *testing.T, round int, plan *EnrichPlan, pe *PreparedEnrich, cat Catalog, inputs []adm.Value) {
	t.Helper()
	fresh, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		got, want := mustEval(t, pe, in), mustEval(t, fresh, in)
		if !bytes.Equal(adm.AppendBinary(nil, got), adm.AppendBinary(nil, want)) {
			t.Fatalf("round %d, %s: refreshed state gives %v, a fresh Prepare %v", round, plan.Name, got, want)
		}
	}
}

// TestRefreshPatchMatchesFreshPrepare: Q1, Q2 (a sum over a chain), Q3
// (ORDER BY … LIMIT 3 over a chain, populations drawn to tie) and a
// filtered multi-entry-chain UDF, each refreshed after every round of
// random writes to their reference datasets — build keys changed, rows
// moved in and out of the filter, deleted, re-inserted, and partitions
// flushed — must enrich exactly as a state prepared from scratch. The
// hash accesses are patched; Q1 probes SafetyRatings' primary index, so
// its refreshes only pin again and never build or patch.
func TestRefreshPatchMatchesFreshPrepare(t *testing.T) {
	cat := paperCatalog(t)
	var members []adm.Value
	for i := range int64(300) {
		members = append(members, member(i, int(i%7), i%5 != 0))
	}
	cat.addDataset(t, "Members", "id", 3, members...)
	cat.addSQLFunction(t, membersUDF)

	countries := []string{"US", "FR", "DE", "BR", "IN", "CN", "JP", "MX", "GB", "IT", "NZ", "ZA"}
	var tweets []adm.Value
	for i, c := range countries {
		tweets = append(tweets, obj("id", adm.Int(int64(i)), "country", adm.String(c)))
	}
	var groups []adm.Value
	for g := range 8 { // g7 starts empty
		groups = append(groups, obj("id", adm.Int(int64(g)), "grp", adm.String(fmt.Sprintf("g%d", g))))
	}
	type state struct {
		plan    *EnrichPlan
		pe      *PreparedEnrich
		inputs  []adm.Value
		patched int
	}
	var states []*state
	for _, name := range []string{"enrichTweetQ1", "enrichTweetQ2", "enrichTweetQ3", "activeMembers"} {
		plan := compilePaperUDF(t, cat, name, PlanOptions{})
		pe, err := plan.Prepare(cat)
		if err != nil {
			t.Fatal(err)
		}
		inputs := tweets
		if name == "activeMembers" {
			inputs = groups
		}
		states = append(states, &state{plan: plan, pe: pe, inputs: inputs})
	}

	ratings, _ := cat.Dataset("SafetyRatings")
	pops, _ := cat.Dataset("ReligiousPopulations")
	mems, _ := cat.Dataset("Members")
	religions := []string{"alpha", "beta", "gamma", "delta"}
	r := rand.New(rand.NewSource(34))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := range 80 {
		writeRatings(t, r, ratings, countries)
		for range r.Intn(6) {
			rid := adm.String(fmt.Sprintf("rp%d", r.Intn(50)))
			if r.Intn(4) == 0 {
				_, err := pops.Delete(rid)
				must(err)
			} else {
				must(pops.Upsert(obj("rid", rid, "country_name", adm.String(countries[r.Intn(len(countries))]),
					"religion_name", adm.String(religions[r.Intn(len(religions))]),
					"population", adm.Int(int64(r.Intn(4))*1000))))
			}
		}
		for range r.Intn(8) {
			id := r.Int63n(320)
			if r.Intn(5) == 0 {
				_, err := mems.Delete(adm.Int(id))
				must(err)
			} else {
				must(mems.Upsert(member(id, r.Intn(8), r.Intn(4) != 0)))
			}
		}
		if r.Intn(6) == 0 {
			flushAll(t, []*lsm.Dataset{ratings, pops, mems}[r.Intn(3)])
		}
		for _, s := range states {
			next, err := s.pe.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			s.patched += next.Patched()
			if isPK(s.plan) && next.Built()+next.Patched() != 0 {
				t.Fatalf("round %d, %s: built %d, patched %d; a primary-key probe builds nothing", round, s.plan.Name, next.Built(), next.Patched())
			}
			s.pe = next
			sameEnrichment(t, round, s.plan, s.pe, cat, s.inputs)
		}
	}
	for _, s := range states {
		t.Logf("%s: %d of 80 refreshes patched", s.plan.Name, s.patched)
		if !isPK(s.plan) && s.patched < 40 {
			t.Errorf("%s: too few refreshes patched", s.plan.Name)
		}
	}
}

// writeRatings is one round's random writes to SafetyRatings: up to
// three upserts of a new rating or deletes, each of a random country.
func writeRatings(t *testing.T, r *rand.Rand, ratings *lsm.Dataset, countries []string) {
	t.Helper()
	for range r.Intn(4) {
		c := adm.String(countries[r.Intn(len(countries))])
		var err error
		if r.Intn(4) == 0 {
			_, err = ratings.Delete(c)
		} else {
			err = ratings.Upsert(obj("country_code", c, "safety_rating", adm.String(fmt.Sprint(r.Intn(5)+1))))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// isPK reports whether plan's one compiled subquery probes a primary
// index.
func isPK(plan *EnrichPlan) bool {
	d := plan.Describe()
	return len(d) == 1 && strings.HasPrefix(d[0], "pk(")
}

// TestRefreshPatchReadFault: a read fault while a patch reads the
// changed keys fails Refresh with the fault. The access it was patching
// is spent, so the next Refresh — faults off, the faulted runs
// compacted away — rebuilds it and matches a fresh Prepare. A
// primary-key access reads nothing at Refresh: the refresh succeeds, and
// the first probe into the unreadable run fails its record with the
// fault instead of enriching it with "no match".
func TestRefreshPatchReadFault(t *testing.T) {
	for _, arm := range q1Arms {
		t.Run(arm.name, func(t *testing.T) {
			fsys := lsm.NewMemFS()
			ds, err := lsm.OpenDataset(fsys, "ratings", "SafetyRatings", nil, "country_code", 1,
				lsm.Options{MemBudget: 1 << 20, MaxComponents: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			rating := func(c, v string) adm.Value {
				return obj("country_code", adm.String(c), "safety_rating", adm.String(v))
			}
			for i := range 400 {
				if err := ds.Upsert(rating(fmt.Sprintf("C%03d", i), "1")); err != nil {
					t.Fatal(err)
				}
			}
			flushAll(t, ds)
			cat := paperCatalog(t)
			cat.datasets["SafetyRatings"] = ds
			plan := compilePaperUDF(t, cat, "enrichTweetQ1", arm.opts)
			if !strings.HasPrefix(plan.Describe()[0], arm.name+"(") {
				t.Fatalf("plan = %v, want a %s access", plan.Describe(), arm.name)
			}
			pe, err := plan.Prepare(cat)
			if err != nil {
				t.Fatal(err)
			}
			tweet := func(c string) adm.Value { return obj("id", adm.Int(1), "country", adm.String(c)) }

			// The write goes to a run of its own before the fault, so the
			// flusher has nothing to do while reads fail.
			if err := ds.Upsert(rating("C007", "2")); err != nil {
				t.Fatal(err)
			}
			flushAll(t, ds)
			fsys.FailReads(true)
			next, err := pe.Refresh()
			if arm.name == "pk" && err == nil {
				_, err = next.EvalRecord(tweet("C007"))
			}
			fsys.FailReads(false)
			if !errors.Is(err, lsm.ErrInjected) {
				t.Fatalf("with the changed runs unreadable, got %v; want the read fault", err)
			}

			// A third run makes the flusher merge the whole level into a
			// fresh one.
			p := ds.Partition(0)
			if err := ds.Upsert(rating("C008", "3")); err != nil {
				t.Fatal(err)
			}
			flushAll(t, ds)
			for deadline := time.Now().Add(10 * time.Second); p.Runs() != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d runs never compacted into one", p.Runs())
				}
			}
			if next != nil {
				pe = next // a primary-key access is not spent by a failed probe
			}
			next, err = pe.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if want := map[string]int{"hash": 1, "pk": 0}[arm.name]; next.Built() != want || next.Patched() != 0 {
				t.Fatalf("after the fault: built %d, patched %d; want %d built, none patched", next.Built(), next.Patched(), want)
			}
			var tweets []adm.Value
			for _, c := range []string{"C007", "C008", "C009", "ZZZ"} {
				tweets = append(tweets, tweet(c))
			}
			sameEnrichment(t, 0, plan, next, cat, tweets)
		})
	}
}

// TestRefreshPatchFailurePoisonsTheAccess: a build filter that fails on
// one new record fails the patch after it has already moved another
// record to a new chain. Retried after the bad record is gone, the
// refresh must rebuild the access: patching the half-patched table from
// the same stamp again would look for the moved record in its old chain
// and link it twice.
func TestRefreshPatchFailurePoisonsTheAccess(t *testing.T) {
	cat := newTestCatalog()
	cat.natives["testlib#vet"] = func(args []adm.Value) (adm.Value, error) {
		if args[0].IntVal() == 13 {
			return adm.Value{}, errors.New("vet: record 13 refused")
		}
		return adm.Bool(true), nil
	}
	var rows []adm.Value
	for i := range int64(10) {
		rows = append(rows, member(i, 0, true))
	}
	ds := cat.addDataset(t, "Members", "id", 1, rows...)
	cat.addSQLFunction(t, `CREATE FUNCTION vettedMembers(t) {
		LET ids = (SELECT VALUE m.id FROM Members m WHERE m.grp = t.grp AND testlib#vet(m.id))
		SELECT t.*, ids
	};`)
	plan := compilePaperUDF(t, cat, "vettedMembers", PlanOptions{})
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []adm.Value{member(5, 1, true), member(13, 1, true)} {
		if err := ds.Upsert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pe.Refresh(); err == nil {
		t.Fatal("Refresh patched in a record its filter refuses")
	}
	if _, err := ds.Delete(adm.Int(13)); err != nil {
		t.Fatal(err)
	}
	next, err := pe.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if next.Built() != 1 || next.Patched() != 0 {
		t.Fatalf("after the failed patch: built %d, patched %d; want the access rebuilt", next.Built(), next.Patched())
	}
	sameEnrichment(t, 0, plan, next, cat, []adm.Value{member(0, 0, true), member(0, 1, true)})
}

// TestRefreshPatchCollectsGarbage: a patch unlinks one entry per changed
// key and leaves it in its chunk; once unlinked entries would outnumber
// live ones the access is rebuilt instead, and a rebuilt table starts
// with none.
func TestRefreshPatchCollectsGarbage(t *testing.T) {
	cat := newTestCatalog()
	var rows []adm.Value
	for i := range int64(10) {
		rows = append(rows, member(i, int(i%3), true))
	}
	ds := cat.addDataset(t, "Members", "id", 2, rows...)
	cat.addSQLFunction(t, membersUDF)
	plan := compilePaperUDF(t, cat, "activeMembers", PlanOptions{})
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}
	access := func(pe *PreparedEnrich) *preparedAccess {
		for _, ps := range pe.probes {
			return ps.accesses[0]
		}
		return nil
	}
	// Each refresh rewrites three keys: three entries unlinked, three
	// linked. The table holds 10 live entries, so the fourth refresh
	// would take the dead count to 12 and must rebuild.
	for round := range 6 {
		for i := range int64(3) {
			if err := ds.Upsert(member(i, round%3, true)); err != nil {
				t.Fatal(err)
			}
		}
		next, reused := mustRefresh(t, pe)
		if reused {
			t.Fatal("refresh reused the state across writes")
		}
		pa := access(next)
		wantDead, wantBuilt := 3*(round%3+1), 0
		if round == 3 {
			wantDead, wantBuilt = 0, 1
		} else if round > 3 {
			wantDead = 3 * (round - 3)
		}
		if pa.dead != wantDead || next.Built() != wantBuilt || pa.live != 10 {
			t.Fatalf("round %d: built %d, %d live and %d dead entries; want built %d, 10 live, %d dead",
				round, next.Built(), pa.live, pa.dead, wantBuilt, wantDead)
		}
		sameEnrichment(t, round, plan, next, cat, []adm.Value{member(0, 0, true), member(0, 1, true), member(0, 2, true)})
		pe = next
	}
}

// TestPatchedStateKeepsNoRetiredComponent: enrichment state patched
// across batches keeps detached copies of what a patch read, never the
// bytes it read them from. A patch reads a changed record where storage
// holds it — here the batch buffer of the memtable that took the write —
// and the table keeps that one record for as long as the state is
// refreshed without touching its key. Once the memtable is flushed and
// its run compacted with three earlier ones (the oldest, larger run
// stays apart, so the next refresh still patches) and the next patch
// has replaced the state, no component holds the buffer any more: it
// must be collectable while the state still enriches with the record.
func TestPatchedStateKeepsNoRetiredComponent(t *testing.T) {
	cat := newTestCatalog()
	var rows []adm.Value
	for i := range int64(300) {
		rows = append(rows, member(i, int(i%7), true))
	}
	ds := cat.addDataset(t, "Members", "id", 1, rows...)
	cat.addSQLFunction(t, membersUDF)
	flushAll(t, ds)
	for i := range int64(3) { // three small runs, a size tier short of compacting
		if err := ds.Upsert(member(1000+i, 0, true)); err != nil {
			t.Fatal(err)
		}
		flushAll(t, ds)
	}
	plan := compilePaperUDF(t, cat, "activeMembers", PlanOptions{})
	pe, err := plan.Prepare(cat)
	if err != nil {
		t.Fatal(err)
	}

	collected := make(chan struct{})
	func() {
		if err := ds.Upsert(member(2000, 99, true)); err != nil {
			t.Fatal(err)
		}
		rec, ok := ds.Get(adm.Int(2000))
		if !ok {
			t.Fatal("the write is not visible")
		}
		// The string aliases the memtable's batch buffer (adm.ViewAlias).
		runtime.SetFinalizer(unsafe.StringData(rec.Field("grp").StringVal()), func(*byte) { close(collected) })
	}()
	pe, _ = mustRefresh(t, pe) // links member 2000, read off the buffer
	if pe.Patched() != 1 {
		t.Fatalf("the refresh patched %d accesses, built %d; want one patched", pe.Patched(), pe.Built())
	}
	flushAll(t, ds)
	for deadline := time.Now().Add(10 * time.Second); ds.Partition(0).Runs() != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs, want the four small ones compacted into one beside the oldest", ds.Partition(0).Runs())
		}
		time.Sleep(time.Millisecond)
	}
	if err := ds.Upsert(member(3000, 1, true)); err != nil {
		t.Fatal(err)
	}
	pe, _ = mustRefresh(t, pe) // patches member 3000 alone, carrying member 2000's entry
	if pe.Patched() != 1 {
		t.Fatalf("the second refresh patched %d accesses, built %d; want one patched", pe.Patched(), pe.Built())
	}
	for range 10 {
		runtime.GC()
		select {
		case <-collected:
			got := mustEval(t, pe, member(0, 99, true)).Field("ids")
			if !adm.Equal(got, adm.Array([]adm.Value{adm.Int(2000)})) {
				t.Fatalf("group g99 enriches with ids %v, want [2000]", got)
			}
			return
		default:
		}
	}
	t.Fatal("the patched state keeps the batch buffer of a memtable flushed and compacted away")
}
