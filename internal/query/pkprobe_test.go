package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// hashTwin returns plan with every primary-key access compiled as the
// hash access it replaced: the same build and probe keys, build filters
// and residuals, answered from a table built from the same snapshots.
func hashTwin(t *testing.T, plan *EnrichPlan) *EnrichPlan {
	t.Helper()
	twin := *plan
	twin.subs = make(map[*sqlpp.SelectExpr]*subPlan, len(plan.subs))
	n := 0
	for sel, sp := range plan.subs {
		c := *sp
		c.accesses = slices.Clone(sp.accesses)
		for i := range c.accesses {
			if c.accesses[i].kind == accessPK {
				c.accesses[i].kind = accessHash
				n++
			}
		}
		twin.subs[sel] = &c
	}
	if n == 0 {
		t.Fatalf("%s: plan %v has no primary-key access", plan.Name, plan.Describe())
	}
	return &twin
}

// pkTwins is one UDF prepared twice, through the primary index and
// through its hash twin.
type pkTwins struct {
	name     string
	pk, hash *PreparedEnrich
}

func preparePKTwins(t *testing.T, cat *testCatalog, ddl string) *pkTwins {
	t.Helper()
	plan := compilePaperUDF(t, cat, cat.addSQLFunction(t, ddl).Name, PlanOptions{})
	tw := &pkTwins{name: plan.Name}
	var err error
	if tw.pk, err = plan.Prepare(cat); err != nil {
		t.Fatal(err)
	}
	if tw.hash, err = hashTwin(t, plan).Prepare(cat); err != nil {
		t.Fatal(err)
	}
	if tw.pk.Built() != 0 || tw.hash.Built() == 0 {
		t.Fatalf("%s: the primary-key state built %d structures, its hash twin %d", tw.name, tw.pk.Built(), tw.hash.Built())
	}
	return tw
}

// refresh refreshes both states; the primary-key one builds nothing.
func (tw *pkTwins) refresh(t *testing.T) {
	t.Helper()
	var err error
	if tw.pk, err = tw.pk.Refresh(); err != nil {
		t.Fatal(err)
	}
	if tw.pk.Built()+tw.pk.Patched() != 0 {
		t.Fatalf("%s: a refresh built %d and patched %d structures for a primary-key probe", tw.name, tw.pk.Built(), tw.pk.Patched())
	}
	if tw.hash, err = tw.hash.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// same fails the test unless both states enrich every input to the same
// bytes, or fail it with the same error.
func (tw *pkTwins) same(t *testing.T, when string, inputs []adm.Value) {
	t.Helper()
	for _, in := range inputs {
		got, want := resultBytes(tw.pk.EvalRecord(in)), resultBytes(tw.hash.EvalRecord(in))
		if got != want {
			t.Fatalf("%s, %s(%v): the primary-key probe gives %q, the hash probe %q", when, tw.name, in, got, want)
		}
	}
}

// TestPKProbeMatchesHashProbe: a primary-key access answers exactly what
// the hash access it replaces would — through TestRefreshPatchMatchesFreshPrepare's
// rounds of random reference writes and flushes, with a residual and with
// a build filter, for probe keys that are null, missing or of another
// kind, and for numeric keys probed by the other numeric kind with the
// same value, from the memtable and from runs.
func TestPKProbeMatchesHashProbe(t *testing.T) {
	t.Run("rounds", func(t *testing.T) {
		cat := paperCatalog(t)
		var twins []*pkTwins
		for _, ddl := range []string{
			`CREATE FUNCTION q1(t) { LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s
				WHERE t.country = s.country_code) SELECT t.*, r };`,
			`CREATE FUNCTION withResidual(t) { LET r = (SELECT VALUE s.safety_rating FROM SafetyRatings s
				WHERE s.country_code = t.country AND (t.id % 2 = 0 OR s.safety_rating = "1")) SELECT t.*, r };`,
			`CREATE FUNCTION withFilter(t) { LET r = (SELECT s.*, t.id AS tid FROM SafetyRatings s
				WHERE s.country_code = t.country AND s.safety_rating != "3") SELECT t.*, r };`,
		} {
			twins = append(twins, preparePKTwins(t, cat, ddl))
		}
		countries := []string{"US", "FR", "DE", "BR", "IN", "CN", "JP", "MX", "GB", "IT", "NZ", "ZA"}
		var inputs []adm.Value
		for i, c := range countries {
			inputs = append(inputs, obj("id", adm.Int(int64(i)), "country", adm.String(c)))
		}
		inputs = append(inputs,
			obj("id", adm.Int(20), "country", adm.Null()),
			obj("id", adm.Int(21)),
			obj("id", adm.Int(22), "country", adm.Int(3)),
			obj("id", adm.Int(23), "country", adm.String("")))
		ratings, _ := cat.Dataset("SafetyRatings")
		r := rand.New(rand.NewSource(34))
		for round := range 80 {
			writeRatings(t, r, ratings, countries)
			if r.Intn(6) == 0 {
				flushAll(t, ratings)
			}
			for _, tw := range twins {
				tw.refresh(t)
				tw.same(t, fmt.Sprintf("round %d", round), inputs)
			}
		}
	})

	t.Run("numeric keys", func(t *testing.T) {
		cat := newTestCatalog()
		var refs []*lsm.Dataset
		var twins []*pkTwins
		for _, kind := range []string{"Ints", "Doubles"} {
			var rows []adm.Value
			for i := range int64(40) {
				key := adm.Int(i)
				if kind == "Doubles" {
					key = adm.Double(float64(i))
				}
				rows = append(rows, obj("id", key, "v", adm.String(fmt.Sprintf("%s-%d", kind, i))))
			}
			refs = append(refs, cat.addDataset(t, kind, "id", 3, rows...))
			twins = append(twins, preparePKTwins(t, cat, fmt.Sprintf(`CREATE FUNCTION probe%s(t) {
				LET v = (SELECT VALUE n.v FROM %s n WHERE n.id = t.k) SELECT t.*, v };`, kind, kind)))
		}
		var inputs []adm.Value
		for i := range int64(42) {
			inputs = append(inputs,
				obj("id", adm.Int(i), "k", adm.Int(i)),
				obj("id", adm.Int(i), "k", adm.Double(float64(i))),
				obj("id", adm.Int(i), "k", adm.Double(float64(i)+0.5)),
				obj("id", adm.Int(i), "k", adm.String(fmt.Sprint(i))))
		}
		inputs = append(inputs, obj("id", adm.Int(-1), "k", adm.Null()), obj("id", adm.Int(-2)))
		for _, tw := range twins {
			tw.same(t, "in the memtable", inputs)
		}
		for _, ds := range refs {
			flushAll(t, ds)
			if err := ds.Upsert(obj("id", adm.Double(40), "v", adm.String("written after the flush"))); err != nil {
				t.Fatal(err)
			}
		}
		for _, tw := range twins {
			tw.refresh(t)
			tw.same(t, "after a flush", inputs)
		}
	})
}
