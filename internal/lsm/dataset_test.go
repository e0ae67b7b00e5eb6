package lsm

import (
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/spatial"
)

func monumentType() *adm.Datatype {
	return adm.MustDatatype("monumentType", true, []adm.FieldDef{
		{Name: "monument_id", Kind: adm.KindString},
		{Name: "monument_location", Kind: adm.KindPoint},
	})
}

func monument(id string, x, y float64) adm.Value {
	return adm.ObjectValue(adm.ObjectFromPairs(
		"monument_id", adm.String(id),
		"monument_location", adm.Point(x, y),
	))
}

func TestDatasetRouteAndCRUD(t *testing.T) {
	ds := memDataset(t, "monumentList", monumentType(), "monument_id", 4, DefaultOptions())
	for i := 0; i < 100; i++ {
		if err := ds.Upsert(monument(ascii(i), float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if liveLen(t, ds) != 100 {
		t.Fatalf("Len = %d", liveLen(t, ds))
	}
	// Every partition should own some records under hash routing.
	for i := 0; i < ds.NumPartitions(); i++ {
		if liveLen(t, ds.Partition(i).Snapshot()) == 0 {
			t.Errorf("partition %d empty — hash routing is skewed", i)
		}
	}
	got, ok := ds.Get(adm.String(ascii(7)))
	if !ok || got.Field("monument_id").StringVal() != ascii(7) {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	if existed, err := ds.Delete(adm.String(ascii(7))); !existed || err != nil {
		t.Errorf("Delete = %v, %v; want true, nil", existed, err)
	}
	if _, ok := ds.Get(adm.String(ascii(7))); ok {
		t.Error("deleted record visible")
	}
}

func ascii(i int) string { return string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestDatasetValidationOnWrite(t *testing.T) {
	ds := memDataset(t, "m", monumentType(), "monument_id", 2, DefaultOptions())
	// Coercion: JSON-ish [x,y] array becomes a point.
	rec := adm.ObjectValue(adm.ObjectFromPairs(
		"monument_id", adm.String("x"),
		"monument_location", adm.Array([]adm.Value{adm.Double(1), adm.Double(2)}),
	))
	if err := ds.Upsert(rec); err != nil {
		t.Fatal(err)
	}
	got, _ := ds.Get(adm.String("x"))
	if got.Field("monument_location").Kind() != adm.KindPoint {
		t.Errorf("location not coerced: %v", got.Field("monument_location").Kind())
	}
	// Missing required field fails.
	bad := adm.ObjectValue(adm.ObjectFromPairs("monument_id", adm.String("y")))
	if err := ds.Upsert(bad); err == nil {
		t.Error("missing required field should fail validation")
	}
	// Missing primary key fails.
	nopk := adm.ObjectValue(adm.ObjectFromPairs("monument_location", adm.Point(0, 0)))
	if err := ds.Upsert(nopk); err == nil {
		t.Error("missing primary key must be rejected")
	}
}

func TestDatasetConstructorValidation(t *testing.T) {
	if _, err := OpenDataset(NewMemFS(), "d", "d", nil, "id", 0, DefaultOptions()); err == nil {
		t.Error("zero partitions must be rejected")
	}
	if _, err := OpenDataset(NewMemFS(), "d", "d", nil, "", 2, DefaultOptions()); err == nil {
		t.Error("empty primary key must be rejected")
	}
}

func TestDatasetRTreeIndex(t *testing.T) {
	ds := memDataset(t, "monumentList", monumentType(), "monument_id", 3, DefaultOptions())
	for i := 0; i < 200; i++ {
		ds.Upsert(monument(ascii(i), float64(i%20), float64(i/20)))
	}
	if err := ds.CreateSpatialIndex("mloc", "monument_location"); err != nil {
		t.Fatal(err)
	}
	if err := ds.CreateSpatialIndex("mloc", "monument_location"); err == nil {
		t.Error("duplicate index name must be rejected")
	}
	idxs := ds.RTreeIndexForField("monument_location")
	if len(idxs) != 3 {
		t.Fatalf("expected 3 per-partition indexes, got %d", len(idxs))
	}
	// Probe all partitions for monuments near (5,5).
	query := spatial.Circle{Center: spatial.Point{X: 5, Y: 5}, R: 1.5}
	found := 0
	for _, ix := range idxs {
		for _, pk := range ix.Search(query.Bounds()) {
			m, ok := ds.Get(pk)
			if !ok {
				t.Fatalf("index returned dangling pk %v", pk)
			}
			x, y := m.Field("monument_location").PointVal()
			if query.ContainsPoint(spatial.Point{X: x, Y: y}) {
				found++
			}
		}
	}
	// Points on integer grid within 1.5 of (5,5): (4,4..6),(5,4..6),(6,4..6) minus corners >1.5.
	want := 0
	for i := 0; i < 200; i++ {
		x, y := float64(i%20), float64(i/20)
		if query.ContainsPoint(spatial.Point{X: x, Y: y}) {
			want++
		}
	}
	if found != want {
		t.Errorf("index probe found %d, want %d", found, want)
	}
	// Index must track updates: move a monument, old location disappears.
	ds.Upsert(monument(ascii(0), 100, 100))
	found = 0
	for _, ix := range idxs {
		for _, pk := range ix.Search(spatial.NewRect(99, 99, 101, 101)) {
			_ = pk
			found++
		}
	}
	if found != 1 {
		t.Errorf("moved monument should be indexed once at new location, found %d", found)
	}
}

func TestDatasetBTreeIndex(t *testing.T) {
	dt := adm.MustDatatype("SafetyRatingType", true, []adm.FieldDef{
		{Name: "country_code", Kind: adm.KindString},
		{Name: "safety_rating", Kind: adm.KindString},
	})
	ds := memDataset(t, "SafetyRatings", dt, "country_code", 2, DefaultOptions())
	mk := func(cc, rating string) adm.Value {
		return adm.ObjectValue(adm.ObjectFromPairs(
			"country_code", adm.String(cc), "safety_rating", adm.String(rating)))
	}
	ds.Upsert(mk("US", "3"))
	ds.Upsert(mk("FR", "4"))
	ds.Upsert(mk("DE", "4"))
	if err := ds.CreateFieldBTreeIndex("byRating", "safety_rating"); err != nil {
		t.Fatal(err)
	}
	// Collect across partitions.
	lookup := func(rating string) int {
		n := 0
		sc := ds.Scan()
		for _, r, ok := sc.Next(); ok; _, r, ok = sc.Next() {
			if r.Field("safety_rating").StringVal() == rating {
				n++
			}
		}
		return n
	}
	if lookup("4") != 2 {
		t.Errorf("expected 2 records rated 4")
	}
	// Update changes index membership.
	ds.Upsert(mk("US", "4"))
	if lookup("4") != 3 {
		t.Errorf("update should move US to rating 4")
	}
}

// postingsIn returns the primary keys ix holds in [lo, hi], in entry
// order (secondary key, then primary key).
func postingsIn(ix *BTreeIndex, lo, hi index.Bound) []adm.Value {
	loB, _ := encodeBound(nil, lo)
	hiB, _ := encodeBound(nil, hi)
	var pks []adm.Value
	for _, pk := range ix.lookupRange(loB, hiB, nil) {
		pks = append(pks, adm.ViewAlias(bytesOf(pk)))
	}
	return pks
}

// intsOf returns the int64s of vals.
func intsOf(vals []adm.Value) []int64 {
	var out []int64
	for _, v := range vals {
		out = append(out, v.IntVal())
	}
	return out
}

// postingsOf returns the primary keys ix holds under exactly key: the
// point range [key, key].
func postingsOf(ix *BTreeIndex, key adm.Value) []adm.Value {
	return postingsIn(ix, index.Include(key), index.Include(key))
}

func TestBTreeIndexDirect(t *testing.T) {
	ix := NewBTreeIndex("byCountry", FieldKeyExtractor("country"))
	mk := func(id int64, c string) adm.Value {
		return adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(id), "country", adm.String(c)))
	}
	insert := func(id int64, r adm.Value) { ix.InsertBatch([]index.Item{{Key: adm.Int(id), Val: r}}) }
	remove := func(id int64, r adm.Value) { ix.DeleteBatch([]index.Item{{Key: adm.Int(id), Val: r}}) }
	insert(1, mk(1, "US"))
	insert(2, mk(2, "US"))
	insert(3, mk(3, "FR"))
	if got := postingsOf(ix, adm.String("US")); len(got) != 2 {
		t.Fatalf("postingsOf(US) = %d entries", len(got))
	}
	if got := postingsOf(ix, adm.String("XX")); got != nil {
		t.Fatalf("postingsOf miss should be nil, got %v", got)
	}
	remove(1, mk(1, "US"))
	if got := postingsOf(ix, adm.String("US")); len(got) != 1 || got[0].IntVal() != 2 {
		t.Fatalf("after delete postingsOf(US) = %v", got)
	}
	remove(3, mk(3, "FR"))
	if got := postingsOf(ix, adm.String("FR")); got != nil {
		t.Fatalf("a deleted record's entry should be gone, got %v", got)
	}
	// Range lookup, on the bounds the planner uses.
	insert(4, mk(4, "AA"))
	insert(5, mk(5, "MM"))
	insert(6, mk(6, "ZZ"))
	got := postingsIn(ix, index.Include(adm.String("AA")), index.Include(adm.String("US")))
	if len(got) != 3 { // AA, MM, US
		t.Fatalf("range [AA,US] = %v", got)
	}
	// Exclusive bounds on a key many entries share: the range walk skips
	// every entry under the low bound and stops before the first under
	// the high one, whatever their primary keys.
	for id := int64(100); id < 400; id++ {
		insert(id, mk(id, "MM"))
	}
	if got := intsOf(postingsIn(ix, index.Exclude(adm.String("MM")), index.Unbounded())); !slices.Equal(got, []int64{2, 6}) {
		t.Fatalf("range (MM, ∞) = %v, want [2 6]", got) // US, ZZ
	}
	if got := intsOf(postingsIn(ix, index.Unbounded(), index.Exclude(adm.String("MM")))); !slices.Equal(got, []int64{4}) {
		t.Fatalf("range (-∞, MM) = %v, want [4]", got) // AA
	}
	if got := postingsIn(ix, index.Exclude(adm.String("MM")), index.Exclude(adm.String("US"))); got != nil {
		t.Fatalf("range (MM, US) = %v, want none", got)
	}
	if got := postingsIn(ix, index.Include(adm.String("MM")), index.Include(adm.String("MM"))); len(got) != 301 {
		t.Fatalf("range [MM, MM] = %d entries, want 301", len(got))
	}
	if got := postingsIn(ix, index.Unbounded(), index.Unbounded()); len(got) != 304 {
		t.Fatalf("unbounded range = %d entries, want 304", len(got))
	}
	// Records without the field are skipped, not indexed.
	insert(9, adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(9))))
	if got := postingsOf(ix, adm.Missing()); got != nil {
		t.Error("missing key should not be indexed")
	}

	// 7 and 7.0 under different records are one secondary key, as
	// adm.Compare has it: a probe of either kind reads both records, in
	// primary-key order, and a delete removes only its own record's entry.
	nx := NewBTreeIndex("byNum", FieldKeyExtractor("n"))
	num := func(id int64, n adm.Value) adm.Value {
		return adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(id), "n", n))
	}
	for _, r := range []adm.Value{num(3, adm.Int(7)), num(1, adm.Double(7)), num(2, adm.Int(7)), num(4, adm.Int(8)), num(5, adm.Double(6.5))} {
		nx.InsertBatch([]index.Item{{Key: r.Field("id"), Val: r}})
	}
	for _, probe := range []adm.Value{adm.Int(7), adm.Double(7)} {
		if got := intsOf(postingsOf(nx, probe)); !slices.Equal(got, []int64{1, 2, 3}) {
			t.Fatalf("postingsOf(%v) = %v, want [1 2 3]", probe, got)
		}
		if got := intsOf(postingsIn(nx, index.Exclude(probe), index.Unbounded())); !slices.Equal(got, []int64{4}) {
			t.Fatalf("range (%v, ∞) = %v, want [4]", probe, got)
		}
		if got := intsOf(postingsIn(nx, index.Unbounded(), index.Exclude(probe))); !slices.Equal(got, []int64{5}) {
			t.Fatalf("range (-∞, %v) = %v, want [5]", probe, got)
		}
	}
	nx.DeleteBatch([]index.Item{{Key: adm.Int(1), Val: num(1, adm.Double(7))}})
	if got := intsOf(postingsOf(nx, adm.Int(7))); !slices.Equal(got, []int64{2, 3}) {
		t.Fatalf("after deleting record 1, postingsOf(7) = %v, want [2 3]", got)
	}
}

func TestDatasetSnapshotAllStable(t *testing.T) {
	ds := memDataset(t, "m", monumentType(), "monument_id", 3, DefaultOptions())
	for i := 0; i < 90; i++ {
		ds.Upsert(monument(ascii(i), 1, 1))
	}
	snaps := ds.SnapshotAll()
	for i := 90; i < 180; i++ {
		ds.Upsert(monument(ascii(i), 2, 2))
	}
	total := 0
	for _, s := range snaps {
		total += liveLen(t, s)
	}
	if total != 90 {
		t.Errorf("snapshots saw %d records, want 90", total)
	}
	if liveLen(t, ds) != 180 {
		t.Errorf("dataset should now hold 180, has %d", liveLen(t, ds))
	}
}

func TestDatasetStatsAggregation(t *testing.T) {
	ds := memDataset(t, "m", monumentType(), "monument_id", 2, DefaultOptions())
	ds.Upsert(monument("a", 0, 0))
	ds.Upsert(monument("b", 1, 1))
	ds.Get(adm.String("a"))
	st := ds.Stats()
	if st.Upserts != 2 || st.Gets != 1 {
		t.Errorf("aggregated stats = %+v", st)
	}
}

func TestDatasetScanCursor(t *testing.T) {
	ds := memDataset(t, "D", nil, "id", 3, smallOpts())
	for i := int64(0); i < 400; i++ {
		if err := ds.Upsert(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Delete(adm.Int(7))
	seen := make(map[int64]bool)
	sc := ds.Scan()
	for {
		k, r, ok := sc.Next()
		if !ok {
			break
		}
		if seen[k.IntVal()] {
			t.Fatalf("key %d seen twice", k.IntVal())
		}
		if r.Field("id").IntVal() != k.IntVal() {
			t.Fatalf("key %d carries record %v", k.IntVal(), r)
		}
		seen[k.IntVal()] = true
	}
	if len(seen) != 399 || seen[7] {
		t.Fatalf("scan cursor saw %d records (deleted 7 present: %v)", len(seen), seen[7])
	}
}
