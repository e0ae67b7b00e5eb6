package index

import (
	"math/rand"
	"testing"

	"github.com/ideadb/idea/internal/spatial"
)

func pt(x, y float64) spatial.Rect { return spatial.BoundsPoint(spatial.Point{X: x, Y: y}) }

// searchAll returns every entry of rt intersecting query.
func searchAll(rt *RTree, query spatial.Rect) []RTreeEntry {
	var out []RTreeEntry
	rt.Search(query, func(e RTreeEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestRTreeInsertSearchSmall(t *testing.T) {
	rt := NewRTree()
	rt.Insert(pt(1, 1), "a")
	rt.Insert(pt(5, 5), "b")
	rt.Insert(pt(9, 9), "c")
	if n := len(searchAll(rt, spatial.NewRect(0, 0, 10, 10))); n != 3 {
		t.Fatalf("tree holds %d entries, want 3", n)
	}
	got := searchAll(rt, spatial.NewRect(0, 0, 6, 6))
	if len(got) != 2 {
		t.Fatalf("search found %d entries, want 2", len(got))
	}
	names := map[any]bool{}
	for _, e := range got {
		names[e.Data] = true
	}
	if !names["a"] || !names["b"] {
		t.Errorf("wrong entries: %v", names)
	}
}

func TestRTreeSearchEmpty(t *testing.T) {
	rt := NewRTree()
	if got := searchAll(rt, spatial.NewRect(0, 0, 100, 100)); len(got) != 0 {
		t.Errorf("empty tree returned %d entries", len(got))
	}
}

func TestRTreeMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rt := NewRTree()
	type rec struct {
		rect spatial.Rect
		id   int
	}
	var all []rec
	const n = 3000
	for i := 0; i < n; i++ {
		var rc spatial.Rect
		if i%3 == 0 {
			// Small boxes.
			x, y := r.Float64()*100, r.Float64()*100
			rc = spatial.NewRect(x, y, x+r.Float64()*2, y+r.Float64()*2)
		} else {
			rc = pt(r.Float64()*100, r.Float64()*100)
		}
		rt.Insert(rc, i)
		all = append(all, rec{rc, i})
	}
	if got := len(searchAll(rt, spatial.NewRect(-1, -1, 103, 103))); got != n {
		t.Fatalf("tree holds %d entries, want %d", got, n)
	}
	for q := 0; q < 200; q++ {
		x, y := r.Float64()*100, r.Float64()*100
		query := spatial.NewRect(x, y, x+r.Float64()*10, y+r.Float64()*10)
		want := map[int]bool{}
		for _, rec := range all {
			if rec.rect.Intersects(query) {
				want[rec.id] = true
			}
		}
		got := map[int]bool{}
		rt.Search(query, func(e RTreeEntry) bool {
			got[e.Data.(int)] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d entries, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing id %d", q, id)
			}
		}
	}
}

func TestRTreeEarlyTermination(t *testing.T) {
	rt := NewRTree()
	for i := 0; i < 100; i++ {
		rt.Insert(pt(float64(i%10), float64(i/10)), i)
	}
	count := 0
	rt.Search(spatial.NewRect(-1, -1, 11, 11), func(e RTreeEntry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early termination visited %d", count)
	}
}

func TestRTreeDelete(t *testing.T) {
	rt := NewRTree()
	for i := 0; i < 500; i++ {
		rt.Insert(pt(float64(i%25), float64(i/25)), i)
	}
	// Delete every even id.
	for i := 0; i < 500; i += 2 {
		ok := rt.Delete(pt(float64(i%25), float64(i/25)), func(d any) bool { return d.(int) == i })
		if !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	got := searchAll(rt, spatial.NewRect(-1, -1, 100, 100))
	if len(got) != 250 {
		t.Fatalf("tree holds %d entries, want 250", len(got))
	}
	for _, e := range got {
		if e.Data.(int)%2 == 0 {
			t.Fatalf("deleted entry %v still present", e.Data)
		}
	}
	// Deleting an absent entry reports false.
	if rt.Delete(pt(0, 0), func(d any) bool { return d.(int) == 0 }) {
		t.Error("second delete of same entry should miss")
	}
}

func TestRTreeDuplicateRects(t *testing.T) {
	rt := NewRTree()
	for i := 0; i < 50; i++ {
		rt.Insert(pt(1, 1), i) // all identical
	}
	got := searchAll(rt, pt(1, 1))
	if len(got) != 50 {
		t.Fatalf("found %d of 50 duplicates", len(got))
	}
	// Delete a specific one by payload.
	if !rt.Delete(pt(1, 1), func(d any) bool { return d.(int) == 33 }) {
		t.Fatal("targeted delete failed")
	}
	for _, e := range searchAll(rt, pt(1, 1)) {
		if e.Data.(int) == 33 {
			t.Fatal("entry 33 still present")
		}
	}
}

func TestRTreeCircleQueryPattern(t *testing.T) {
	// The enrichment planner queries the tree with a circle's bounding
	// box and then applies the exact predicate; verify that pattern.
	rt := NewRTree()
	r := rand.New(rand.NewSource(43))
	pts := make([]spatial.Point, 2000)
	for i := range pts {
		pts[i] = spatial.Point{X: r.Float64() * 50, Y: r.Float64() * 50}
		rt.Insert(spatial.BoundsPoint(pts[i]), i)
	}
	circle := spatial.Circle{Center: spatial.Point{X: 25, Y: 25}, R: 3}
	want := 0
	for _, p := range pts {
		if circle.ContainsPoint(p) {
			want++
		}
	}
	got := 0
	rt.Search(circle.Bounds(), func(e RTreeEntry) bool {
		i := e.Data.(int)
		if circle.ContainsPoint(pts[i]) {
			got++
		}
		return true
	})
	if got != want {
		t.Errorf("circle query found %d, want %d", got, want)
	}
}

func BenchmarkRTreeInsert(b *testing.B) {
	rt := NewRTree()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Insert(pt(r.Float64()*1000, r.Float64()*1000), i)
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	rt := NewRTree()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		rt.Insert(pt(r.Float64()*1000, r.Float64()*1000), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, y := r.Float64()*1000, r.Float64()*1000
		rt.Search(spatial.NewRect(x, y, x+10, y+10), func(RTreeEntry) bool { return true })
	}
}
