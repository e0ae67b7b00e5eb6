package index

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// items drains a full-range cursor: the tree's one iteration mechanism.
func items(bt *BTree) []Item {
	var out []Item
	cu := bt.Cursor()
	for {
		it, ok := cu.Next()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestBTreeBasicPutGet(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get(adm.Int(1)); ok {
		t.Error("empty tree should miss")
	}
	if replaced := bt.Put(adm.Int(1), adm.String("one")); replaced {
		t.Error("fresh Put should not report replacement")
	}
	if v, ok := bt.Get(adm.Int(1)); !ok || v.StringVal() != "one" {
		t.Errorf("Get = %v,%v", v, ok)
	}
	if replaced := bt.Put(adm.Int(1), adm.String("uno")); !replaced {
		t.Error("second Put should replace")
	}
	if v, _ := bt.Get(adm.Int(1)); v.StringVal() != "uno" {
		t.Error("replacement lost")
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d, want 1", bt.Len())
	}
}

func TestBTreeManyKeysOrdered(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, k := range perm {
		bt.Put(adm.Int(int64(k)), adm.Int(int64(k*10)))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	prev := int64(-1)
	all := items(bt)
	for _, it := range all {
		k := it.Key.IntVal()
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if it.Val.IntVal() != k*10 {
			t.Fatalf("wrong value for %d", k)
		}
		prev = k
	}
	if len(all) != n {
		t.Fatalf("cursor visited %d, want %d", len(all), n)
	}
	for i := 0; i < n; i += 37 {
		if v, ok := bt.Get(adm.Int(int64(i))); !ok || v.IntVal() != int64(i*10) {
			t.Fatalf("Get(%d) = %v,%v", i, v, ok)
		}
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	const n = 3000
	for i := 0; i < n; i++ {
		bt.Put(adm.Int(int64(i)), adm.Int(int64(i)))
	}
	r := rand.New(rand.NewSource(17))
	alive := map[int64]bool{}
	for i := 0; i < n; i++ {
		alive[int64(i)] = true
	}
	for _, k := range r.Perm(n)[:n/2] {
		if !bt.Delete(adm.Int(int64(k))) {
			t.Fatalf("Delete(%d) missed", k)
		}
		delete(alive, int64(k))
	}
	if bt.Delete(adm.Int(int64(n + 100))) {
		t.Error("Delete of absent key should report false")
	}
	if bt.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", bt.Len(), len(alive))
	}
	for k := int64(0); k < n; k++ {
		_, ok := bt.Get(adm.Int(k))
		if ok != alive[k] {
			t.Fatalf("Get(%d) presence = %v, want %v", k, ok, alive[k])
		}
	}
	// Order must survive deletions.
	prev := int64(-1)
	for _, it := range items(bt) {
		if it.Key.IntVal() <= prev {
			t.Fatalf("order violated after deletes")
		}
		prev = it.Key.IntVal()
	}
}

func TestBTreeDeleteAll(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 500; i++ {
		bt.Put(adm.Int(int64(i)), adm.Null())
	}
	for i := 499; i >= 0; i-- {
		if !bt.Delete(adm.Int(int64(i))) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", bt.Len())
	}
	if _, ok := bt.Cursor().Next(); ok {
		t.Error("cursor yields an item on an empty tree")
	}
	// Tree must be reusable after emptying.
	bt.Put(adm.Int(1), adm.Null())
	if bt.Len() != 1 {
		t.Error("reuse after emptying failed")
	}
}

func TestBTreeMinMax(t *testing.T) {
	bt := NewBTree()
	for _, k := range []int64{5, 1, 9, 3} {
		bt.Put(adm.Int(k), adm.Null())
	}
	all := items(bt)
	if mn, mx := all[0].Key.IntVal(), all[len(all)-1].Key.IntVal(); mn != 1 || mx != 9 {
		t.Errorf("iteration runs from %d to %d, want 1 to 9", mn, mx)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := NewBTree()
	words := []string{"US", "FR", "DE", "JP", "BR", "IN", "CN"}
	for i, w := range words {
		bt.Put(adm.String(w), adm.Int(int64(i)))
	}
	if v, ok := bt.Get(adm.String("JP")); !ok || v.IntVal() != 3 {
		t.Errorf("string key lookup failed: %v %v", v, ok)
	}
	sorted := items(bt)
	for i := 1; i < len(sorted); i++ {
		if !adm.Less(sorted[i-1].Key, sorted[i].Key) {
			t.Fatal("string keys out of order")
		}
	}
}

// Property test: the tree must agree with a reference map under a random
// workload of puts, deletes, and gets.
func TestBTreeMatchesMapModel(t *testing.T) {
	bt := NewBTree()
	model := map[int64]int64{}
	r := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		k := r.Int63n(800)
		switch r.Intn(3) {
		case 0:
			v := r.Int63()
			bt.Put(adm.Int(k), adm.Int(v))
			model[k] = v
		case 1:
			_, inModel := model[k]
			if bt.Delete(adm.Int(k)) != inModel {
				t.Fatalf("op %d: delete mismatch for %d", op, k)
			}
			delete(model, k)
		default:
			v, ok := bt.Get(adm.Int(k))
			mv, mok := model[k]
			if ok != mok || (ok && v.IntVal() != mv) {
				t.Fatalf("op %d: get mismatch for %d", op, k)
			}
		}
		if bt.Len() != len(model) {
			t.Fatalf("op %d: len mismatch %d vs %d", op, bt.Len(), len(model))
		}
	}
}

// checkInvariants walks the whole tree verifying the B-tree shape:
// sorted items, uniform leaf depth, fill bounds on every non-root node,
// child counts, and separator ordering.
func checkInvariants(t *testing.T, bt *BTree) {
	t.Helper()
	if bt.root == nil {
		if bt.size != 0 {
			t.Fatalf("nil root with size %d", bt.size)
		}
		return
	}
	leafDepth := -1
	counted := 0
	var walk func(n *btreeNode, depth int, min, max *adm.Value)
	walk = func(n *btreeNode, depth int, min, max *adm.Value) {
		if depth > 0 && (len(n.items) < minItems || len(n.items) > maxItems) {
			t.Fatalf("node at depth %d has %d items (want %d..%d)", depth, len(n.items), minItems, maxItems)
		}
		if depth == 0 && len(n.items) > maxItems {
			t.Fatalf("root has %d items (max %d)", len(n.items), maxItems)
		}
		counted += len(n.items)
		for i, it := range n.items {
			if i > 0 && !adm.Less(n.items[i-1].Key, it.Key) {
				t.Fatalf("items out of order at depth %d", depth)
			}
			if min != nil && !adm.Less(*min, it.Key) {
				t.Fatalf("item below subtree lower bound at depth %d", depth)
			}
			if max != nil && !adm.Less(it.Key, *max) {
				t.Fatalf("item above subtree upper bound at depth %d", depth)
			}
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("node with %d items has %d children", len(n.items), len(n.children))
		}
		for i, c := range n.children {
			lo, hi := min, max
			if i > 0 {
				lo = &n.items[i-1].Key
			}
			if i < len(n.items) {
				hi = &n.items[i].Key
			}
			walk(c, depth+1, lo, hi)
		}
	}
	walk(bt.root, 0, nil, nil)
	if counted != bt.size {
		t.Fatalf("size = %d but tree holds %d items", bt.size, counted)
	}
}

func sortedRun(keys []int64, valOffset int64) []Item {
	run := make([]Item, len(keys))
	for i, k := range keys {
		run[i] = Item{adm.Int(k), adm.Int(k + valOffset)}
	}
	return run
}

func TestBTreePutBatchEmptyTree(t *testing.T) {
	bt := NewBTree()
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = int64(i)
	}
	newCount := 0
	bt.PutBatch(sortedRun(keys, 1000), func(Item) { newCount++ })
	if newCount != len(keys) {
		t.Fatalf("onNew fired %d times, want %d", newCount, len(keys))
	}
	if bt.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", bt.Len(), len(keys))
	}
	checkInvariants(t, bt)
	for _, k := range []int64{0, 1, 2500, 4998, 4999} {
		if v, ok := bt.Get(adm.Int(k)); !ok || v.IntVal() != k+1000 {
			t.Fatalf("Get(%d) = %v,%v", k, v, ok)
		}
	}
}

func TestBTreePutBatchReplaces(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 100; i++ {
		bt.Put(adm.Int(i), adm.Int(i))
	}
	// Half the batch replaces, half is new; onNew must only see the new.
	keys := make([]int64, 0, 100)
	for i := int64(50); i < 150; i++ {
		keys = append(keys, i)
	}
	newCount := 0
	bt.PutBatch(sortedRun(keys, 7000), func(it Item) {
		newCount++
		if it.Key.IntVal() < 100 {
			t.Fatalf("onNew fired for replaced key %v", it.Key)
		}
	})
	if newCount != 50 {
		t.Fatalf("onNew fired %d times, want 50", newCount)
	}
	if bt.Len() != 150 {
		t.Fatalf("Len = %d, want 150", bt.Len())
	}
	checkInvariants(t, bt)
	for i := int64(0); i < 150; i++ {
		want := i
		if i >= 50 {
			want = i + 7000
		}
		if v, ok := bt.Get(adm.Int(i)); !ok || v.IntVal() != want {
			t.Fatalf("Get(%d) = %v,%v want %d", i, v, ok, want)
		}
	}
	// A run of one takes the point-put shortcut: same onNew contract.
	newCount = 0
	bt.PutBatch(sortedRun([]int64{149}, 1), func(Item) { newCount++ })
	bt.PutBatch(sortedRun([]int64{150}, 1), func(Item) { newCount++ })
	if v, _ := bt.Get(adm.Int(149)); newCount != 1 || bt.Len() != 151 || v.IntVal() != 150 {
		t.Fatalf("runs of one: onNew fired %d times, Len = %d, Get(149) = %v; want 1, 151, 150", newCount, bt.Len(), v)
	}
}

// Property test: interleaved batches, point puts, and deletes must agree
// with a reference map, and the tree shape must stay legal after every
// batch.
func TestBTreePutBatchMatchesMapModel(t *testing.T) {
	bt := NewBTree()
	model := map[int64]int64{}
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 300; round++ {
		switch r.Intn(4) {
		case 0, 1: // sorted batch of random size at a random offset
			n := 1 + r.Intn(400)
			base := r.Int63n(3000)
			seen := map[int64]bool{}
			keys := make([]int64, 0, n)
			for len(keys) < n {
				k := base + r.Int63n(600)
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			val := r.Int63n(1 << 30)
			run := sortedRun(keys, val)
			bt.PutBatch(run, nil)
			for _, k := range keys {
				model[k] = k + val
			}
		case 2: // point put
			k, v := r.Int63n(3600), r.Int63()
			bt.Put(adm.Int(k), adm.Int(v))
			model[k] = v
		default: // delete
			k := r.Int63n(3600)
			_, inModel := model[k]
			if bt.Delete(adm.Int(k)) != inModel {
				t.Fatalf("round %d: delete mismatch for %d", round, k)
			}
			delete(model, k)
		}
		if bt.Len() != len(model) {
			t.Fatalf("round %d: len %d vs model %d", round, bt.Len(), len(model))
		}
	}
	checkInvariants(t, bt)
	for k, mv := range model {
		if v, ok := bt.Get(adm.Int(k)); !ok || v.IntVal() != mv {
			t.Fatalf("Get(%d) = %v,%v want %d", k, v, ok, mv)
		}
	}
	prev := int64(-1)
	for _, it := range items(bt) {
		if it.Key.IntVal() <= prev {
			t.Fatal("order violated after batches")
		}
		prev = it.Key.IntVal()
	}
}

func BenchmarkBTreePut(b *testing.B) {
	bt := NewBTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Put(adm.Int(int64(i)), adm.Int(int64(i)))
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	bt := NewBTree()
	for i := 0; i < 100000; i++ {
		bt.Put(adm.Int(int64(i)), adm.Int(int64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Get(adm.Int(int64(i % 100000)))
	}
}

// TestBTreeCursorMatchesAscend: the cursor yields exactly the distinct
// keys put, in ascending order, across tree shapes from empty to
// several levels.
func TestBTreeCursorMatchesAscend(t *testing.T) {
	for _, n := range []int{0, 1, 7, btreeDegree, 500, 5000} {
		bt := NewBTree()
		distinct := map[int64]bool{}
		for i := 0; i < n; i++ {
			// Shuffled-ish insertion order to exercise splits.
			k := int64((i * 2654435761) % (n*3 + 1))
			bt.Put(adm.Int(k), adm.Int(k))
			distinct[k] = true
		}
		want := make([]int64, 0, len(distinct))
		for k := range distinct {
			want = append(want, k)
		}
		slices.Sort(want)
		got := items(bt)
		if len(got) != len(want) {
			t.Fatalf("n=%d: cursor yielded %d items, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Key.IntVal() != want[i] {
				t.Fatalf("n=%d: item %d = %d, want %d", n, i, got[i].Key.IntVal(), want[i])
			}
		}
	}
}

func TestBTreeCursorAfterPutBatch(t *testing.T) {
	bt := NewBTree()
	bt.PutBatch(sortedRun([]int64{1, 5, 9, 13, 17}, 0), nil)
	var keys []int64
	for i := int64(0); i < 2000; i += 2 {
		keys = append(keys, i)
	}
	bt.PutBatch(sortedRun(keys, 100), nil)
	cu := bt.Cursor()
	prev := int64(-1)
	count := 0
	for {
		it, ok := cu.Next()
		if !ok {
			break
		}
		if it.Key.IntVal() <= prev {
			t.Fatalf("cursor order violated: %d after %d", it.Key.IntVal(), prev)
		}
		prev = it.Key.IntVal()
		count++
	}
	if count != bt.Len() {
		t.Fatalf("cursor yielded %d items, Len() = %d", count, bt.Len())
	}
}

func TestBTreeCursorAt(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i += 2 { // even keys only
		bt.Put(adm.Int(i), adm.Int(i))
	}
	for _, from := range []int64{-1, 0, 1, 2, 499, 500, 997, 998, 999} {
		cu := bt.CursorAt(adm.Int(from))
		it, ok := cu.Next()
		want := from
		if want%2 != 0 {
			want++
		}
		if want < 0 {
			want = 0
		}
		if want > 998 {
			if ok {
				t.Fatalf("CursorAt(%d): got %v, want exhausted", from, it.Key)
			}
			continue
		}
		if !ok || it.Key.IntVal() != want {
			t.Fatalf("CursorAt(%d) first = %v,%v want %d", from, it.Key, ok, want)
		}
		// The remainder must continue in order from there.
		prev := it.Key.IntVal()
		for {
			it, ok := cu.Next()
			if !ok {
				break
			}
			if it.Key.IntVal() != prev+2 {
				t.Fatalf("CursorAt(%d): %d after %d", from, it.Key.IntVal(), prev)
			}
			prev = it.Key.IntVal()
		}
		if prev != 998 {
			t.Fatalf("CursorAt(%d) ended at %d", from, prev)
		}
	}
}

// TestBTreeCursorRange checks bounded cursors against every bound-kind
// combination over a dense key space, including batch-built trees.
func TestBTreeCursorRange(t *testing.T) {
	for _, batch := range []bool{false, true} {
		bt := NewBTree()
		if batch {
			run := make([]Item, 0, 1000)
			for i := 0; i < 2000; i += 2 {
				run = append(run, Item{adm.Int(int64(i)), adm.Int(int64(i * 10))})
			}
			bt.PutBatch(run, nil)
		} else {
			for i := 0; i < 2000; i += 2 {
				bt.Put(adm.Int(int64(i)), adm.Int(int64(i*10)))
			}
		}
		collect := func(lo, hi Bound) []int64 {
			var out []int64
			cur := bt.CursorRange(lo, hi)
			for {
				it, ok := cur.Next()
				if !ok {
					return out
				}
				out = append(out, it.Key.IntVal())
			}
		}
		want := func(from, to int64, loIncl, hiIncl bool) []int64 {
			var out []int64
			for i := int64(0); i < 2000; i += 2 {
				if (i > from || (loIncl && i == from)) && (i < to || (hiIncl && i == to)) {
					out = append(out, i)
				}
			}
			return out
		}
		cases := []struct {
			lo, hi Bound
			want   []int64
		}{
			{Include(adm.Int(10)), Include(adm.Int(20)), want(10, 20, true, true)},
			{Exclude(adm.Int(10)), Exclude(adm.Int(20)), want(10, 20, false, false)},
			{Include(adm.Int(11)), Include(adm.Int(19)), want(11, 19, true, true)},
			{Exclude(adm.Int(11)), Exclude(adm.Int(19)), want(11, 19, false, false)},
			{Unbounded(), Include(adm.Int(6)), want(-1, 6, false, true)},
			{Include(adm.Int(1994)), Unbounded(), want(1994, 1999, true, true)},
			{Unbounded(), Unbounded(), want(-1, 1999, false, true)},
			{Include(adm.Int(500)), Include(adm.Int(500)), []int64{500}},
			{Exclude(adm.Int(500)), Include(adm.Int(500)), nil},
			{Include(adm.Int(20)), Include(adm.Int(10)), nil},
			{Include(adm.Int(5000)), Unbounded(), nil},
			{Unbounded(), Include(adm.Int(-5)), nil},
		}
		for _, tc := range cases {
			got := collect(tc.lo, tc.hi)
			if !slices.Equal(got, tc.want) {
				t.Errorf("batch=%v CursorRange(%v,%v) = %v, want %v", batch, tc.lo, tc.hi, got, tc.want)
			}
		}
	}
}

// TestBTreeReleaseReuse empties trees key by key — deletes are what
// return nodes to the pool — and verifies trees then built from the
// pooled nodes stay correct. A released node whose array still aliased
// another node's storage would corrupt this immediately.
func TestBTreeReleaseReuse(t *testing.T) {
	model := make(map[int64]int64)
	for round := 0; round < 6; round++ {
		bt := NewBTree()
		clear(model)
		// Mix batch and point inserts so both construction paths draw
		// from the pool.
		run := make([]Item, 0, 3000)
		for i := 0; i < 3000; i++ {
			k := int64((i*7 + round) % 5000)
			if _, dup := model[k]; dup {
				continue
			}
			model[k] = int64(round*10000 + i)
			run = append(run, Item{adm.Int(k), adm.Int(model[k])})
		}
		slices.SortFunc(run, func(a, b Item) int { return adm.Compare(a.Key, b.Key) })
		bt.PutBatch(run, nil)
		for i := 0; i < 500; i++ {
			k := int64(6000 + i)
			model[k] = int64(i)
			bt.Put(adm.Int(k), adm.Int(int64(i)))
		}
		for i := 0; i < 200; i++ {
			k := int64((i*13 + round) % 5000)
			if bt.Delete(adm.Int(k)) {
				delete(model, k)
			} else if _, present := model[k]; present {
				t.Fatalf("round %d: Delete(%d) missed a present key", round, k)
			}
		}
		if bt.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, bt.Len(), len(model))
		}
		for k, v := range model {
			got, ok := bt.Get(adm.Int(k))
			if !ok || got.IntVal() != v {
				t.Fatalf("round %d: Get(%d) = %v,%v want %d", round, k, got, ok, v)
			}
		}
		// Ordered walk must match the sorted model too.
		var prev adm.Value
		first := true
		n := 0
		cur := bt.Cursor()
		for {
			it, ok := cur.Next()
			if !ok {
				break
			}
			if !first && !adm.Less(prev, it.Key) {
				t.Fatalf("round %d: cursor out of order", round)
			}
			prev, first = it.Key, false
			n++
		}
		if n != len(model) {
			t.Fatalf("round %d: cursor yielded %d items, want %d", round, n, len(model))
		}
		for k := range model {
			if !bt.Delete(adm.Int(k)) {
				t.Fatalf("round %d: Delete(%d) missed a present key", round, k)
			}
		}
		if bt.Len() != 0 {
			t.Fatalf("round %d: deleting every key left Len = %d", round, bt.Len())
		}
	}
}
