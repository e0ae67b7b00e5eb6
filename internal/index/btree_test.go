package index

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
)

// items drains a full-range cursor.
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
		if adm.Compare(sorted[i-1].Key, sorted[i].Key) >= 0 {
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
// sorted items, uniform leaf depth, fill bounds on every non-root node
// (1..maxItems on the right spine, minItems..maxItems elsewhere), no
// array larger than a node, child counts, and separator ordering.
func checkInvariants[K, V any](t *testing.T, bt *Tree[K, V]) {
	t.Helper()
	if bt.root == nil {
		if bt.size != 0 {
			t.Fatalf("nil root with size %d", bt.size)
		}
		return
	}
	leafDepth := -1
	counted := 0
	less := func(a, b K) bool { return bt.cmp(a, b) < 0 }
	var walk func(n *btreeNode[K, V], depth int, edge bool, min, max *K)
	walk = func(n *btreeNode[K, V], depth int, edge bool, min, max *K) {
		least := minItems
		if edge {
			least = 1
		}
		if depth > 0 && (len(n.items) < least || len(n.items) > maxItems) {
			t.Fatalf("node at depth %d (right spine: %v) has %d items (want %d..%d)", depth, edge, len(n.items), least, maxItems)
		}
		if depth == 0 && len(n.items) > maxItems {
			t.Fatalf("root has %d items (max %d)", len(n.items), maxItems)
		}
		if cap(n.items) > maxItems || cap(n.children) > maxItems+1 {
			t.Fatalf("node at depth %d has arrays of %d items and %d children (max %d, %d)", depth, cap(n.items), cap(n.children), maxItems, maxItems+1)
		}
		counted += len(n.items)
		for i, it := range n.items {
			if i > 0 && !less(n.items[i-1].Key, it.Key) {
				t.Fatalf("items out of order at depth %d", depth)
			}
			if min != nil && !less(*min, it.Key) {
				t.Fatalf("item below subtree lower bound at depth %d", depth)
			}
			if max != nil && !less(it.Key, *max) {
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
			walk(c, depth+1, edge && i == len(n.items), lo, hi)
		}
	}
	walk(bt.root, 0, true, nil, nil)
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

// keyRange returns the keys lo, lo+1, ..., hi-1.
func keyRange(lo, hi int64) []int64 {
	keys := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// Property test: batches, point puts, and deletes must agree with a
// reference map, and the tree shape must stay legal, whether batches
// land anywhere (random), at the right edge (ascending, re-sending the
// last few keys now and then), or mostly there — two ascending streams
// whose batches sometimes arrive swapped, as frames from two collectors
// reach a storage partition (interleaved).
func TestBTreePutBatchMatchesMapModel(t *testing.T) {
	for _, arm := range []struct {
		name string
		// batches returns one round's sorted batches, in arrival order,
		// advancing *next past every key ever sent.
		batches func(r *rand.Rand, next *int64) [][]int64
	}{
		{"random", func(r *rand.Rand, next *int64) [][]int64 {
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
			*next = max(*next, keys[len(keys)-1]+1)
			return [][]int64{keys}
		}},
		{"ascending", func(r *rand.Rand, next *int64) [][]int64 {
			lo := max(0, *next-r.Int63n(8))
			*next += 1 + r.Int63n(400)
			return [][]int64{keyRange(lo, *next)}
		}},
		{"interleaved", func(r *rand.Rand, next *int64) [][]int64 {
			mid := *next + 1 + r.Int63n(200)
			hi := mid + 1 + r.Int63n(200)
			a, b := keyRange(*next, mid), keyRange(mid, hi)
			*next = hi
			if r.Intn(3) == 0 {
				return [][]int64{b, a}
			}
			return [][]int64{a, b}
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			bt := NewBTree()
			model := map[int64]int64{}
			r := rand.New(rand.NewSource(41))
			next := int64(0)
			for round := 0; round < 300; round++ {
				switch r.Intn(4) {
				case 0, 1:
					for _, keys := range arm.batches(r, &next) {
						val := r.Int63n(1 << 30)
						bt.PutBatch(sortedRun(keys, val), nil)
						for _, k := range keys {
							model[k] = k + val
						}
					}
				case 2: // point put
					k, v := r.Int63n(next+600), r.Int63()
					bt.Put(adm.Int(k), adm.Int(v))
					model[k] = v
				default: // deletes between batches
					for range 1 + r.Intn(8) {
						k := r.Int63n(next + 1)
						_, inModel := model[k]
						if bt.Delete(adm.Int(k)) != inModel {
							t.Fatalf("round %d: delete mismatch for %d", round, k)
						}
						delete(model, k)
					}
				}
				if bt.Len() != len(model) {
					t.Fatalf("round %d: len %d vs model %d", round, bt.Len(), len(model))
				}
				if round%10 == 0 {
					checkInvariants(t, bt)
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
		})
	}
}

// leafFill walks the tree and returns the item count of every leaf off
// the right spine.
func leafFill[K, V any](bt *Tree[K, V]) []int {
	var fill []int
	var walk func(n *btreeNode[K, V], edge bool)
	walk = func(n *btreeNode[K, V], edge bool) {
		if n.leaf() {
			if !edge {
				fill = append(fill, len(n.items))
			}
			return
		}
		for i, c := range n.children {
			walk(c, edge && i == len(n.items))
		}
	}
	if bt.root != nil {
		walk(bt.root, true)
	}
	return fill
}

// buildCost builds a tree from the batches and returns it with the
// bytes allocated per item stored.
func buildCost(batches [][]Item) (*BTree, float64) {
	return buildTreeCost(NewBTree(), batches)
}

// buildTreeCost puts the batches into bt and returns it with the bytes
// allocated per item stored.
func buildTreeCost[K, V any](bt *Tree[K, V], batches [][]Entry[K, V]) (*Tree[K, V], float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, run := range batches {
		bt.PutBatch(run, nil)
	}
	runtime.ReadMemStats(&after)
	return bt, float64(after.TotalAlloc-before.TotalAlloc) / float64(bt.Len())
}

// inBatches cuts run into consecutive batches of size.
func inBatches(run []Item, size int) [][]Item {
	var out [][]Item
	for lo := 0; lo < len(run); lo += size {
		out = append(out, run[lo:min(lo+size, len(run))])
	}
	return out
}

// randomBatches cuts a seeded permutation of 0..n-1 into sorted batches
// of size.
func randomBatches(n, size int, seed int64) [][]Item {
	keys := rand.New(rand.NewSource(seed)).Perm(n)
	var out [][]Item
	for lo := 0; lo < n; lo += size {
		batch := make([]int64, 0, size)
		for _, k := range keys[lo:min(lo+size, n)] {
			batch = append(batch, int64(k))
		}
		slices.Sort(batch)
		out = append(out, sortedRun(batch, 0))
	}
	return out
}

// TestBTreeAscendingBatchesPackLeaves: keys arriving in key order — a
// memtable fed by a feed — fill every leaf they leave behind, so the
// tree allocates about one Item per item whatever the batch size: no
// half-full split at the right edge, no leaf array grown by a merge and
// kept. A split that has exactly one item more than a node holds leaves
// maxItems-1 (the separator and a non-empty right sibling take the
// rest), which is every split when the keys arrive one at a time.
func TestBTreeAscendingBatchesPackLeaves(t *testing.T) {
	const n = 200_000
	run := sortedRun(keyRange(0, n), 0)
	limit := 1.15 * float64(unsafe.Sizeof(Item{}))
	for _, size := range []int{1, 64, 1680} {
		bt, perItem := buildCost(inBatches(run, size))
		checkInvariants(t, bt)
		fill := leafFill(bt)
		short := 0
		for _, f := range fill {
			if f < maxItems-1 || (size == 1 && f != maxItems-1) {
				t.Fatalf("batches of %d: a leaf off the right spine holds %d items, want %d", size, f, maxItems)
			}
			if f < maxItems {
				short++
			}
		}
		t.Logf("batches of %d: %.0f bytes per item, %d leaves, %d of them one short", size, perItem, len(fill), short)
		if size > 1 && short > len(fill)/100 {
			t.Fatalf("batches of %d: %d of %d leaves off the right spine are not full", size, short, len(fill))
		}
		if perItem > limit {
			t.Fatalf("batches of %d: %.0f bytes allocated per %d-byte item, want at most %.0f", size, perItem, unsafe.Sizeof(Item{}), limit)
		}
	}
}

// TestBTreeRandomBatchesStayHalfFull: keys that land anywhere keep the
// half-full split off the right spine — every node there holds at least
// minItems (checkInvariants) — and the tree allocates no more per item
// than a tree of half-full nodes holds.
func TestBTreeRandomBatchesStayHalfFull(t *testing.T) {
	const n, size = 100_000, 500
	bt, perItem := buildCost(randomBatches(n, size, 7))
	checkInvariants(t, bt)
	limit := float64(maxItems*unsafe.Sizeof(Item{})) / minItems
	t.Logf("%.0f bytes per item, half-full bound %.0f", perItem, limit)
	if bt.Len() != n || perItem > limit {
		t.Fatalf("%d items, %.0f bytes allocated per item; want %d, at most %.0f", bt.Len(), perItem, n, limit)
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

// encodedTree is the LSM memtable's instantiation: entries are a key's
// and a record's encodings, ordered by adm.CompareEncoded.
func encodedTree() *Tree[string, string] {
	return New[string, string](func(a, b string) int {
		return adm.CompareEncoded(unsafe.Slice(unsafe.StringData(a), len(a)), unsafe.Slice(unsafe.StringData(b), len(b)))
	})
}

// encodedBatches is batches with every item encoded, as the memtable
// holds it.
func encodedBatches(batches [][]Item) [][]Entry[string, string] {
	out := make([][]Entry[string, string], len(batches))
	for i, run := range batches {
		out[i] = make([]Entry[string, string], len(run))
		for j, it := range run {
			out[i][j] = Entry[string, string]{string(adm.AppendBinary(nil, it.Key)), string(adm.AppendBinary(nil, it.Val))}
		}
	}
	return out
}

// BenchmarkBTreePutBatch builds a 64 Ki-item tree from 128-item batches
// (a storage frame) per iteration: keys in order, in order but with
// every third pair of batches swapped (two collectors' frames), and
// random. B/item is what the tree allocated per item stored: each shape
// runs over ADM Items (BTree) and, as "<shape>-bytes", over the
// memtable's entries of encodings.
func BenchmarkBTreePutBatch(b *testing.B) {
	const n, size = 1 << 16, 128
	asc := inBatches(sortedRun(keyRange(0, n), 0), size)
	interleaved := slices.Clone(asc)
	for i := 0; i+1 < len(interleaved); i += 6 {
		interleaved[i], interleaved[i+1] = interleaved[i+1], interleaved[i]
	}
	random := randomBatches(n, size, 3)
	for _, arm := range []struct {
		name    string
		batches [][]Item
	}{{"ascending", asc}, {"interleaved", interleaved}, {"random", random}} {
		b.Run(arm.name, func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				_, perItem := buildCost(arm.batches)
				bytes += perItem
			}
			b.ReportMetric(bytes/float64(b.N), "B/item")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
		})
		encoded := encodedBatches(arm.batches)
		b.Run(arm.name+"-bytes", func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				_, perItem := buildTreeCost(encodedTree(), encoded)
				bytes += perItem
			}
			b.ReportMetric(bytes/float64(b.N), "B/item")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
		})
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

// TestBTreeAscendFrom: a walk started at each position — before the
// smallest key, on a key, between two keys, past the largest — visits
// every key from there on in order, a walk stopped early visits no more,
// and a nil probe starts at the smallest key.
func TestBTreeAscendFrom(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i += 2 { // even keys only
		bt.Put(adm.Int(i), adm.Int(i))
	}
	walk := func(probe func(adm.Value) int, limit int) []int64 {
		var got []int64
		bt.AscendFrom(probe, func(it Item) bool {
			got = append(got, it.Key.IntVal())
			return len(got) < limit
		})
		return got
	}
	want := func(from int64, limit int) []int64 {
		var out []int64
		for i := max(0, from+from%2); i < 1000 && len(out) < limit; i += 2 {
			out = append(out, i)
		}
		return out
	}
	for _, from := range []int64{-1, 0, 1, 2, 499, 500, 997, 998, 999} {
		probe := func(k adm.Value) int { return adm.Compare(k, adm.Int(from)) }
		for _, limit := range []int{1, 3, 1000} {
			if got, w := walk(probe, limit), want(from, limit); !slices.Equal(got, w) {
				t.Fatalf("AscendFrom(%d) stopped after %d: %v, want %v", from, limit, got, w)
			}
		}
	}
	if got := walk(nil, 1000); !slices.Equal(got, want(0, 1000)) {
		t.Fatalf("AscendFrom(nil) visited %d keys", len(got))
	}
	if n := testing.AllocsPerRun(100, func() {
		walk(func(k adm.Value) int { return adm.Compare(k, adm.Int(500)) }, 0)
	}); n > 1 { // the walk's result slice
		t.Fatalf("a walk allocated %v times", n)
	}
}

// TestBTreeCursorRange checks a range walk — AscendFrom started at the
// lower bound by a probe that never returns zero, stopped at the first
// key past the upper bound — against every bound-kind combination over a
// dense key space, including batch-built trees.
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
			var probe func(adm.Value) int
			if !lo.Unbounded() {
				from, incl := lo.Key()
				probe = func(k adm.Value) int {
					if c := adm.Compare(k, from); c > 0 || c == 0 && incl {
						return 1
					}
					return -1
				}
			}
			bt.AscendFrom(probe, func(it Item) bool {
				if !hi.Unbounded() {
					to, incl := hi.Key()
					if c := adm.Compare(it.Key, to); c > 0 || c == 0 && !incl {
						return false
					}
				}
				out = append(out, it.Key.IntVal())
				return true
			})
			return out
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
				t.Errorf("batch=%v range (%v,%v) = %v, want %v", batch, tc.lo, tc.hi, got, tc.want)
			}
		}
	}
}

// TestReleasedNodesServeTheNextTree: Release hands every node of a tree
// made with NewIn to its list, cleared up to capacity, so a free node
// keeps no key or value alive; the next tree built from the list takes
// those nodes instead of new ones, whether it needs a leaf or an
// internal node; and the list keeps no more than the trees Release is
// told of times the nodes of the tree released.
func TestReleasedNodesServeTheNextTree(t *testing.T) {
	var l Nodes[string, string]
	batches := encodedBatches(randomBatches(20_000, 300, 3))
	build := func() *Tree[string, string] {
		bt := NewIn(encodedTree().cmp, &l)
		for _, run := range batches {
			bt.PutBatch(run, nil)
		}
		checkInvariants(t, bt)
		return bt
	}
	nodesOf := func(bt *Tree[string, string]) map[*btreeNode[string, string]]bool {
		seen := map[*btreeNode[string, string]]bool{}
		var walk func(n *btreeNode[string, string])
		walk = func(n *btreeNode[string, string]) {
			seen[n] = true
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(bt.root)
		return seen
	}
	first := build()
	firstNodes := nodesOf(first)
	first.Release(2)
	if first.root != nil || first.Len() != 0 || len(l.free) != len(firstNodes) {
		t.Fatalf("a released tree of %d nodes left root %p, %d items, and %d free nodes", len(firstNodes), first.root, first.Len(), len(l.free))
	}
	for _, n := range l.free {
		if !firstNodes[n] || len(n.items) != 0 || len(n.children) != 0 {
			t.Fatal("a free node that is not the released tree's, or not empty")
		}
		for _, it := range n.items[:cap(n.items)] {
			if it != (Entry[string, string]{}) {
				t.Fatal("a free node still holds an entry")
			}
		}
		for _, c := range n.children[:cap(n.children)] {
			if c != nil {
				t.Fatal("a free node still holds a child")
			}
		}
	}
	second := build()
	for n := range nodesOf(second) {
		if !firstNodes[n] {
			t.Fatal("the next tree allocated a node while the list held free ones")
		}
	}
	if len(l.free) != 0 {
		t.Fatalf("%d free nodes left after a tree of the same shape", len(l.free))
	}
	// Three trees' worth come back; the list keeps two.
	third, fourth := build(), build()
	second.Release(2)
	third.Release(2)
	fourth.Release(2)
	if len(l.free) != 2*len(firstNodes) {
		t.Fatalf("the list keeps %d nodes after three trees of %d, want %d", len(l.free), len(firstNodes), 2*len(firstNodes))
	}
}
