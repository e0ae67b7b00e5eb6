package adm

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareCrossKindOrder(t *testing.T) {
	// The documented total order, one representative per kind.
	ordered := []Value{
		Missing(), Null(), Bool(false), Int(1), String("a"),
		DateTimeMillis(0), Duration(0, 1), Point(0, 0),
		Rectangle(0, 0, 1, 1), Circle(0, 0, 1),
		Array(nil), ObjectValue(NewObject(0)),
	}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestCompareNumericPromotion(t *testing.T) {
	if Compare(Int(3), Double(3.0)) != 0 {
		t.Error("3 and 3.0 should compare equal")
	}
	if Compare(Int(3), Double(3.5)) >= 0 {
		t.Error("3 < 3.5")
	}
	if Compare(Double(2.5), Int(2)) <= 0 {
		t.Error("2.5 > 2")
	}
}

func TestCompareNaNDeterministic(t *testing.T) {
	nan := Double(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN must equal itself for ordering purposes")
	}
	if Compare(nan, Double(1e308)) <= 0 {
		t.Error("NaN sorts after numbers")
	}
	if Compare(Double(-1), nan) >= 0 {
		t.Error("numbers sort before NaN")
	}
}

func TestCompareStringsArraysObjects(t *testing.T) {
	if Compare(String("abc"), String("abd")) >= 0 {
		t.Error("string order failed")
	}
	a := Array([]Value{Int(1), Int(2)})
	b := Array([]Value{Int(1), Int(3)})
	c := Array([]Value{Int(1)})
	if Compare(a, b) >= 0 || Compare(c, a) >= 0 {
		t.Error("array order failed")
	}
	o1 := ObjectValue(ObjectFromPairs("a", Int(1)))
	o2 := ObjectValue(ObjectFromPairs("a", Int(2)))
	o3 := ObjectValue(ObjectFromPairs("a", Int(1), "b", Int(0)))
	if Compare(o1, o2) >= 0 {
		t.Error("object value order failed")
	}
	if Compare(o1, o3) >= 0 {
		t.Error("shorter object sorts first")
	}
	if Compare(o1, ObjectValue(ObjectFromPairs("a", Int(1)))) != 0 {
		t.Error("identical objects must compare equal")
	}
}

// Less reports whether a sorts strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

func TestEqualAndLess(t *testing.T) {
	if !Equal(String("x"), String("x")) || Equal(Int(1), Int(2)) {
		t.Error("Equal failed")
	}
	if !Less(Int(1), Int(2)) || Less(Int(2), Int(1)) {
		t.Error("Less failed")
	}
}

// randomValue builds an arbitrary ADM value of bounded depth for
// property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(13)
	if depth <= 0 && (k == 11 || k == 12) {
		k = r.Intn(11)
	}
	switch k {
	case 0:
		return Missing()
	case 1:
		return Null()
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3:
		return Int(r.Int63n(1000) - 500)
	case 4:
		return Double(r.NormFloat64() * 100)
	case 5:
		return String(randomString(r))
	case 6:
		return DateTimeMillis(r.Int63n(1e12))
	case 7:
		return Duration(int32(r.Intn(24)), r.Int63n(1e6))
	case 8:
		return Point(r.Float64()*100, r.Float64()*100)
	case 9:
		return Rectangle(r.Float64()*10, r.Float64()*10, r.Float64()*10, r.Float64()*10)
	case 10:
		return Circle(r.Float64()*10, r.Float64()*10, r.Float64()*5)
	case 11:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return Array(elems)
	default:
		n := r.Intn(4)
		o := NewObject(n)
		for i := 0; i < n; i++ {
			o.Set(randomString(r), randomValue(r, depth-1))
		}
		return ObjectValue(o)
	}
}

func randomString(r *rand.Rand) string {
	const alphabet = "abcdefgh"
	n := r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func TestCompareIsReflexiveAndAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := randomValue(r, 3)
		b := randomValue(r, 3)
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, a) != 0", a)
		}
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v vs %v", a, b)
		}
	}
}

func TestCompareIsTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		vals := []Value{randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)}
		sort.Slice(vals, func(i, j int) bool { return Less(vals[i], vals[j]) })
		if Compare(vals[0], vals[2]) > 0 {
			t.Fatalf("transitivity violated: %v .. %v", vals[0], vals[2])
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		a := randomValue(r, 3)
		b, _, err := DecodeBinary(AppendBinary(nil, a))
		if err != nil {
			t.Fatal(err)
		}
		if Hash(a) != Hash(b) {
			t.Fatalf("clone hash differs for %v", a)
		}
	}
	// Cross-type numeric equality hashes identically.
	if Hash(Int(42)) != Hash(Double(42.0)) {
		t.Error("42 and 42.0 must hash identically")
	}
}

// TestHashIsStable pins Hash's values: storage routes a primary key to
// the partition Hash picks, so a value that changed between processes —
// a per-process seed, or an edit to the function — would send existing
// keys to partitions that never stored them. Hashing allocates nothing
// (a view is decoded first, as the view.go comment says).
func TestHashIsStable(t *testing.T) {
	obj := ObjectValue(ObjectFromPairs("id", Int(7), "name", String("x")))
	for _, tc := range []struct {
		v    Value
		want uint64
	}{
		{Int(42), 0xc2fe9dc53ecb3559},
		{Double(42), 0xc2fe9dc53ecb3559},
		{Int(-1), 0x2198171a7d28ab7c},
		{String("tweet-00042"), 0xbaef252622c2cbfc},
		{Array([]Value{Int(1), String("a")}), 0x7798a8cc416e36b7},
		{obj, 0x57083a7d97153ec},
		{View(AppendBinary(nil, obj)), 0x57083a7d97153ec},
	} {
		if got := Hash(tc.v); got != tc.want {
			t.Errorf("Hash(%v) = %#x, want %#x", tc.v, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = Hash(tc.v) }); n != 0 && !tc.v.isView() {
			t.Errorf("Hash(%v) allocates %v times", tc.v, n)
		}
	}
}

func TestHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[Hash(Int(int64(i)))] = true
	}
	if len(seen) < 990 {
		t.Errorf("int hash collides too much: %d distinct of 1000", len(seen))
	}
}

func TestCompareQuickTotalOrderOnInts(t *testing.T) {
	f := func(a, b int64) bool {
		c := Compare(Int(a), Int(b))
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareQuickStringsMatchNative(t *testing.T) {
	f := func(a, b string) bool {
		c := Compare(String(a), String(b))
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
