package adm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSizePinned: a view rides in the words Value already has.
func TestValueSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 80", got)
	}
}

// checkViewAgrees holds View(enc) and ViewAlias(enc) to the value
// DecodeBinary(enc) returned: every way of reading either view says what
// the decoded object says. FuzzDecodeBinary runs it on every object it
// decodes.
func checkViewAgrees(t *testing.T, enc []byte, v Value) {
	t.Helper()
	checkOneViewAgrees(t, enc, View(enc), v)
	checkOneViewAgrees(t, enc, ViewAlias(enc), v)
}

func checkOneViewAgrees(t *testing.T, enc []byte, view, v Value) {
	t.Helper()
	if view.Kind() != v.Kind() {
		t.Fatalf("View(%x) is a %s, decoded a %s", enc, view.Kind(), v.Kind())
	}
	if Compare(view, v) != 0 || Compare(v, view) != 0 || !Equal(view, v) || Hash(view) != Hash(v) {
		t.Fatalf("View(%x) = %v, decoded %v (hash %x vs %x)", enc, view, v, Hash(view), Hash(v))
	}
	want := AppendJSON(nil, v)
	if got := AppendJSON(nil, view); !bytes.Equal(got, want) {
		t.Fatalf("View(%x) JSON %s, decoded %s", enc, got, want)
	}
	// After output already in the buffer, as a row's JSON lands in the
	// driver's reused one (a name repeated inside rewinds to its start).
	prefix := []byte(`{"row":`)
	if got := AppendJSON(prefix, view); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != string(prefix) {
		t.Fatalf("View(%x) JSON after %s: %s, decoded %s", enc, prefix, got, want)
	}
	if got := AppendBinary(nil, view); !bytes.Equal(got, enc) {
		t.Fatalf("AppendBinary(View(%x)) = %x", enc, got)
	}
	if back, n, err := DecodeBinary(AppendBinary(nil, view)); err != nil || n != len(enc) || Compare(back, v) != 0 {
		t.Fatalf("DecodeBinary(AppendBinary(View(%x))) = %v, %d, %v", enc, back, n, err)
	}
	if !view.nestsWithin(MaxDepth) {
		t.Fatalf("View(%x) is not within MaxDepth", enc)
	}
	if size := BinarySize(view); size != len(enc) {
		t.Fatalf("BinarySize(View(%x)) = %d", enc, size)
	}
	if d := view.Detached(); Compare(d, v) != 0 || (view.isView() && unsafe.StringData(d.s) == unsafe.StringData(view.s)) {
		t.Fatalf("View(%x).Detached() = %v, sharing bytes or not equal", enc, d)
	}
	if view.String() != v.String() {
		t.Fatalf("View(%x).String() = %s, decoded %s", enc, view, v)
	}
	o := v.ObjectVal()
	if o == nil {
		return
	}
	absent := "\x00absent"
	for i := 0; i < o.Len(); i++ {
		name := o.Name(i)
		got, want := view.Field(name), v.Field(name)
		if got.Kind() != want.Kind() || Compare(got, want) != 0 {
			t.Fatalf("View(%x).Field(%q) = %v, decoded %v", enc, name, got, want)
		}
		// The field's encoding, read where it lies, is the field.
		if fe := view.FieldEncoding(name); fe == nil || Compare(ViewAlias(fe), want) != 0 || Hash(ViewAlias(fe)) != Hash(want) {
			t.Fatalf("View(%x).FieldEncoding(%q) = %x, decoded %v", enc, name, fe, want)
		}
		if name == absent {
			absent += "!"
		}
	}
	if got := view.Field(absent); !got.IsMissing() || view.FieldEncoding(absent) != nil {
		t.Fatalf("View(%x).Field(absent) = %v", enc, got)
	}
	if vo := view.ObjectVal(); vo.Len() != o.Len() {
		t.Fatalf("View(%x).ObjectVal() has %d fields, decoded %d", enc, vo.Len(), o.Len())
	}
}

// viewSeeds are the object encodings a well-behaved encoder never or
// rarely writes, which the view must read as DecodeBinary does.
func viewSeeds() [][]byte {
	field := func(dst []byte, name string, v Value) []byte {
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
		return AppendBinary(dst, v)
	}
	// One name three times: Object.Set keeps the first position and the
	// last value, and Field must return that value.
	dup := []byte{byte(KindObject), 4}
	dup = field(dup, "a", Int(1))
	dup = field(dup, "b", String("x"))
	dup = field(dup, "a", ObjectValue(ObjectFromPairs("n", Int(2))))
	dup = field(dup, "a", Double(3))

	wide := NewObject(40) // past indexThreshold: the decoded side looks up by map
	for i := 0; i < 40; i++ {
		wide.Set(fmt.Sprintf("f%02d", i), Int(int64(i)))
	}
	deep, mixed := Int(1), Int(1)
	for i := 0; i < MaxDepth; i++ {
		deep = ObjectValue(ObjectFromPairs("d", deep))
		if i%2 == 0 {
			mixed = Array([]Value{mixed, Null()})
		} else {
			mixed = ObjectValue(ObjectFromPairs("m", mixed))
		}
	}
	// The kinds JSON writes its own way: NaN and ±Inf as null, temporal
	// kinds as ISO-8601 strings, spatial ones as arrays, control
	// characters escaped — in names too.
	kinds := ObjectFromPairs(
		"nan", Double(math.NaN()), "inf", Double(math.Inf(1)), "-inf", Double(math.Inf(-1)),
		"neg0", Double(math.Copysign(0, -1)), "tiny", Double(5e-324), "int", Int(math.MinInt64),
		"epoch", DateTimeMillis(0), "then", DateTimeMillis(1_560_000_000_123), "before", DateTimeMillis(-62_135_596_800_001),
		"dur", Duration(14, 93_600_250), "negdur", Duration(-1, -5), "zerodur", Duration(0, 0),
		"pt", Point(1.5, math.NaN()), "rect", Rectangle(0, 0, 1e300, -2), "circle", Circle(3, 4, math.Inf(1)),
		"ctl\x00\x01\x1f\t\"\\", String("a\x00b\x07c\x1fd\n\r\t\"\\\x7fé"),
		"", Bool(false), "miss", Missing(), "null", Null(),
		"arr", Array([]Value{Double(math.NaN()), DateTimeMillis(1), ObjectValue(NewObject(0)), EmptyArray()}),
	)
	// A repeated name below the top, inside an array: the transcoder
	// has written output for the object around it when it meets the
	// repeat.
	nestedDup := []byte{byte(KindObject), 2}
	nestedDup = field(nestedDup, "x", Int(1))
	nestedDup = append(nestedDup, 1, 'l', byte(KindArray), 2, byte(KindNull))
	nestedDup = append(nestedDup, dup...)
	return [][]byte{
		dup,
		AppendBinary(nil, ObjectValue(NewObject(0))),
		AppendBinary(nil, ObjectValue(wide)),
		AppendBinary(nil, deep),
		AppendBinary(nil, benchTweet()),
		nestedDup,
		AppendBinary(nil, mixed),
		AppendBinary(nil, ObjectValue(kinds)),
	}
}

func TestViewAgreesWithDecode(t *testing.T) {
	seeds := viewSeeds()
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		o := NewObject(4)
		for n := r.Intn(6); n > 0; n-- {
			o.Set(randomString(r), randomValue(r, 3))
		}
		seeds = append(seeds, AppendBinary(nil, ObjectValue(o)))
	}
	for _, enc := range seeds {
		v, n, err := DecodeBinary(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("seed %x: %d, %v", enc, n, err)
		}
		checkViewAgrees(t, enc, v)
	}
	// A sub-view is a view like any other.
	outer := AppendBinary(nil, ObjectValue(ObjectFromPairs("user", benchTweet(), "n", Int(1))))
	sub := View(outer).Field("user")
	if !sub.isView() {
		t.Fatal("an object field of a view is not a sub-view")
	}
	checkViewAgrees(t, AppendBinary(nil, sub), benchTweet())
	// Non-objects decode outright, and own their memory.
	enc := AppendBinary(nil, String("abc"))
	s := View(enc)
	enc[2] = 'X'
	if s.StringVal() != "abc" {
		t.Fatalf("View of a string aliases its input: %v", s)
	}
}

// benchTweet is a 16-field record shaped like the benchmark's tweets.
func benchTweet() Value {
	o := NewObject(16)
	o.Set("id", Int(1234567890123))
	o.Set("text", String(strings.Repeat("lorem ipsum ", 10)))
	o.Set("country", String("US"))
	o.Set("user", ObjectValue(ObjectFromPairs("screen_name", String("someone"), "followers_count", Int(321))))
	o.Set("latitude", Double(33.64))
	o.Set("longitude", Double(-117.84))
	o.Set("created_at", DateTimeMillis(1_560_000_000_000))
	o.Set("lang", String("en"))
	o.Set("retweet_count", Int(17))
	o.Set("filler", String(strings.Repeat("x", 120)))
	o.Set("verified", Bool(true))
	o.Set("favorite_count", Int(5))
	o.Set("hashtags", Array([]Value{String("a"), String("b")}))
	o.Set("source", String("web"))
	o.Set("truncated", Bool(false))
	o.Set("timestamp_ms", Int(1_560_000_000_123))
	return ObjectValue(o)
}

// TestViewFieldAllocatesNothingForFixedWidthKinds: reading an int,
// double, boolean or datetime field of a view costs no allocation — the
// scan of a top-k or a filtered aggregate over stored records is free of
// per-record garbage. (A string field is copied: it owns its memory.)
func TestViewFieldAllocatesNothingForFixedWidthKinds(t *testing.T) {
	view := View(AppendBinary(nil, benchTweet()))
	for _, name := range []string{"id", "latitude", "created_at", "verified", "timestamp_ms", "no_such_field"} {
		if n := testing.AllocsPerRun(100, func() { benchSink = view.Field(name) }); n != 0 {
			t.Errorf("Field(%q) on a view: %v allocations", name, n)
		}
	}
}

// aliases reports whether s lies inside enc.
func aliases(s string, enc []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(&enc[0]))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(enc))
}

// storageRecord is benchTweet with a wider array of strings.
func storageRecord() []byte {
	tags := make([]Value, 8)
	for i := range tags {
		tags[i] = String(fmt.Sprintf("tag-%d", i))
	}
	o := benchTweet().ObjectVal()
	o.Set("tags", Array(tags))
	return AppendBinary(nil, ObjectValue(o))
}

// TestStorageViewStringsAllocateNothing: a view of bytes that never
// change (ViewAlias, how storage hands records up) hands up strings that
// alias those bytes. A string field — of the record or of a sub-view —
// allocates nothing, and an array of strings allocates its elements'
// slice and nothing per string, where a View copies each (an array of
// eight strings: 1 allocation against 9). Detached copies every one.
func TestStorageViewStringsAllocateNothing(t *testing.T) {
	enc := storageRecord()
	view := ViewAlias(enc)
	for _, path := range [][]string{{"text"}, {"country"}, {"filler"}, {"user", "screen_name"}} {
		read := func() Value {
			v := view
			for _, name := range path {
				v = v.Field(name)
			}
			return v
		}
		if n := testing.AllocsPerRun(100, func() { benchSink = read() }); n != 0 {
			t.Errorf("string field %v of a storage view: %v allocations, want 0", path, n)
		}
		if s := read().StringVal(); !aliases(s, enc) {
			t.Errorf("string field %v of a storage view is a copy", path)
		}
		if s := read().Detached().StringVal(); aliases(s, enc) {
			t.Errorf("string field %v of a storage view, detached, still aliases the record", path)
		}
	}
	if n := testing.AllocsPerRun(100, func() { benchSink = view.Field("tags") }); n != 1 {
		t.Errorf("array of 8 strings of a storage view: %v allocations, want 1 (its elements)", n)
	}
	if n := testing.AllocsPerRun(100, func() { benchSink = View(enc).Field("tags") }); n != 9 {
		t.Errorf("array of 8 strings of a copying view: %v allocations, want 9", n)
	}
	tags, detached := view.Field("tags"), view.Field("tags").Detached()
	for i := range 8 {
		if s := tags.Index(i).StringVal(); !aliases(s, enc) || s != fmt.Sprintf("tag-%d", i) {
			t.Errorf("tags[%d] of a storage view = %q, aliasing the record: %v", i, s, aliases(s, enc))
		}
		if s := detached.Index(i).StringVal(); aliases(s, enc) {
			t.Errorf("tags[%d] of a storage view, detached, still aliases the record", i)
		}
	}
	// Decoding the whole record aliases its strings and names too; a
	// detached copy of the decoded object none.
	o, d := view.ObjectVal(), ObjectValue(view.ObjectVal()).Detached().ObjectVal()
	for i := 0; i < o.Len(); i++ {
		if !aliases(o.Name(i), enc) || aliases(d.Name(i), enc) {
			t.Errorf("field name %q: decoded aliases the record %v, detached %v", o.Name(i), aliases(o.Name(i), enc), aliases(d.Name(i), enc))
		}
		if s := d.At(i); s.Kind() == KindString && aliases(s.StringVal(), enc) {
			t.Errorf("field %q of a detached decoded object aliases the record", o.Name(i))
		}
	}
	if Compare(ObjectValue(d), View(enc)) != 0 {
		t.Error("a detached copy of a decoded storage view differs from the record")
	}
}

// TestReusedBufferViewStringsAreCopies: a View is made over a buffer
// that is reused — a wire frame, a collector's scratch — so what it
// hands up must not change when the buffer is overwritten: every string
// field, string array element, sub-view's string field and decoded
// object read before the overwrite still reads as the original record.
func TestReusedBufferViewStringsAreCopies(t *testing.T) {
	enc := storageRecord()
	want, _, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	view := View(enc)
	text, tags, name, obj := view.Field("text"), view.Field("tags"), view.Field("user").Field("screen_name"), view.ObjectVal()
	for i := range enc {
		enc[i] = 'X'
	}
	for _, c := range []struct {
		what      string
		got, want Value
	}{
		{"text", text, want.Field("text")},
		{"tags", tags, want.Field("tags")},
		{"user.screen_name", name, want.Field("user").Field("screen_name")},
		{"the decoded record", ObjectValue(obj), want},
	} {
		if !Equal(c.got, c.want) {
			t.Errorf("%s read from a View before its buffer was overwritten: %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestAppendJSONViewAllocatesNothing: a stored record's JSON is
// transcoded from its bytes — a datetime included — into a buffer with
// room without one allocation, where decoding it first built a tree.
func TestAppendJSONViewAllocatesNothing(t *testing.T) {
	view := View(AppendBinary(nil, benchTweet()))
	buf := AppendJSON(nil, view)
	if n := testing.AllocsPerRun(100, func() { buf = AppendJSON(buf[:0], view) }); n != 0 {
		t.Fatalf("AppendJSON of a view into a buffer with room: %v allocations", n)
	}
}

// BenchmarkAppendJSON prices a stored record's JSON as a view's
// transcoding against decoding it and writing the tree, which is what
// the driver paid per composite row before.
func BenchmarkAppendJSON(b *testing.B) {
	enc := AppendBinary(nil, benchTweet())
	view := View(enc)
	buf := AppendJSON(nil, view)
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendJSON(buf[:0], view)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, _, _ := DecodeBinary(enc)
			buf = SerializeJSON(v)
		}
	})
}

// BenchmarkFieldView prices a field lookup on a stored record as storage
// now hands it up (a view: walk the encoding) against the same lookup on
// the decoded object, for the first, the last and an absent field of a
// 16-field tweet; decode-then-lookup is what a scan paid per record
// before views.
func BenchmarkFieldView(b *testing.B) {
	tweet := benchTweet()
	enc := AppendBinary(nil, tweet)
	view := View(enc)
	for _, probe := range [][2]string{{"first", "id"}, {"last", "timestamp_ms"}, {"missing", "no_such_field"}} {
		b.Run("view/"+probe[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = view.Field(probe[1])
			}
		})
		b.Run("decoded/"+probe[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = tweet.Field(probe[1])
			}
		})
		b.Run("decode+lookup/"+probe[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, _, _ := DecodeBinary(enc)
				benchSink = v.Field(probe[1])
			}
		})
	}
}

// TestViewAt: a record is taken as lying at an offset of a buffer only
// when it is a view whose bytes start there — not a decoded object, not
// an equal view of other bytes, not at another offset.
func TestViewAt(t *testing.T) {
	obj := ObjectValue(ObjectFromPairs("id", Int(7), "s", String("x")))
	enc := AppendBinary(AppendBinary(nil, Int(7)), obj)
	at := BinarySize(Int(7))
	v := View(enc[at:])
	if n, ok := ViewAt(v, enc, at); !ok || n != len(enc)-at {
		t.Fatalf("ViewAt(view, enc, %d) = %d, %v; want %d, true", at, n, ok, len(enc)-at)
	}
	for _, c := range []struct {
		name string
		v    Value
		off  int
	}{
		{"a decoded object", obj, at},
		{"an equal view of other bytes", View(AppendBinary(nil, obj)), at},
		{"another offset", v, 0},
		{"an offset past the end", v, len(enc)},
		{"a negative offset", v, -1},
		{"a scalar", Int(7), 0},
	} {
		if _, ok := ViewAt(c.v, enc, c.off); ok {
			t.Errorf("%s is taken as a view of the buffer at %d", c.name, c.off)
		}
	}
}

// TestDetachedIntoReusesItsBuffer: DetachedInto copies a view into the
// buffer it is given, in place when the buffer has the room, so the copy
// reads as the view did after the view's bytes are overwritten, and a
// second copy into the returned buffer allocates nothing. A value that
// is no view is Detached.
func TestDetachedIntoReusesItsBuffer(t *testing.T) {
	enc := AppendBinary(nil, ObjectValue(ObjectFromPairs("id", Int(7), "name", String("seven"))))
	src := append([]byte(nil), enc...)
	v := ViewAlias(src)
	cp, buf := v.DetachedInto(nil)
	for i := range src {
		src[i] = 0xff
	}
	if !bytes.Equal(AppendBinary(nil, cp), enc) || cp.Field("name").StringVal() != "seven" {
		t.Fatalf("the copy reads %v once the view's bytes are overwritten", cp)
	}
	w := ViewAlias(enc)
	if n := testing.AllocsPerRun(100, func() { cp, buf = w.DetachedInto(buf) }); n != 0 {
		t.Fatalf("a copy into a buffer with room allocated %v times", n)
	}
	if got, b := String("x").DetachedInto(buf); got.StringVal() != "x" || len(b) != len(buf) || &b[0] != &buf[0] {
		t.Fatal("a string was not Detached, or its copy touched the buffer")
	}
}
