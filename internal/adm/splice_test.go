package adm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// setRow is the row AppendRow must agree with: an Object filled field
// by field, a later value of one name replacing the earlier in place.
func setRow(parts []RowPart) Value {
	o := NewObject(len(parts))
	for _, p := range parts {
		if !p.Star {
			o.Set(p.Name, p.Val)
			continue
		}
		if src := p.Val.ObjectVal(); src != nil {
			for i := 0; i < src.Len(); i++ {
				o.Set(src.Name(i), src.At(i))
			}
		}
	}
	return ObjectValue(o)
}

// checkSpliceAgrees holds AppendRow(nil, parts) to setRow(parts): when the
// row is built from bytes it is a view, byte-identical under
// AppendBinary to the Object-built row and equal to it however it is
// read; and it declines only a row the bytes cannot express. It returns
// whether the byte path was taken.
func checkSpliceAgrees(t *testing.T, parts []RowPart) bool {
	t.Helper()
	want := setRow(parts)
	_, got, ok := AppendRow(nil, parts)
	if !ok {
		// Declining needs a reason: no star source to splice, one that is
		// a tree, an extra too deep for a row to hold, or a name the
		// Object saw twice.
		fields, stars, reason := 0, 0, false
		for _, p := range parts {
			switch {
			case !p.Star:
				fields++
				reason = reason || !p.Val.nestsWithin(MaxDepth-1)
			case p.Val.isView():
				count, _, _ := decodeLen(p.Val.encoded()[1:], KindObject)
				fields += count
				stars++
			default:
				reason = true
			}
		}
		if !reason && stars > 0 && fields == want.ObjectVal().Len() {
			t.Fatalf("AppendRow declined a row of %d distinct names over views: %v", fields, want)
		}
		return false
	}
	if !got.isView() {
		t.Fatalf("AppendRow built %v, not a view", got)
	}
	// Bytes our encoder wrote come back as themselves; a view over bytes
	// it would have written otherwise (a boolean payload of 0x30, an
	// overlong varint — only a hostile file holds those) keeps them, and
	// is held to the Object-built row by value alone.
	canonical := true
	for _, p := range parts {
		if p.Val.isView() {
			canonical = canonical && bytes.Equal(AppendBinary(nil, ObjectValue(p.Val.ObjectVal())), p.Val.encoded())
		}
	}
	if enc, wantEnc := AppendBinary(nil, got), AppendBinary(nil, want); canonical && !bytes.Equal(enc, wantEnc) {
		t.Fatalf("spliced row encodes to %x, the Object-built row to %x", enc, wantEnc)
	}
	if n, err := SkipBinary(got.encoded()); err != nil || n != len(got.s) {
		t.Fatalf("spliced row is no valid view: SkipBinary = %d, %v", n, err)
	}
	if Compare(got, want) != 0 || Hash(got) != Hash(want) {
		t.Fatalf("spliced row %v, Object-built row %v (hash %x vs %x)", got, want, Hash(got), Hash(want))
	}
	if a, b := AppendJSON(nil, got), AppendJSON(nil, want); !bytes.Equal(a, b) {
		t.Fatalf("spliced row JSON %s, Object-built row %s", a, b)
	}
	return true
}

func viewOf(v Value) Value { return View(AppendBinary(nil, v)) }

func wideObject(n int) Value {
	o := NewObject(n)
	for i := 0; i < n; i++ {
		o.Set(fmt.Sprintf("f%03d", i), Int(int64(i)))
	}
	return ObjectValue(o)
}

// TestSpliceRowMatchesObjectSet: `SELECT t.*, extra…` built from the
// encodings agrees with the row built by Object.Set, case by case and
// over random bases and extras.
func TestSpliceRowMatchesObjectSet(t *testing.T) {
	nested := ObjectValue(ObjectFromPairs("a", Int(1), "b", Array([]Value{String("x"), Null()})))
	tweet := viewOf(benchTweet())
	for _, tc := range []struct {
		name  string
		parts []RowPart
		bytes bool // the byte path must (not) be taken
	}{
		{"empty base", []RowPart{{Val: viewOf(ObjectValue(NewObject(0))), Star: true}, {Name: "x", Val: Int(1)}}, true},
		{"no extra", []RowPart{{Val: tweet, Star: true}}, true},
		{"126 fields + 1", []RowPart{{Val: viewOf(wideObject(126)), Star: true}, {Name: "x", Val: Int(1)}}, true},
		{"127 fields + 1: the count grows a byte", []RowPart{{Val: viewOf(wideObject(127)), Star: true}, {Name: "x", Val: Int(1)}}, true},
		{"128 fields + 1", []RowPart{{Val: viewOf(wideObject(128)), Star: true}, {Name: "x", Val: Int(1)}}, true},
		{"MISSING extra", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: Missing()}}, true},
		{"nested object extra", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: nested}}, true},
		{"sub-view extra", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: tweet.Field("user")}}, true},
		{"extra first", []RowPart{{Name: "x", Val: String("first")}, {Val: tweet, Star: true}}, true},
		{"two star sources", []RowPart{{Val: tweet, Star: true}, {Val: viewOf(ObjectValue(ObjectFromPairs("p", Int(1), "q", nested))), Star: true}, {Name: "x", Val: Int(2)}}, true},
		{"extra named like a base field", []RowPart{{Val: tweet, Star: true}, {Name: "lang", Val: String("fr")}}, false},
		{"two extras with one name", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: Int(1)}, {Name: "x", Val: Int(2)}}, false},
		{"two star sources sharing a name", []RowPart{{Val: tweet, Star: true}, {Val: viewOf(ObjectValue(ObjectFromPairs("id", Int(9)))), Star: true}}, false},
		{"a name repeated inside the source", []RowPart{{Val: View(viewSeeds()[0]), Star: true}, {Name: "x", Val: Int(1)}}, false},
		{"tree source", []RowPart{{Val: benchTweet(), Star: true}, {Name: "x", Val: Int(1)}}, false},
		{"no star source: named values only", []RowPart{{Name: "lang", Val: tweet.Field("lang")}, {Name: "n", Val: Int(3)}}, false},
		{"extra at the depth limit", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: View(viewSeeds()[3])}}, false},
	} {
		if took := checkSpliceAgrees(t, tc.parts); took != tc.bytes {
			t.Errorf("%s: byte path taken = %v, want %v", tc.name, took, tc.bytes)
		}
	}

	r := rand.New(rand.NewSource(23))
	took := 0
	for i := 0; i < 2000; i++ {
		var parts []RowPart
		for n := 1 + r.Intn(3); n > 0; n-- {
			switch r.Intn(3) {
			case 0:
				parts = append(parts, RowPart{Name: randomString(r), Val: randomValue(r, 2)})
			default:
				o := NewObject(4)
				for f := r.Intn(6); f > 0; f-- {
					o.Set(randomString(r)+string(rune('a'+r.Intn(26))), randomValue(r, 2))
				}
				src := ObjectValue(o)
				if r.Intn(8) > 0 {
					src = viewOf(src)
				}
				parts = append(parts, RowPart{Val: src, Star: true})
			}
		}
		if checkSpliceAgrees(t, parts) {
			took++
		}
	}
	if took < 200 {
		t.Fatalf("only %d of 2000 random rows took the byte path", took)
	}
}

// TestAppendRowNeverRegrowsDst: AppendRow writes the row's bytes. Into
// a dst with room it writes them in place, after dst's own bytes, which
// it leaves alone; into one without room it writes nothing and gives the
// row one allocation of its exact size — so does a named value wider
// than any guess, which used to cost the row a second allocation.
func TestAppendRowNeverRegrowsDst(t *testing.T) {
	tweet := viewOf(benchTweet())
	tags := make([]Value, 20)
	for i := range tags {
		tags[i] = String(fmt.Sprintf("tag-%05d", i))
	}
	for _, tc := range []struct {
		name  string
		parts []RowPart
	}{
		{"t.*, x", []RowPart{{Val: tweet, Star: true}, {Name: "x", Val: Int(7)}}},
		{"x, t.*", []RowPart{{Name: "x", Val: String("first")}, {Val: tweet, Star: true}}},
		{"t.*, a 200-byte array", []RowPart{{Val: tweet, Star: true}, {Name: "tags", Val: Array(tags)}}},
		{"t.*, a 200-byte array view", []RowPart{{Val: tweet, Star: true}, {Name: "tags", Val: viewOf(Array(tags))}}},
	} {
		_, want, ok := AppendRow(nil, tc.parts)
		if !ok {
			t.Fatalf("%s: AppendRow declined", tc.name)
		}
		size := len(want.s)
		prefix := []byte("key bytes")

		// Room to spare: in place, right after the prefix.
		dst := append(make([]byte, 0, len(prefix)+size+5), prefix...)
		out, row, ok := AppendRow(dst, tc.parts)
		if !ok || len(out) != len(prefix)+size || unsafe.SliceData(out) != unsafe.SliceData(dst) {
			t.Fatalf("%s: AppendRow into room for the row = %d bytes at %p, ok=%v; want %d at %p", tc.name, len(out), unsafe.SliceData(out), ok, len(prefix)+size, unsafe.SliceData(dst))
		}
		if n, at := ViewAt(row, out, len(prefix)); !at || n != size {
			t.Fatalf("%s: the row is not a view of the bytes after dst's", tc.name)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want.encoded()) {
			t.Fatalf("%s: in place, dst reads %x, want %s then %x", tc.name, out, prefix, want.encoded())
		}

		// Exactly enough room still fits; one byte less does not.
		exact := append(make([]byte, 0, len(prefix)+size), prefix...)
		if out, _, _ := AppendRow(exact, tc.parts); len(out) != len(prefix)+size {
			t.Fatalf("%s: a dst with exactly the row's room was not written", tc.name)
		}
		short := append(make([]byte, 0, len(prefix)+size-1), prefix...)
		out, row, ok = AppendRow(short, tc.parts)
		if !ok || len(out) != len(short) || cap(out) != cap(short) || unsafe.SliceData(out) != unsafe.SliceData(short) {
			t.Fatalf("%s: AppendRow changed a dst without room", tc.name)
		}
		if !bytes.Equal(short[:cap(short)][len(prefix):], make([]byte, cap(short)-len(prefix))) {
			t.Fatalf("%s: AppendRow wrote into a dst without room", tc.name)
		}
		if !bytes.Equal(AppendBinary(nil, row), want.encoded()) {
			t.Fatalf("%s: the row made aside encodes to %x, want %x", tc.name, AppendBinary(nil, row), want.encoded())
		}

		// One allocation, of the row's size, however wide its values.
		for _, dst := range [][]byte{nil, short} {
			if n := testing.AllocsPerRun(100, func() { _, benchSink, _ = AppendRow(dst, tc.parts) }); n != 1 {
				t.Fatalf("%s: a row made aside cost %v allocations, want 1", tc.name, n)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _, benchSink, _ = AppendRow(dst[:len(prefix)], tc.parts) }); n != 0 {
			t.Fatalf("%s: a row written in place cost %v allocations, want 0", tc.name, n)
		}
	}
}

// TestBinarySizeIsEncodedLength: BinarySize says what AppendBinary will
// write, for trees, views and every varint width.
func TestBinarySizeIsEncodedLength(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	vals := []Value{
		Int(0), Int(-1), Int(63), Int(64), Int(-65), Int(1 << 62), Int(-1 << 63), Duration(-3, -1<<40),
		String(string(make([]byte, 127))), String(string(make([]byte, 128))), wideObject(128),
		ObjectValue(nil), EmptyArray(), viewOf(benchTweet()), benchTweet(),
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomValue(r, 3))
	}
	for _, v := range vals {
		if got, want := BinarySize(v), len(AppendBinary(nil, v)); got != want {
			t.Fatalf("BinarySize(%v) = %d, AppendBinary wrote %d", v, got, want)
		}
	}
}
