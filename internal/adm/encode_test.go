package adm

import (
	"bytes"
	"testing"
	"time"
)

// encodeKinds is one value of every encodable kind, including nesting.
func encodeKinds() []Value {
	return []Value{
		Missing(),
		Null(),
		Bool(true),
		Bool(false),
		Int(0),
		Int(-1),
		Int(1 << 40),
		Double(3.5),
		Double(-0.125),
		String(""),
		String("héllo, wörld"),
		DateTime(time.Date(2019, 8, 26, 12, 0, 0, 0, time.UTC)),
		Duration(14, 123456),
		Point(1.5, -2.5),
		Rectangle(0, 0, 10, 20),
		Circle(3, 4, 5),
		EmptyArray(),
		Array([]Value{Int(1), String("two"), Null()}),
		ObjectValue(ObjectFromPairs(
			"id", Int(42),
			"name", String("alice"),
			"tags", Array([]Value{String("a"), String("b")}),
			"loc", Point(7, 8),
			"meta", ObjectValue(ObjectFromPairs("deep", Bool(true))),
		)),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, v := range encodeKinds() {
		enc := AppendBinary(nil, v)
		got, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %s consumed %d of %d bytes", v, n, len(enc))
		}
		if Compare(got, v) != 0 {
			t.Fatalf("round trip %s => %s", v, got)
		}
		if v.Kind() == KindObject || v.Kind() == KindArray {
			if got.String() != v.String() {
				t.Fatalf("container shape changed: %s => %s", v, got)
			}
		}
	}
}

// TestBinaryStream checks that concatenated values decode back in
// sequence — the WAL entry format relies on self-delimiting encoding.
func TestBinaryStream(t *testing.T) {
	vals := encodeKinds()
	var buf []byte
	for _, v := range vals {
		buf = AppendBinary(buf, v)
	}
	for i, want := range vals {
		v, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if Compare(v, want) != 0 {
			t.Fatalf("value %d: got %s want %s", i, v, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after stream decode", len(buf))
	}
}

// TestBinaryDecodeTruncated feeds every strict prefix of each encoding
// to the decoder; all of them must fail cleanly rather than panic or
// succeed with garbage.
func TestBinaryDecodeTruncated(t *testing.T) {
	for _, v := range encodeKinds() {
		enc := AppendBinary(nil, v)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeBinary(enc[:cut]); err == nil {
				t.Fatalf("decode of %d/%d bytes of %s succeeded", cut, len(enc), v)
			}
		}
	}
}

func TestBinaryDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{0xff}, // unknown tag
		{byte(KindArray), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // absurd count
		{byte(KindString), 0x05, 'a'}, // short string
	}
	for i, data := range cases {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Fatalf("case %d: corrupt input decoded", i)
		}
	}
}

// TestBinaryArenaValues ensures arena-parsed values encode identically
// to their heap-parsed twins — storage serializes straight off the
// parse arena.
func TestBinaryArenaValues(t *testing.T) {
	doc := []byte(`{"id": 7, "text": "tweet with éscapes", "tags": ["x", "y"]}`)
	vals, err := NewParser().ParseInto(doc, nil, NewArena(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	heap, err := ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(AppendBinary(nil, vals[0]), AppendBinary(nil, heap)) {
		t.Fatal("arena-parsed value encoded differently from its heap-parsed twin")
	}
}
