package adm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestParseJSONNeverPanics: prefixes and random mutations of valid JSON
// either parse or error — never panic — and successful parses
// re-serialize without panicking.
func TestParseJSONNeverPanics(t *testing.T) {
	docs := []string{
		`{"id":123,"text":"hello","nested":{"a":[1,2.5,true,null]},"u":"é𝄞"}`,
		`[{"k":"v"},[],{},[null]]`,
		`-123.456e-7`,
		`"escapes \" \\ \n \t A"`,
	}
	r := rand.New(rand.NewSource(99))
	check := func(input []byte) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("panic on %q: %v", input, rec)
			}
		}()
		v, err := ParseJSON(input)
		if err == nil {
			SerializeJSON(v) // must not panic either
		}
	}
	for _, doc := range docs {
		for i := 0; i <= len(doc); i++ {
			check([]byte(doc[:i]))
		}
		for trial := 0; trial < 500; trial++ {
			b := []byte(doc)
			for k := 0; k < 1+r.Intn(5); k++ {
				if len(b) == 0 {
					break
				}
				pos := r.Intn(len(b))
				switch r.Intn(3) {
				case 0:
					b[pos] = byte(r.Intn(256))
				case 1:
					b = append(b[:pos], b[pos+1:]...)
				default:
					b = append(b[:pos], append([]byte{byte(r.Intn(256))}, b[pos:]...)...)
				}
			}
			check(b)
		}
	}
}

// TestCoerceNeverPanics: coercion across every (value, kind) pair either
// succeeds or errors.
func TestCoerceNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := randomValue(r, 2)
		k := Kind(r.Intn(int(numKinds)))
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("CoerceKind(%v, %v) panicked: %v", v, k, rec)
				}
			}()
			CoerceKind(v, k) //nolint:errcheck
		}()
	}
}

// FuzzDecodeBinary: arbitrary bytes decode or error, never panic, and a
// decoded value is a fixed point of encode → decode → encode (the bytes
// storage and the wire would write for it read back as themselves).
// SkipBinary — what block loads and batches are checked with — accepts
// exactly the inputs DecodeBinary accepts and agrees with it on the
// value's length. On every input SkipBinary accepts, the unchecked
// builder behind DecodeBinary spans exactly SkipBinary's length and
// builds the value DecodeBinary returns, and ViewAlias — how storage
// hands a key up — reads the value DecodeBinary returns.
// And an object read in place — the view storage hands up — says what
// the decoded object says, however it is asked (checkViewAgrees), and
// one more field spliced onto its bytes is the row Object.Set would
// build (checkSpliceAgrees). Every value's JSON transcoded from its bytes is
// byte for byte the JSON of the value they decode to.
func FuzzDecodeBinary(f *testing.F) {
	for _, seed := range decodeBinarySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeBinary(data)
		if sn, serr := SkipBinary(data); (serr == nil) != (err == nil) || sn != n {
			t.Fatalf("SkipBinary(%x) = %d, %v; DecodeBinary = %d, %v", data, sn, serr, n, err)
		}
		if err != nil {
			return
		}
		if av := ViewAlias(data[:n]); Compare(av, v) != 0 {
			t.Fatalf("ViewAlias(%x) = %v; DecodeBinary = %v", data[:n], av, v)
		}
		if bv, bn := buildBinary(data); bn != n || !bytes.Equal(AppendBinary(nil, bv), AppendBinary(nil, v)) {
			t.Fatalf("buildBinary(%x) = %v, %d; DecodeBinary = %v, %d", data, bv, bn, v, n)
		}
		for _, x := range []Value{v, Int(0), String("m")} {
			if got, want := CompareEncoded(data[:n], AppendBinary(nil, x)), Compare(v, x); got != want {
				t.Fatalf("CompareEncoded(%x, %v) = %d, Compare = %d", data[:n], x, got, want)
			}
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded %d of %d bytes", n, len(data))
		}
		enc := AppendBinary(nil, v)
		v2, n2, err := DecodeBinary(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-decode of %x: %d of %d bytes, %v", enc, n2, len(enc), err)
		}
		if enc2 := AppendBinary(nil, v2); !bytes.Equal(enc, enc2) {
			t.Fatalf("not a fixed point: %x then %x", enc, enc2)
		}
		if got := BinarySize(v); got != len(enc) {
			t.Fatalf("BinarySize(%v) = %d, AppendBinary wrote %d", v, got, len(enc))
		}
		want := AppendJSON(nil, v)
		if got := AppendJSON(nil, View(data[:n])); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(View(%x)) = %s, decoded %s", data[:n], got, want)
		}
		if got, _ := appendJSONBinary(nil, data); !bytes.Equal(got, want) {
			t.Fatalf("transcoding %x wrote %s, decoded %s", data, got, want)
		}
		if v.Kind() == KindObject {
			checkViewAgrees(t, data[:n], v)
			// `SELECT t.*, m` over the view, as bytes and as an Object.
			checkSpliceAgrees(t, []RowPart{{Val: View(data[:n]), Star: true}, {Name: "m", Val: String("extra")}})
		}
	})
}

// decodeBinarySeeds are FuzzDecodeBinary's seeds: random values, the
// WAL fixture's first frame payload (LSN, count, then values) and the
// view seeds.
func decodeBinarySeeds() [][]byte {
	var seeds [][]byte
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		seeds = append(seeds, AppendBinary(nil, randomValue(r, 3)))
	}
	if wal, err := os.ReadFile(filepath.FromSlash("../lsm/testdata/wal-v1.golden")); err == nil && len(wal) > 18 {
		seeds = append(seeds, wal[18:])
	}
	return append(seeds, viewSeeds()...)
}

// FuzzCompareEncoded: the storage order of encoded keys is adm.Compare's
// order of the values they encode. For any two values, CompareEncoded
// over their encodings equals Compare, either way round. Seeds: pairs
// drawn from FuzzDecodeBinary's seeds and its committed corpus, and the
// edges where a fast path could part from Compare — 7 against 7.0, ±0.0,
// int64s around 2^53 against doubles, strings sharing a prefix, NaN and
// mixed kinds.
func FuzzCompareEncoded(f *testing.F) {
	seeds := decodeBinarySeeds()
	corpus, _ := filepath.Glob(filepath.FromSlash("testdata/fuzz/FuzzDecodeBinary/*"))
	for _, name := range corpus {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1" then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		seed, err := strconv.Unquote(arg)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(seed))
	}
	for i, seed := range seeds {
		f.Add(seed, seeds[(i+1)%len(seeds)])
		f.Add(seed, seed)
	}
	const p53 = 1 << 53
	edges := [][2]Value{
		{Int(7), Double(7)}, {Double(7), Int(7)}, {Int(7), Double(7.5)},
		{Double(0), Double(math.Copysign(0, -1))}, {Int(0), Double(math.Copysign(0, -1))},
		{Int(p53), Double(p53)}, {Int(p53 + 1), Double(p53)}, {Int(p53 - 1), Double(p53)},
		{Int(-p53 - 1), Double(-p53)}, {Int(p53 + 1), Int(p53)},
		{Int(math.MaxInt64), Double(math.MaxInt64)}, {Int(math.MinInt64), Double(math.MinInt64)},
		{Int(-1), Int(1)}, {Int(-64), Int(63)}, {Int(math.MinInt64), Int(math.MaxInt64)},
		{String("abc"), String("abcd")}, {String(""), String("a")}, {String("ab\xff"), String("ab")},
		{String("key-10"), String("key-9")},
		{Double(math.NaN()), Double(math.NaN())}, {Double(math.NaN()), Int(1)},
		{Int(1), String("1")}, {Null(), Missing()}, {Bool(true), Int(0)},
		{DateTimeMillis(5), Int(5)}, {Array([]Value{Int(1)}), ObjectValue(ObjectFromPairs("a", Int(1)))},
		{Array([]Value{Int(7)}), Array([]Value{Double(7)})},
	}
	for _, e := range edges {
		f.Add(AppendBinary(nil, e[0]), AppendBinary(nil, e[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		va, _, err := DecodeBinary(a)
		if err != nil {
			return
		}
		vb, _, err := DecodeBinary(b)
		if err != nil {
			return
		}
		ea, eb := AppendBinary(nil, va), AppendBinary(nil, vb)
		want := Compare(va, vb)
		if got := CompareEncoded(ea, eb); got != want {
			t.Fatalf("CompareEncoded(%x, %x) = %d, Compare(%v, %v) = %d", ea, eb, got, va, vb, want)
		}
		if got, back := CompareEncoded(eb, ea), Compare(vb, va); got != back {
			t.Fatalf("CompareEncoded(%x, %x) = %d, Compare(%v, %v) = %d", eb, ea, got, vb, va, back)
		}
	})
}

// nestedJSON wraps a scalar in n arrays.
func nestedJSON(n int) []byte {
	return []byte(strings.Repeat("[", n) + "1" + strings.Repeat("]", n))
}

// TestParseDepthBounded: the JSON parser accepts MaxDepth containers
// around a value and refuses one more, heap or arena; ten megabytes of
// '[' are an error, not a stack overflow (which no recover can catch).
func TestParseDepthBounded(t *testing.T) {
	p := NewParser()
	for _, tc := range []struct {
		name string
		doc  []byte
		ok   bool
	}{
		{"at the limit", nestedJSON(MaxDepth), true},
		{"one past the limit", nestedJSON(MaxDepth + 1), false},
		{"objects count too", []byte(strings.Repeat(`{"a":`, MaxDepth+1) + "1" + strings.Repeat("}", MaxDepth+1)), false},
		{"10 MB of [", bytes.Repeat([]byte("["), 10<<20), false},
	} {
		v, err := ParseJSON(tc.doc)
		_, aerr := p.ParseInto(tc.doc, nil, NewArena(0))
		if (err == nil) != tc.ok || (aerr == nil) != tc.ok {
			t.Fatalf("%s: heap parse err %v, arena parse err %v, want ok=%v", tc.name, err, aerr, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if !v.nestsWithin(MaxDepth) {
			t.Fatalf("%s: parsed value is not within MaxDepth", tc.name)
		}
		if _, _, err := DecodeBinary(AppendBinary(nil, v)); err != nil {
			t.Fatalf("%s: parsed value does not decode again: %v", tc.name, err)
		}
	}
	// nestsWithin(MaxDepth) is DecodeBinary's verdict for values no
	// parser built.
	deep := Int(1)
	for i := 0; i <= MaxDepth; i++ {
		deep = Array([]Value{deep})
		_, _, derr := DecodeBinary(AppendBinary(nil, deep))
		if within := deep.nestsWithin(MaxDepth); within != (derr == nil) {
			t.Fatalf("%d arrays deep: nestsWithin %v, DecodeBinary %v", i+1, within, derr)
		}
	}
	if deep.nestsWithin(MaxDepth) {
		t.Fatalf("%d arrays deep nest within MaxDepth", MaxDepth+1)
	}
}

// TestDecodeBinaryAllocationIndependentOfNesting: a payload of nested
// arrays each claiming as many elements as bytes remain fails as
// truncated before anything is built — whether the claim is made once
// or at every one of MaxDepth levels — so it allocates its error and
// nothing else, however long it is.
func TestDecodeBinaryAllocationIndependentOfNesting(t *testing.T) {
	const size = 64 << 10
	// The truncation error: its message, its value and, when fmt's pool
	// is empty (the race detector empties pools at random), its printer.
	const maxErrorBytes = 1 << 10
	for _, depth := range []int{1, MaxDepth} {
		data := make([]byte, 0, size)
		for i := 0; i < depth; i++ {
			data = append(data, byte(KindArray))
			data = binary.AppendUvarint(data, uint64(size-len(data)-3))
		}
		// Two-byte booleans: half as many elements as the innermost count claims.
		data = append(data, bytes.Repeat([]byte{byte(KindBoolean)}, size-len(data))...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("depth %d: overclaiming payload decoded", depth)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxErrorBytes {
			t.Fatalf("depth %d: decoding %d hostile bytes allocated %d bytes, want ≤ %d", depth, size, got, maxErrorBytes)
		}
	}
}

// FuzzParseJSON: arbitrary bytes parse or error, never panic; the heap
// parse and the arena parse agree; and an accepted value survives both
// serializations — the storage encoding (what MaxDepth guarantees) and
// JSON.
func FuzzParseJSON(f *testing.F) {
	for _, doc := range [][]byte{
		tweetJSON, escapeHeavyJSON,
		[]byte(`{"id":123,"text":"hello","nested":{"a":[1,2.5,true,null]},"u":"é𝄞"}`),
		[]byte(`[{"k":"v"},[],{},[null]]`),
		[]byte(`-123.456e-7`),
		[]byte(`"escapes \" \\ \n \t A 😀"`),
		[]byte(`{"a":1,"a":2}`),
		[]byte(`{"id": 7, "tags": ["x", "y"]} trailing`),
		nestedJSON(MaxDepth + 1),
	} {
		f.Add(doc)
	}
	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ParseJSON(data)
		spine, aerr := p.ParseInto(data, nil, NewArena(0))
		if (err == nil) != (aerr == nil) {
			t.Fatalf("heap parse: %v; arena parse: %v", err, aerr)
		}
		if err != nil {
			return
		}
		if !Equal(v, spine[0]) {
			t.Fatalf("heap parse %v, arena parse %v", v, spine[0])
		}
		enc := AppendBinary(nil, v)
		if back, n, err := DecodeBinary(enc); err != nil || n != len(enc) || !Equal(back, v) {
			t.Fatalf("binary round trip of %v: %v, %d of %d bytes, %v", v, back, n, len(enc), err)
		}
		if back, err := ParseJSON(AppendJSON(nil, v)); err != nil || !Equal(back, v) {
			t.Fatalf("JSON round trip of %v: %v, %v", v, back, err)
		}
	})
}
