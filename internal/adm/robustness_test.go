package adm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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
// SkipBinary and DecodeBinaryAlias — what compaction walks run blocks
// with — accept exactly the inputs DecodeBinary accepts and agree with
// it on the value's length (and, for the alias, on the value). On every
// input SkipBinary accepts, the unchecked builder behind all three spans
// exactly SkipBinary's length and builds the value DecodeBinary returns.
// And an object read in place — the view storage hands up — says what
// the decoded object says, however it is asked (checkViewAgrees), and
// one more field spliced onto its bytes is the row Object.Set would
// build (checkSpliceAgrees). Every value's JSON transcoded from its bytes is
// byte for byte the JSON of the value they decode to.
func FuzzDecodeBinary(f *testing.F) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		f.Add(AppendBinary(nil, randomValue(r, 3)))
	}
	// The WAL fixture's first frame payload: LSN, count, then values.
	if wal, err := os.ReadFile(filepath.FromSlash("../lsm/testdata/wal-v1.golden")); err == nil && len(wal) > 18 {
		f.Add(wal[18:])
	}
	for _, seed := range viewSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeBinary(data)
		if sn, serr := SkipBinary(data); (serr == nil) != (err == nil) || sn != n {
			t.Fatalf("SkipBinary(%x) = %d, %v; DecodeBinary = %d, %v", data, sn, serr, n, err)
		}
		if av, an, aerr := DecodeBinaryAlias(data); (aerr == nil) != (err == nil) || an != n || Compare(av, v) != 0 {
			t.Fatalf("DecodeBinaryAlias(%x) = %v, %d, %v; DecodeBinary = %v, %d, %v", data, av, an, aerr, v, n, err)
		}
		if err != nil {
			return
		}
		if bv, bn := buildBinary(data); bn != n || !bytes.Equal(AppendBinary(nil, bv), AppendBinary(nil, v)) {
			t.Fatalf("buildBinary(%x) = %v, %d; DecodeBinary = %v, %d", data, bv, bn, v, n)
		}
		for _, x := range []Value{v, Int(0), String("m")} {
			if got, want := CompareBinary(data[:n], x), Compare(v, x); got != want {
				t.Fatalf("CompareBinary(%x, %v) = %d, Compare = %d", data[:n], x, got, want)
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
