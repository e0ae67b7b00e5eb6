package adm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
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
// it on the value's length (and, for the alias, on the value).
func FuzzDecodeBinary(f *testing.F) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		f.Add(AppendBinary(nil, randomValue(r, 3)))
	}
	// The WAL fixture's first frame payload: LSN, count, then values.
	if wal, err := os.ReadFile(filepath.FromSlash("../lsm/testdata/wal-v1.golden")); err == nil && len(wal) > 18 {
		f.Add(wal[18:])
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
	})
}
