package adm

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// parseOne parses one JSON value onto the heap.
func parseOne(p *Parser, data []byte) (Value, error) {
	spine, err := p.ParseInto(data, nil, nil)
	if err != nil {
		return Value{}, err
	}
	return spine[0], nil
}

// TestParserMatchesParseJSON: the interning parser must produce values
// identical to the stateless ParseJSON across representative documents,
// including repeat parses that exercise warmed hints and intern table.
func TestParserMatchesParseJSON(t *testing.T) {
	docs := []string{
		`{}`,
		`[]`,
		`null`,
		`42`,
		`-9223372036854775808`,
		`9223372036854775807`,
		`18446744073709551617`,
		`3.5e-2`,
		`"plain"`,
		`"esc\"aped\nkey\u0041\ud83d\ude00"`,
		`{"a":1,"b":[1,2,{"c":null}],"esc\"key":true}`,
		string(tweetJSON),
		`{"deep":{"deep":{"deep":{"deep":{"x":1}}}}}`,
	}
	p := NewParser()
	for round := 0; round < 3; round++ {
		for _, doc := range docs {
			want, wantErr := ParseJSON([]byte(doc))
			got, gotErr := parseOne(p, []byte(doc))
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d %q: err mismatch %v vs %v", round, doc, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if Compare(got, want) != 0 || got.String() != want.String() {
				t.Fatalf("round %d %q:\n  parser: %s\n  plain:  %s", round, doc, got, want)
			}
		}
	}
}

// TestParserErrors: malformed inputs must fail identically through the
// interning parser.
func TestParserErrors(t *testing.T) {
	bad := []string{``, `{`, `{"a"`, `{"a":}`, `[1,`, `"unterminated`, `{"a":1}x`, `tru`, `--1`}
	p := NewParser()
	for _, doc := range bad {
		if _, err := parseOne(p, []byte(doc)); err == nil {
			t.Errorf("parse of %q succeeded, want error", doc)
		}
	}
}

// TestParserInternsFieldNames: two records sharing field names must end
// up with the same backing string, not two allocations.
func TestParserInternsFieldNames(t *testing.T) {
	p := NewParser()
	a, err := parseOne(p, []byte(`{"field_name":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseOne(p, []byte(`{"field_name":2}`))
	if err != nil {
		t.Fatal(err)
	}
	na, nb := a.ObjectVal().Name(0), b.ObjectVal().Name(0)
	if unsafe.StringData(na) != unsafe.StringData(nb) {
		t.Error("field names of consecutive records are distinct allocations; want interned")
	}
	// Escaped keys intern too (via the slow path).
	c, _ := parseOne(p, []byte(`{"field\u005fname":3}`))
	if nc := c.ObjectVal().Name(0); nc != "field_name" || unsafe.StringData(nc) != unsafe.StringData(na) {
		t.Errorf("escaped key %q not interned with plain form", c.ObjectVal().Name(0))
	}
}

// TestParserInternBound: the intern table must stop growing at its
// bound while parses keep succeeding.
func TestParserInternBound(t *testing.T) {
	p := NewParser()
	for i := 0; i < maxInternedNames+100; i++ {
		doc := fmt.Sprintf(`{"k%d":1}`, i)
		if _, err := parseOne(p, []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.intern) > maxInternedNames {
		t.Fatalf("intern table grew to %d, bound is %d", len(p.intern), maxInternedNames)
	}

	// Oversized field names must never be retained: an untrusted feed
	// could otherwise pin megabytes per key for the parser's lifetime.
	p2 := NewParser()
	huge := strings.Repeat("k", maxInternedNameLen+1)
	v, err := parseOne(p2, []byte(`{"`+huge+`":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if v.ObjectVal().Name(0) != huge {
		t.Fatal("oversized key parsed wrong")
	}
	if _, ok := p2.intern[huge]; ok {
		t.Fatalf("intern table retained a %d-byte key; limit is %d", len(huge), maxInternedNameLen)
	}
}

// TestParseInto: the spine-append forms must extend the caller's slice,
// with or without a byte arena.
func TestParseInto(t *testing.T) {
	p := NewParser()
	spine := make([]Value, 0, 4)
	var err error
	spine, err = p.ParseInto([]byte(`{"id":1}`), spine, nil)
	if err != nil {
		t.Fatal(err)
	}
	spine, err = NewParser().ParseInto([]byte(`{"id":2}`), spine, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(64)
	spine, err = p.ParseInto([]byte(`{"id":3}`), spine, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(spine) != 3 {
		t.Fatalf("spine has %d values, want 3", len(spine))
	}
	for i, want := range []int64{1, 2, 3} {
		if spine[i].Field("id").IntVal() != want {
			t.Fatalf("spine contents wrong: %v", spine)
		}
	}
	// Errors leave the spine unchanged.
	if spine, err = p.ParseInto([]byte(`{bad`), spine, nil); err == nil || len(spine) != 3 {
		t.Fatalf("ParseInto on bad input: err=%v len=%d", err, len(spine))
	}
}

// TestParserAllocsTweet enforces the allocation budget on the hot path:
// parsing a warmed tweet-shaped record must stay within a fixed number
// of allocations (interned names, pre-sized objects, no per-number
// string conversions). The stateless ParseJSON needed ~32.
func TestParserAllocsTweet(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short")
	}
	p := NewParser()
	spine, err := p.ParseInto(tweetJSON, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if spine, err = p.ParseInto(tweetJSON, spine[:0], nil); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 20
	if allocs > budget {
		t.Errorf("ParseInto(tweet) = %.1f allocs/op, budget %d", allocs, budget)
	}
}
