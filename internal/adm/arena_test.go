package adm

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestArenaParsing: values parsed into an arena must read back exactly
// like heap-parsed values, across strings, nested objects, arrays,
// escapes (decoded into the arena's unescape buffer), and field names.
func TestArenaParsing(t *testing.T) {
	doc := []byte(`{"id":42,"text":"plain body","esc":"a\nb","user":{"name":"ann","tags":["x","y"]},"n":1.5}`)
	want, err := ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser()
	a := NewArena(256)
	spine, err := p.ParseInto(doc, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	got := spine[0]
	if Compare(got, want) != 0 {
		t.Fatalf("arena parse mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestArenaReset: resetting an arena invalidates the views parsed into
// it — the next record's bytes overwrite them. This pins down the
// aliasing that is why only the owner of provably dead contents resets
// an arena: the feed's collector, which has encoded the record before it
// does (if this test ever fails because views stopped aliasing, the
// zero-allocation claim broke too).
func TestArenaReset(t *testing.T) {
	p := NewParser()
	a := NewArena(64)
	spine, err := p.ParseInto([]byte(`{"text":"AAAA"}`), nil, a)
	if err != nil {
		t.Fatal(err)
	}
	stale := spine[0].Field("text")
	a.Reset()
	if _, err := p.ParseInto([]byte(`{"text":"BBBB"}`), nil, a); err != nil {
		t.Fatal(err)
	}
	if got := stale.StringVal(); got != "BBBB" {
		t.Fatalf("stale view reads %q; expected it to alias the overwritten arena bytes (BBBB)", got)
	}
}

// TestArenaStringZeroAllocs is the acceptance gate for the arena path:
// parsing a warmed string value into an arena must not allocate at all.
func TestArenaStringZeroAllocs(t *testing.T) {
	p := NewParser()
	a := NewArena(1024)
	doc := []byte(`"string values should cost zero allocations on the arena path"`)
	spine := make([]Value, 0, 8)
	parse := func() {
		a.Reset()
		spine = spine[:0]
		var err error
		spine, err = p.ParseInto(doc, spine, a)
		if err != nil || spine[0].Kind() != KindString {
			t.Fatalf("parse failed: %v %v", err, spine)
		}
	}
	parse() // warm the arena's byte buffer
	if allocs := testing.AllocsPerRun(200, parse); allocs != 0 {
		t.Fatalf("arena string parse allocated %v times per run, want 0", allocs)
	}
}

// TestArenaRecordZeroAllocs extends the budget to a whole record shaped
// like the feed benchmark's — nested object, strings, ints, and an
// array, whose element spine is carved from the arena too: after
// warmup the entire record parses with zero allocations.
func TestArenaRecordZeroAllocs(t *testing.T) {
	p := NewParser()
	a := NewArena(4096)
	doc := []byte(`{"id":184756,"text":"benchmark tweet with some padding text","lang":"en","coordinates":[-117.84,33.68],"user":{"id":99,"screen_name":"bench","followers_count":1024}}`)
	spine := make([]Value, 0, 8)
	parse := func() {
		a.Reset()
		spine = spine[:0]
		var err error
		spine, err = p.ParseInto(doc, spine, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm: intern table, size hints, arena slabs.
	for i := 0; i < 4; i++ {
		parse()
	}
	if allocs := testing.AllocsPerRun(200, parse); allocs != 0 {
		t.Fatalf("arena record parse allocated %v times per run, want 0", allocs)
	}
}

// TestArenaTweetBudget pins the full paper-shaped tweet — coordinates
// array included — at zero allocations once warmed: with array element
// spines carved from the arena, nothing in the record touches the heap.
func TestArenaTweetBudget(t *testing.T) {
	p := NewParser()
	a := NewArena(4096)
	spine := make([]Value, 0, 8)
	parse := func() {
		a.Reset()
		spine = spine[:0]
		var err error
		spine, err = p.ParseInto(tweetJSON, spine, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		parse()
	}
	if allocs := testing.AllocsPerRun(100, parse); allocs != 0 {
		t.Fatalf("arena tweet parse allocated %v times per run, want 0", allocs)
	}
}

// TestArenaEscapeZeroAllocs: escape-heavy strings decode into the
// arena's unescape buffer, so even an escape-dense record parses with
// zero allocations once warmed.
func TestArenaEscapeZeroAllocs(t *testing.T) {
	p := NewParser()
	a := NewArena(4096)
	doc := []byte(`{"id":7,"text":"line one\nline \"two\"\twith\\backslashes","note":"A\u00e9 \ud83d\ude00 B\n\t"}`)
	spine := make([]Value, 0, 8)
	parse := func() {
		a.Reset()
		spine = spine[:0]
		var err error
		spine, err = p.ParseInto(doc, spine, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		parse()
	}
	if allocs := testing.AllocsPerRun(200, parse); allocs != 0 {
		t.Fatalf("arena escape parse allocated %v times per run, want 0", allocs)
	}
	// The decoded content must match the heap parser's exactly.
	want, err := ParseJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if Compare(spine[0], want) != 0 {
		t.Fatalf("arena unescape mismatch:\n got %v\nwant %v", spine[0], want)
	}
}

// TestArenaByteSlabRollover: when the byte slab fills, a fresh one takes
// over without copying — views taken before the roll-over still read
// their own bytes, an escape-decoded string that straddles the fill
// point lands whole in the new slab, and Reset reclaims only the
// current slab.
func TestArenaByteSlabRollover(t *testing.T) {
	a := NewArena(64)
	var views [][]byte
	var want []string
	for i := 0; len(views) < 40; i++ {
		s := fmt.Sprintf("record-%02d-%s", i, strings.Repeat("x", i%7))
		views = append(views, a.AppendBytes([]byte(s)))
		want = append(want, s)
	}
	if a.Cap() <= 64 {
		t.Fatalf("byte slab never rolled over (cap %d)", a.Cap())
	}
	for i, v := range views {
		if string(v) != want[i] {
			t.Fatalf("view %d reads %q after roll-overs, want %q", i, v, want[i])
		}
	}

	// Leave 4 free bytes, then decode an escaped string that needs more.
	a = NewArena(64)
	head := a.AppendBytes(bytes.Repeat([]byte("h"), 60))
	spine, err := NewParser().ParseInto([]byte(`{"s":"ab\ncdé and a tail that is longer than the slab had room for"}`), nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := spine[0].Field("s").StringVal(); got != "ab\ncdé and a tail that is longer than the slab had room for" {
		t.Fatalf("escaped string across a roll-over decoded to %q", got)
	}
	if string(head) != strings.Repeat("h", 60) {
		t.Fatalf("earlier view damaged by the roll-over: %q", head)
	}
	c := a.Cap()
	a.Reset()
	if a.Len() != 0 || a.Cap() != c {
		t.Fatalf("Reset left len=%d cap=%d, want 0 and the current slab's %d", a.Len(), a.Cap(), c)
	}
}

// TestArenaStagingBudget: staging one frame of raw lines (128 × 435 B
// into a fresh 8 KB arena, what AddRawCopy does per frame) allocates at
// most 1.5 × the bytes staged. Growing the buffer by append allocated
// 4.0 × (223 872 B for these 55 680): every growth step copied the
// prefix while the views handed out pinned the old buffer.
func TestArenaStagingBudget(t *testing.T) {
	line := bytes.Repeat([]byte("t"), 435)
	const lines = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewArena(8 << 10)
	for i := 0; i < lines; i++ {
		a.AppendBytes(line)
	}
	runtime.ReadMemStats(&after)
	staged := uint64(lines * len(line))
	if got := after.TotalAlloc - before.TotalAlloc; got > staged*3/2 {
		t.Fatalf("staging %d bytes allocated %d (%.2f×), want at most 1.5×", staged, got, float64(got)/float64(staged))
	}
}
