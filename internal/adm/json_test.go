package adm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) Value {
	t.Helper()
	v, err := ParseJSON([]byte(s))
	if err != nil {
		t.Fatalf("ParseJSON(%q): %v", s, err)
	}
	return v
}

func TestParseJSONScalars(t *testing.T) {
	if v := mustParse(t, `42`); v.Kind() != KindInt64 || v.IntVal() != 42 {
		t.Errorf("int parse: %v", v)
	}
	if v := mustParse(t, `-7`); v.IntVal() != -7 {
		t.Errorf("negative int parse: %v", v)
	}
	if v := mustParse(t, `3.25`); v.Kind() != KindDouble || v.DoubleVal() != 3.25 {
		t.Errorf("double parse: %v", v)
	}
	if v := mustParse(t, `1e3`); v.Kind() != KindDouble || v.DoubleVal() != 1000 {
		t.Errorf("exponent parse: %v", v)
	}
	if v := mustParse(t, `true`); !v.BoolVal() {
		t.Errorf("true parse: %v", v)
	}
	if v := mustParse(t, `false`); v.Kind() != KindBoolean || v.BoolVal() {
		t.Errorf("false parse: %v", v)
	}
	if v := mustParse(t, `null`); !v.IsNull() {
		t.Errorf("null parse: %v", v)
	}
	if v := mustParse(t, `"hello"`); v.StringVal() != "hello" {
		t.Errorf("string parse: %v", v)
	}
	// Huge integers overflow into double like encoding/json.
	if v := mustParse(t, `99999999999999999999`); v.Kind() != KindDouble {
		t.Errorf("overflow int should become double: %v", v)
	}
}

func TestParseJSONStringEscapes(t *testing.T) {
	v := mustParse(t, `"a\"b\\c\nd\teéA"`)
	want := "a\"b\\c\nd\teéA"
	if v.StringVal() != want {
		t.Errorf("escapes = %q, want %q", v.StringVal(), want)
	}
	// Surrogate pair (musical G clef, U+1D11E).
	v = mustParse(t, `"𝄞"`)
	if v.StringVal() != "\U0001D11E" {
		t.Errorf("surrogate pair = %q", v.StringVal())
	}
}

func TestParseJSONStructures(t *testing.T) {
	v := mustParse(t, `{"id": 1, "tags": ["a", "b"], "geo": {"lat": 1.5}}`)
	if v.Field("id").IntVal() != 1 {
		t.Error("id field")
	}
	tags := v.Field("tags").ArrayVal()
	if len(tags) != 2 || tags[1].StringVal() != "b" {
		t.Error("tags array")
	}
	if v.Field("geo").Field("lat").DoubleVal() != 1.5 {
		t.Error("nested object")
	}
	if v := mustParse(t, `[]`); v.Kind() != KindArray || len(v.ArrayVal()) != 0 {
		t.Error("empty array")
	}
	if v := mustParse(t, `{}`); v.Kind() != KindObject || v.ObjectVal().Len() != 0 {
		t.Error("empty object")
	}
	if v := mustParse(t, ` { "a" : [ 1 , 2 ] } `); v.Field("a").Index(1).IntVal() != 2 {
		t.Error("whitespace tolerance")
	}
}

func TestParseJSONErrors(t *testing.T) {
	bad := []string{
		``, `{`, `}`, `[1,`, `{"a":}`, `{"a" 1}`, `"unterminated`,
		`tru`, `nul`, `{"a":1,}x`, `[1] trailing`, `"bad\escape"`,
		"\"ctl\x01char\"", `{1: 2}`, `--5`,
	}
	for _, s := range bad {
		if _, err := ParseJSON([]byte(s)); err == nil {
			t.Errorf("ParseJSON(%q) should fail", s)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `{"id":7,"text":"let there be light","ok":true,"score":1.25,"tags":["x","y"],"nested":{"n":null}}`
	v := mustParse(t, src)
	out := string(SerializeJSON(v))
	v2 := mustParse(t, out)
	if Compare(v, v2) != 0 {
		t.Errorf("round trip changed value:\n%s\n%s", v, v2)
	}
}

func TestSerializeTypedKinds(t *testing.T) {
	dt := DateTimeMillis(1_566_000_000_000)
	if got := string(SerializeJSON(dt)); !strings.HasPrefix(got, `"2019-08-1`) {
		t.Errorf("datetime serialization = %s", got)
	}
	if got := string(SerializeJSON(Point(1.5, -2))); got != "[1.5,-2]" {
		t.Errorf("point serialization = %s", got)
	}
	if got := string(SerializeJSON(Circle(0, 0, 3))); got != "[0,0,3]" {
		t.Errorf("circle serialization = %s", got)
	}
	if got := string(SerializeJSON(Duration(2, 0))); got != `"P2M"` {
		t.Errorf("duration serialization = %s", got)
	}
	if got := string(SerializeJSON(Missing())); got != "null" {
		t.Errorf("missing serializes as null, got %s", got)
	}
}

func TestSerializeEscapes(t *testing.T) {
	v := String("a\"b\\c\nd\x01")
	got := string(SerializeJSON(v))
	want := `"a\"b\\c\nd\u0001"`
	if got != want {
		t.Errorf("escaped = %s, want %s", got, want)
	}
	back := mustParse(t, got)
	if back.StringVal() != v.StringVal() {
		t.Error("escape round trip failed")
	}
	// Every control character, as fmt's %04x spells it, between runs
	// that are copied as they are.
	var raw, esc strings.Builder
	esc.WriteByte('"')
	for c := byte(0); c < 0x20; c++ {
		raw.WriteString("é")
		raw.WriteByte(c)
		esc.WriteString("é")
		switch c {
		case '\n':
			esc.WriteString(`\n`)
		case '\r':
			esc.WriteString(`\r`)
		case '\t':
			esc.WriteString(`\t`)
		default:
			fmt.Fprintf(&esc, "\\u%04x", c)
		}
	}
	raw.WriteString("\x7f~")
	esc.WriteString("\x7f~\"")
	if got := string(SerializeJSON(String(raw.String()))); got != esc.String() {
		t.Errorf("control characters escaped as %s, want %s", got, esc.String())
	}
	if back := mustParse(t, esc.String()); back.StringVal() != raw.String() {
		t.Errorf("control characters round trip to %q", back.StringVal())
	}
	if n := testing.AllocsPerRun(10, func() { benchBytes = appendJSONString(benchBytes[:0], raw.String()) }); n != 0 {
		t.Errorf("escaping control characters into a buffer with room: %v allocations", n)
	}
}

var benchBytes = make([]byte, 0, 1<<10)

func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		v := randomJSONValue(r, 3)
		data := SerializeJSON(v)
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("round trip parse failed for %s: %v", data, err)
		}
		if Compare(v, back) != 0 {
			t.Fatalf("round trip changed %v -> %v", v, back)
		}
	}
}

// randomJSONValue only generates kinds whose JSON encoding parses back to
// the same kind (no datetimes/points, which need datatype coercion).
func randomJSONValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1e9) - 5e8)
	case 3:
		return Double(float64(r.Intn(1000)) + 0.5) // exactly representable
	case 4:
		return String(randomString(r))
	case 5:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomJSONValue(r, depth-1)
		}
		return Array(elems)
	default:
		n := r.Intn(4)
		o := NewObject(n)
		for i := 0; i < n; i++ {
			o.Set(randomString(r)+string(rune('0'+i)), randomJSONValue(r, depth-1))
		}
		return ObjectValue(o)
	}
}

func TestISODateTimeRoundTrip(t *testing.T) {
	ms := int64(1_566_550_245_250)
	s := FormatISODateTime(ms)
	back, ok := ParseISODateTime(s)
	if !ok || back != ms {
		t.Errorf("datetime roundtrip: %s -> %d (want %d)", s, back, ms)
	}
	if _, ok := ParseISODateTime("not a date"); ok {
		t.Error("bogus datetime accepted")
	}
	if got, ok := ParseISODateTime("2019-08-23"); !ok || got%86_400_000 != 0 {
		t.Errorf("date-only parse = %d, %v", got, ok)
	}
}

// TestTemporalJSONSpellings pins how datetimes and durations are
// spelt in JSON — formatted straight into the output, from a value or
// from its bytes — including years past 9999 and durations whose
// magnitude overflows.
func TestTemporalJSONSpellings(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{DateTimeMillis(0), `"1970-01-01T00:00:00.000Z"`},
		{DateTimeMillis(1_566_550_245_250), `"2019-08-23T08:50:45.250Z"`},
		{DateTimeMillis(-1), `"1969-12-31T23:59:59.999Z"`},
		{DateTimeMillis(-62_135_596_800_001), `"0000-12-31T23:59:59.999Z"`},
		{DateTimeMillis(253_402_300_800_000), `"10000-01-01T00:00:00.000Z"`},
		{Duration(0, 0), `"PT0S"`},
		{Duration(12, 0), `"P1Y"`},
		{Duration(14, 93_600_250), `"P1Y2MT93600.250S"`},
		{Duration(0, 7), `"PT0.007S"`},
		{Duration(0, 1050), `"PT1.050S"`},
		{Duration(-3, 0), `"-P3M"`},
		{Duration(-1, -5), `"-P1MT0.005S"`},
		{Duration(0, -2500), `"-PT2.500S"`},
		{Duration(math.MinInt32, math.MinInt64), `"-PT0S"`},
	} {
		if got := string(AppendJSON(nil, tc.v)); got != tc.want {
			t.Errorf("AppendJSON(%v) = %s, want %s", tc.v, got, tc.want)
		}
		if got, _ := appendJSONBinary(nil, AppendBinary(nil, tc.v)); string(got) != tc.want {
			t.Errorf("transcoding %v wrote %s, want %s", tc.v, got, tc.want)
		}
	}
}

func TestISODurationRoundTrip(t *testing.T) {
	cases := []struct {
		months int32
		millis int64
	}{
		{2, 0}, {14, 0}, {0, 1500}, {3, 7_200_000}, {0, 250}, {0, 0},
	}
	for _, tc := range cases {
		s := string(appendISODuration(nil, tc.months, tc.millis))
		months, millis, ok := ParseISODuration(s)
		if !ok || months != tc.months || millis != tc.millis {
			t.Errorf("duration roundtrip %q: got %d,%d,%v want %d,%d",
				s, months, millis, ok, tc.months, tc.millis)
		}
	}
	if _, _, ok := ParseISODuration("2M"); ok {
		t.Error("duration without P accepted")
	}
	if _, _, ok := ParseISODuration("P"); ok {
		t.Error("empty duration accepted")
	}
	if m, ms, ok := ParseISODuration("P1Y2MT1H30M"); !ok || m != 14 || ms != 5_400_000 {
		t.Errorf("compound duration parse: %d %d %v", m, ms, ok)
	}
	if m, ms, ok := ParseISODuration("-P1M"); !ok || m != -1 || ms != 0 {
		t.Errorf("negative duration parse: %d %d %v", m, ms, ok)
	}
}

func BenchmarkParseJSONTweet(b *testing.B) {
	tweet := []byte(`{"id":123456789,"text":"some tweet text with a few words to make it realistic enough for parsing benchmarks","country":"US","user":{"screen_name":"user_name_1","name":"User Name"},"latitude":33.64,"longitude":-117.84,"created_at":"2019-08-23T12:30:45.000Z","lang":"en","retweet_count":17}`)
	b.SetBytes(int64(len(tweet)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseJSON(tweet); err != nil {
			b.Fatal(err)
		}
	}
}
