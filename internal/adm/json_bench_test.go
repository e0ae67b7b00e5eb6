package adm

import (
	"testing"
)

// tweetJSON is shaped like the paper's Twitter records: a handful of
// repeated scalar fields plus a nested user object and a geo point.
var tweetJSON = []byte(`{"id":184756291028475,"text":"benchmark tweet with some padding text to look realistic #idea","timestamp_ms":"1561093200123","lang":"en","favorite_count":12,"retweet_count":3,"user":{"id":99182736455,"name":"ingest bench","screen_name":"ingestbench","followers_count":1024,"friends_count":256},"coordinates":{"type":"Point","coordinates":[-117.84,33.68]}}`)

func BenchmarkParseJSON(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(tweetJSON)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseJSON(tweetJSON); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseJSONParser exercises the reusable Parser: interned field
// names and size-hinted objects, the configuration the static pipeline
// runs with.
func BenchmarkParseJSONParser(b *testing.B) {
	p := NewParser()
	spine := make([]Value, 0, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(tweetJSON)))
	for i := 0; i < b.N; i++ {
		var err error
		if spine, err = p.ParseInto(tweetJSON, spine[:0], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// escapeHeavyJSON is an escape-dense corpus record: every string field
// needs escape decoding (quotes, control characters, unicode escapes),
// the adversarial shape for a parser whose fast path assumes clean
// strings.
var escapeHeavyJSON = []byte(`{"id":991827,"text":"\"quoted\" text\nwith\tmany\\escapes\r\nacross éè lines 😀","bio":"line1\nline2\nline3\t\"x\"","url":"https:\/\/example.com\/a\/b\/c","note":"tab\there\nand ☃ snowman"}`)

// BenchmarkParseEscapeHeavy measures the escape-decoding path over the
// escape-dense corpus: the heap fallback (no arena) against the
// arena-backed unescape buffer, which decodes in place and allocates
// nothing once warm.
func BenchmarkParseEscapeHeavy(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		p := NewParser()
		spine := make([]Value, 0, 1)
		b.ReportAllocs()
		b.SetBytes(int64(len(escapeHeavyJSON)))
		for i := 0; i < b.N; i++ {
			var err error
			if spine, err = p.ParseInto(escapeHeavyJSON, spine[:0], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		p := NewParser()
		a := NewArena(4096)
		spine := make([]Value, 0, 8)
		b.ReportAllocs()
		b.SetBytes(int64(len(escapeHeavyJSON)))
		for i := 0; i < b.N; i++ {
			a.Reset()
			spine = spine[:0]
			var err error
			if spine, err = p.ParseInto(escapeHeavyJSON, spine, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParseJSONParserArena is the dynamic feed's hot-path
// configuration: an interning Parser writing string payloads, objects,
// and field spines into a reusable byte arena, so a warmed record
// parses with (amortized) zero per-value allocations.
func BenchmarkParseJSONParserArena(b *testing.B) {
	p := NewParser()
	a := NewArena(4096)
	spine := make([]Value, 0, 8)
	b.ReportAllocs()
	b.SetBytes(int64(len(tweetJSON)))
	for i := 0; i < b.N; i++ {
		a.Reset()
		spine = spine[:0]
		var err error
		if spine, err = p.ParseInto(tweetJSON, spine, a); err != nil {
			b.Fatal(err)
		}
	}
}
