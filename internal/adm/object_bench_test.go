package adm

import (
	"fmt"
	"testing"
)

// benchFieldNames are tweet-like names of mixed length, the first ten
// being the benchmark tweet's own.
var benchFieldNames = []string{
	"id", "text", "country", "user", "latitude", "longitude", "created_at", "lang",
	"retweet_count", "filler", "safety_rating", "religious_population", "nearby_monuments",
	"favorite_count", "screen_name", "followers_count", "friends_count", "coordinates",
	"timestamp_ms", "place", "source", "truncated", "in_reply_to", "quoted_status",
	"entities", "hashtags", "urls", "mentions", "symbols", "possibly_sensitive",
	"filter_level", "matching_rules",
}

var benchSink Value

// BenchmarkObjectGet is what indexThreshold is chosen from: Get of the
// last field (the linear scan's worst hit) and of an absent name, on
// objects of 8 to 32 fields, by linear scan and through the name map.
// BenchmarkObjectBuild prices the map itself.
func BenchmarkObjectGet(b *testing.B) {
	for _, n := range []int{8, 12, 16, 32} {
		o := NewObject(n)
		for _, name := range benchFieldNames[:n] {
			o.names = append(o.names, name)
			o.values = append(o.values, Int(int64(len(name))))
		}
		// Probe with fresh strings so a hit compares bytes, not pointers.
		probes := [][2]string{
			{"hit-last", string(append([]byte(nil), benchFieldNames[n-1]...))},
			{"miss", "no_such_field"},
		}
		for _, mode := range []string{"linear", "map"} {
			o.index = nil
			if mode == "map" {
				o.buildIndex()
			}
			for _, probe := range probes {
				b.Run(fmt.Sprintf("fields=%d/%s/%s", n, mode, probe[0]), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						benchSink, _ = o.Get(probe[1])
					}
				})
			}
		}
	}
}

// BenchmarkObjectBuild prices the other side: building an n-field
// object with and without the name map.
func BenchmarkObjectBuild(b *testing.B) {
	for _, n := range []int{8, 12, 16, 32} {
		for _, mode := range []string{"linear", "map"} {
			b.Run(fmt.Sprintf("fields=%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o := NewObject(n)
					for _, name := range benchFieldNames[:n] {
						o.names = append(o.names, name)
						o.values = append(o.values, Value{})
					}
					if mode == "map" {
						o.buildIndex()
					}
					benchSink = ObjectValue(o)
				}
			})
		}
	}
}
