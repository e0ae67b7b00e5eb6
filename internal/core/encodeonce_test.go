package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/workload"
)

// TestFeedStoresOracleBytes: a record travels from the collector to the
// memtable as bytes — encoded once in the collector, spliced by the UDF,
// copied into its batch's buffer — and what is stored under its key is,
// byte for byte, what the tree-at-a-time route produces: parse the line,
// validate (and coerce) the tree, enrich the tree, encode the result.
// TestModel2Invariant holds the ablation arms to each other; this holds
// each of them to that oracle.
func TestFeedStoresOracleBytes(t *testing.T) {
	const n = 300
	for _, arm := range []struct {
		name             string
		recompile, fused bool
	}{
		{"predeployed, decoupled", false, false},
		{"RecompilePerBatch (no state reuse)", true, false},
		{"FusedInsert", false, true},
		{"RecompilePerBatch + FusedInsert", true, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			c, g := testCluster(t, 2)
			lines := g.Tweets(0, n)
			// What a feed must cope with beside well-formed tweets: a line
			// that is not JSON, a tweet whose id is missing (rejected by
			// the datatype), a non-object, an int where the type declares a
			// double (coerced), an open field the type does not declare, and
			// a second record under an earlier key.
			lines = append(lines,
				[]byte(`{"id": 1, "text": `),
				[]byte(`{"text": "no key"}`),
				[]byte(`[1, 2, 3]`),
				[]byte(`{"id": 900001, "text": "coerced", "country": "C000001", "latitude": 33, "longitude": -117, "extra": {"open": [1, {"deep": null}]}}`),
				bytes.Replace(lines[7], []byte(`"text":"`), []byte(`"text":"again `), 1),
			)
			cfg := Config{
				Name: "oracle", Dataset: "EnrichedTweets", Function: "enrichTweetQ1", BatchSize: 64,
				RecompilePerBatch: arm.recompile, FusedInsert: arm.fused,
				NewAdapter: func(int) (Adapter, error) { return &GeneratorAdapter{Records: lines}, nil },
			}
			f, err := Start(context.Background(), c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}

			fn, _ := c.Function("enrichTweetQ1")
			plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pe, err := plan.Prepare(c)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64][]byte{}
			rejected := 0
			for _, line := range lines {
				rec, err := adm.ParseJSON(line)
				if err == nil {
					rec, err = workload.TweetType().Validate(rec)
				}
				if err != nil {
					rejected++
					continue
				}
				out, err := pe.EvalRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				want[rec.Field("id").IntVal()] = adm.AppendBinary(nil, out)
			}
			if got := f.Stats().ParseErrors.Load(); int(got) != rejected || rejected != 3 {
				t.Fatalf("feed rejected %d lines, the oracle %d, want 3", got, rejected)
			}
			ds, _ := c.Dataset("EnrichedTweets")
			stored := 0
			ds.ScanAll(func(key, rec adm.Value) bool {
				stored++
				if got := adm.AppendBinary(nil, rec); !bytes.Equal(got, want[key.IntVal()]) {
					t.Fatalf("key %v stores\n %x\nthe oracle encodes\n %x", key, got, want[key.IntVal()])
				}
				return true
			})
			if stored != len(want) || stored != n+1 {
				t.Fatalf("%d records stored, the oracle has %d, want %d", stored, len(want), n+1)
			}
		})
	}
}

// TestCollectorAllocatesPerFrame: in steady state turning lines into
// records costs the frame's slab and nothing per record — the parse tree
// lives in an arena that is reset line by line, and the record handed on
// is a view of the slab.
func TestCollectorAllocatesPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const frame = 128
	lines := make([][]byte, frame)
	for i := range lines {
		lines[i] = fmt.Appendf(nil, `{"id":%d,"text":"a tweet with some padding text in it","lang":"en","user":{"id":%d,"screen_name":"bench"},"tags":["a","b"]}`, i, i%97)
	}
	enc := newRecordEncoder()
	var stats Stats
	spine := make([]adm.Value, 0, frame)
	collect := func() {
		spine = spine[:0]
		enc.beginFrame(frame)
		for _, line := range lines {
			rec, ok := enc.encode(line, nil, &stats)
			if !ok {
				t.Fatal("line rejected")
			}
			spine = append(spine, rec)
		}
	}
	collect() // learns the slab size; warms the parser's tables and the arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const frames = 50
	for range frames {
		collect()
	}
	runtime.ReadMemStats(&after)
	want, err := adm.ParseJSON(lines[frame-1])
	if err != nil || !adm.Equal(spine[frame-1], want) {
		t.Fatalf("last record reads %v, want %v (%v)", spine[frame-1], want, err)
	}
	size := 0
	for _, rec := range spine {
		size += adm.BinarySize(rec)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / frames
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / frames
	t.Logf("%.1f allocations and %.0f bytes per frame of %d records (%d bytes encoded)", allocs, bytes, frame, size)
	if allocs > 2 {
		t.Fatalf("%.1f allocations per frame of %d records, want the slab alone", allocs, frame)
	}
	if bytes > float64(size)*5/4 {
		t.Fatalf("%.0f bytes allocated per frame whose records encode to %d", bytes, size)
	}
}

// TestOutsizedLineDoesNotMultiplyTheSlab: a line far larger than its
// neighbours — the socket adapter admits 16 MiB — costs the frame that
// holds it about its own bytes again, wherever in the frame it falls
// and whether or not the encoder has seen a frame before; it is not
// taken for the size of every record still expected.
func TestOutsizedLineDoesNotMultiplyTheSlab(t *testing.T) {
	const frame = 128
	small := func(i int) []byte {
		return fmt.Appendf(nil, `{"id":%d,"text":"%0300d","lang":"en","user":{"id":%d,"screen_name":"bench"}}`, i, i, i%97)
	}
	big := fmt.Appendf(nil, `{"id":-1,"text":"%01048576d"}`, 0)
	for _, at := range []int{0, 1, 5, frame / 2, frame - 1} {
		for _, learned := range []bool{false, true} {
			enc := newRecordEncoder()
			var stats Stats
			// slabs sums the capacity of every slab a frame was given.
			collect := func(outlier int) (slabs, encoded int) {
				enc.beginFrame(frame)
				last := unsafe.SliceData(enc.slab[:cap(enc.slab)])
				slabs = cap(enc.slab)
				for i := range frame {
					line := small(i)
					if i == outlier {
						line = big
					}
					rec, ok := enc.encode(line, nil, &stats)
					if !ok {
						t.Fatal("line rejected")
					}
					if want, _ := adm.ParseJSON(line); !adm.Equal(rec, want) {
						t.Fatalf("record %d reads back differently", i)
					}
					if cur := unsafe.SliceData(enc.slab[:cap(enc.slab)]); cur != last {
						last, slabs = cur, slabs+cap(enc.slab)
					}
					encoded += adm.BinarySize(rec)
				}
				return slabs, encoded
			}
			if learned {
				collect(-1)
			}
			slabs, encoded := collect(at)
			t.Logf("outlier at %d, learned=%v: %d slab bytes for %d encoded", at, learned, slabs, encoded)
			if slabs > 3*encoded {
				t.Fatalf("outlier at %d, learned=%v: the frame was given %d slab bytes for %d encoded", at, learned, slabs, encoded)
			}
			// The frame after it is sized from that frame's bytes, no more.
			if next, _ := collect(-1); next > 2*encoded {
				t.Fatalf("outlier at %d, learned=%v: the next frame was given %d slab bytes after one of %d", at, learned, next, encoded)
			}
		}
	}
}
