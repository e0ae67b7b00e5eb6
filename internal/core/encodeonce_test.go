package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/udf"
	"github.com/ideadb/idea/internal/workload"
)

// TestFeedStoresOracleBytes: a record travels from the collector to the
// memtable as bytes — encoded once in the collector, its enriched row
// spliced into the slab its storage partition logs — and what is stored
// under its key is, byte for byte, what the tree-at-a-time route
// produces: parse the line, validate (and coerce) the tree, enrich the
// tree, encode the result. TestModel2Invariant holds the ablation arms
// to each other; this holds each of them to that oracle, and so does
// every function whose rows the collector cannot keep where they were
// spliced: a row with another key, an Object row, a native UDF's row. A
// function whose result has no key — a row without it, or two rows —
// fails the feed where the row is routed, in the operator that ran the
// function. The static pipeline frames records with the same steps, so
// it is held to the same oracle and fails the same way, in its
// evaluator.
func TestFeedStoresOracleBytes(t *testing.T) {
	const n = 300
	natives := udf.NewRegistry()
	if err := natives.Register(&udf.Native{
		Name: "tagged",
		New:  func() udf.Instance { return &udf.FuncInstance{EvalFn: tagged} },
	}); err != nil {
		t.Fatal(err)
	}
	const (
		keyless       = `collector-parser: core: record missing primary key "id"`
		staticKeyless = `stream-udf-evaluator: core: record missing primary key "id"`
	)
	for _, arm := range []struct {
		name             string
		function, ddl    string // ddl declares function unless it is enrichTweetQ1 or native
		recompile, fused bool
		static           bool   // run StartStatic instead of Start
		fails            string // the feed's error, when it stores nothing to compare
	}{
		{name: "predeployed, decoupled", function: "enrichTweetQ1"},
		{name: "RecompilePerBatch (no state reuse)", function: "enrichTweetQ1", recompile: true},
		{name: "FusedInsert", function: "enrichTweetQ1", fused: true},
		{name: "RecompilePerBatch + FusedInsert", function: "enrichTweetQ1", recompile: true, fused: true},
		{name: "a row under another key", function: "moveKey",
			ddl: `CREATE FUNCTION moveKey(t) { SELECT t.user.*, t.id + t.id % 2 * 1000000 AS id };`},
		{name: "a row with no star source", function: "starless",
			ddl: `CREATE FUNCTION starless(t) { SELECT t.id AS id, t.country AS country, t.text AS text };`},
		{name: "a native UDF", function: "tagged"},
		{name: "two rows", function: "twice", fails: keyless,
			ddl: `CREATE FUNCTION twice(t) { SELECT t.*, x FROM [1, 2] x };`},
		{name: "a row without the key", function: "keyless", fails: keyless,
			ddl: `CREATE FUNCTION keyless(t) { SELECT t.user.*, t.text AS text };`},
		{name: "static, no function", static: true},
		{name: "static, a row under another key", function: "moveKey", static: true,
			ddl: `CREATE FUNCTION moveKey(t) { SELECT t.user.*, t.id + t.id % 2 * 1000000 AS id };`},
		{name: "static, a row with no star source", function: "starless", static: true,
			ddl: `CREATE FUNCTION starless(t) { SELECT t.id AS id, t.country AS country, t.text AS text };`},
		{name: "static, a native UDF", function: "tagged", static: true},
		{name: "static, a row without the key", function: "keyless", static: true, fails: staticKeyless,
			ddl: `CREATE FUNCTION keyless(t) { SELECT t.user.*, t.text AS text };`},
	} {
		t.Run(arm.name, func(t *testing.T) {
			c, g := testCluster(t, 2)
			if arm.ddl != "" {
				createFunction(t, c, arm.ddl)
			}
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
				[]byte(`{"id": 900001, "text": "coerced", "country": "C000001", "user": {"name": "n"}, "latitude": 33, "longitude": -117, "extra": {"open": [1, {"deep": null}]}}`),
				bytes.Replace(lines[7], []byte(`"text":"`), []byte(`"text":"again `), 1),
			)
			cfg := Config{
				Name: "oracle", Dataset: "EnrichedTweets", Function: arm.function, Natives: natives, BatchSize: 64,
				RecompilePerBatch: arm.recompile, FusedInsert: arm.fused,
				NewAdapter: func(int) (Adapter, error) { return &GeneratorAdapter{Records: lines}, nil },
			}
			var stats func() FeedStats
			var wait func() error
			if arm.static {
				sf, err := StartStatic(context.Background(), c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				stats, wait = sf.Stats, sf.Wait
			} else {
				f, err := Start(context.Background(), c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				stats, wait = f.Stats, f.Wait
			}
			err := wait()
			if arm.fails != "" {
				if err == nil || err.Error() != arm.fails {
					t.Fatalf("the feed ended with %v, want %q", err, arm.fails)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}

			enrich := tagged
			if arm.function == "" {
				enrich = func(rec adm.Value) (adm.Value, error) { return rec, nil }
			}
			if fn, ok := c.Function(arm.function); ok {
				plan, err := query.CompileEnrich(fn.Name, fn.Params, fn.Body, c, query.PlanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pe, err := plan.Prepare(c)
				if err != nil {
					t.Fatal(err)
				}
				enrich = func(rec adm.Value) (adm.Value, error) { return pe.EvalRecord(rec) }
			}
			want := map[string][]byte{}
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
				out, err := enrich(rec)
				if err != nil {
					t.Fatal(err)
				}
				want[out.Field("id").String()] = adm.AppendBinary(nil, out)
			}
			if got := stats().ParseErrors; int(got) != rejected || rejected != 3 {
				t.Fatalf("feed rejected %d lines, the oracle %d, want 3", got, rejected)
			}
			ds, _ := c.Dataset("EnrichedTweets")
			stored := 0
			sc := ds.Scan()
			for key, rec, ok := sc.Next(); ok; key, rec, ok = sc.Next() {
				stored++
				if got := adm.AppendBinary(nil, rec); !bytes.Equal(got, want[key.String()]) {
					t.Fatalf("key %v stores\n %x\nthe oracle encodes\n %x", key, got, want[key.String()])
				}
			}
			if stored != len(want) || stored != n+1 {
				t.Fatalf("%d records stored, the oracle has %d, want %d", stored, len(want), n+1)
			}
		})
	}
}

// tagged is a native UDF: the record as a tree, with one field added.
func tagged(rec adm.Value) (adm.Value, error) {
	src := rec.ObjectVal()
	o := adm.NewObject(src.Len() + 1)
	for i := 0; i < src.Len(); i++ {
		o.Set(src.Name(i), src.At(i))
	}
	o.Set("tag", adm.Int(rec.Field("id").IntVal()%7))
	return adm.ObjectValue(o), nil
}

// frameSink collects the frames an encoder pushes.
type frameSink struct{ frames []hyracks.Frame }

func (*frameSink) Open() error                   { return nil }
func (s *frameSink) Push(fr hyracks.Frame) error { s.frames = append(s.frames, fr); return nil }
func (*frameSink) Close() error                  { return nil }

// reset drops the collected frames, as the storage writer does: a slab
// frame holds nothing pooled.
func (s *frameSink) reset() {
	clear(s.frames)
	s.frames = s.frames[:0]
}

// encoderArm is one way a collector frames records.
type encoderArm struct {
	name  string
	route func(adm.Value) int
}

// encoderArms are the two: one frame of records (a function follows),
// and routed per storage partition.
func encoderArms(targets int) []encoderArm {
	return []encoderArm{
		{"one frame", nil},
		{fmt.Sprintf("routed over %d", targets), func(k adm.Value) int { return int(adm.Hash(k) % uint64(targets)) }},
	}
}

// checkRouted fails unless every frame is a slab and a count and nothing
// else: its N records are all it holds, and its slab decodes to exactly
// N entries (slabRecords). A routed frame is what storage takes as its
// log payload: Enc holds each record's key, then the record, and
// nothing else; and every key is its record's and routes to the
// partition the frame is addressed to (Part), where the storage
// exchange takes it. An unrouted frame names no partition (-1), so no
// storage exchange takes it.
func checkRouted(t *testing.T, frames []hyracks.Frame, pk string, route func(adm.Value) int) {
	t.Helper()
	for _, fr := range frames {
		if fr.Len() != fr.N {
			t.Fatalf("a frame holds %d records beside the %d of its slab", fr.Len()-fr.N, fr.N)
		}
		if route == nil {
			if fr.Part != -1 {
				t.Fatalf("an unrouted frame names partition %d, want -1", fr.Part)
			}
			slabRecords(t, fr)
			continue
		}
		recs, keys := slabRecords(t, fr)
		for i, rec := range recs {
			key := keys[i]
			if got := route(key); got != fr.Part {
				t.Fatalf("key %v routes to partition %d in a frame addressed to %d", key, got, fr.Part)
			}
			if !bytes.Equal(adm.AppendBinary(nil, rec.Field(pk)), adm.AppendBinary(nil, key)) {
				t.Fatalf("key %v precedes a record whose key is %v", key, rec.Field(pk))
			}
		}
	}
}

// slabRecords reads a frame's records off its slab (Frame.Enc) as views
// of it, each after its key — returned beside it — when the frame names
// a storage partition, on their own when it names none (-1). It fails
// the test unless the slab is whole entries, as many as the frame counts
// (Frame.N).
func slabRecords(t *testing.T, fr hyracks.Frame) (recs, keys []adm.Value) {
	t.Helper()
	for off := 0; off < len(fr.Enc); {
		if fr.Part >= 0 {
			key, n, err := adm.DecodeBinary(fr.Enc[off:])
			if err != nil {
				t.Fatalf("key at offset %d of a frame's slab: %v", off, err)
			}
			keys = append(keys, key)
			off += n
		}
		n, err := adm.SkipBinary(fr.Enc[off:])
		if err != nil {
			t.Fatalf("record at offset %d of a frame's slab: %v", off, err)
		}
		recs = append(recs, adm.View(fr.Enc[off:off+n]))
		off += n
	}
	if len(recs) != fr.N {
		t.Fatalf("a frame counts %d records, its slab holds %d", fr.N, len(recs))
	}
	return recs, keys
}

// TestEvaluatorRoutesLikeTheConnector: every frame a function feed's rows
// travel in is addressed to the storage partition each of its rows'
// keys routes to — the partition the storage exchange forwards it to —
// and carries a slab laid out key, record, ... — what storage logs as it
// stands — whether its rows were spliced where they lie (Q1) or framed
// apart: a row under another key, an Object row, a native UDF's row. That
// holds for both producers of such frames: the dynamic feed's collector,
// which runs the function on each line it parses, and the static
// pipeline's evaluator, which runs it on the adapter-parser's frames of
// records. And every row still reads what the function makes of its
// record, however many rows were written into the same slabs after it
// and however many inputs into the collector's rewound scratch.
func TestEvaluatorRoutesLikeTheConnector(t *testing.T) {
	const n, frame = 700, 128
	for nodes := 1; nodes <= 4; nodes++ {
		c, g := testCluster(t, nodes)
		createFunction(t, c, `CREATE FUNCTION moveKey(t) { SELECT t.user.*, t.id + t.id % 5 * 1000000 AS id };`)
		createFunction(t, c, `CREATE FUNCTION starless(t) { SELECT t.id AS id, t.country AS country, t.text AS text };`)
		ds, _ := c.Dataset("EnrichedTweets")
		lines := g.Tweets(0, n)
		for _, function := range []string{"enrichTweetQ1", "moveKey", "starless", "tagged"} {
			t.Run(fmt.Sprintf("%s over %d", function, nodes), func(t *testing.T) {
				fn, rewind := udfCall{instance: &udf.FuncInstance{EvalFn: tagged}}, false
				enrich := tagged
				if def, ok := c.Function(function); ok {
					plan, err := query.CompileEnrich(def.Name, def.Params, def.Body, c, query.PlanOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if fn.prepared, err = plan.Prepare(c); err != nil {
						t.Fatal(err)
					}
					rewind = plan.KeepsNoInput()
					enrich = func(rec adm.Value) (adm.Value, error) { return fn.prepared.EvalRecord(rec) }
				}
				want := map[string][]byte{}
				for _, line := range lines {
					rec, err := adm.ParseJSON(line)
					if err == nil {
						rec, err = workload.TweetType().Validate(rec)
					}
					if err == nil {
						rec, err = enrich(rec)
					}
					if err != nil {
						t.Fatal(err)
					}
					want[rec.Field("id").String()] = adm.AppendBinary(nil, rec)
				}
				encode := func(enc *recordEncoder, lines [][]byte, fn *udfCall, out hyracks.Writer) {
					enc.begin(len(lines))
					for _, line := range lines {
						if ok, err := enc.encode(line, workload.TweetType(), fn, out); !ok || err != nil {
							t.Fatalf("line rejected (%v)", err)
						}
					}
					if err := enc.flush(out); err != nil {
						t.Fatal(err)
					}
				}

				// The dynamic feed: the collector enriches each line it
				// parses, a batch of a frame's lines at a time.
				var collected frameSink
				collector := newRecordEncoder(frame, ds.NumPartitions(), "id", ds.Route)
				collector.rewind = rewind
				for i := 0; i < n; i += frame {
					encode(&collector, lines[i:min(i+frame, n)], &fn, &collected)
				}
				// The static pipeline: the adapter-parser's frames of
				// records, each one batch at the evaluator.
				var parsed, evaluated frameSink
				parser := newRecordEncoder(frame, 1, "", nil)
				encode(&parser, lines, nil, &parsed)
				checkRouted(t, parsed.frames, "id", nil)
				ev := &evaluator{router: newFrameRouter(frame, ds.NumPartitions(), "id", ds.Route), udfCall: fn}
				for _, fr := range parsed.frames {
					if err := ev.Push(nil, fr, &evaluated); err != nil {
						t.Fatal(err)
					}
				}

				batches := (n + frame - 1) / frame
				for _, out := range []*frameSink{&collected, &evaluated} {
					checkRouted(t, out.frames, "id", ds.Route)
					framed := 0
					for _, fr := range out.frames {
						if fr.Enc == nil {
							t.Fatal("a frame carries no slab")
						}
						recs, _ := slabRecords(t, fr)
						for _, rec := range recs {
							key := rec.Field("id").String()
							if got := adm.AppendBinary(nil, rec); !bytes.Equal(got, want[key]) {
								t.Fatalf("key %s reads\n %x\nthe function makes\n %x", key, got, want[key])
							}
						}
						framed += len(recs)
					}
					if framed != n || len(want) != n {
						t.Fatalf("%d rows framed of %d records, want %d", framed, len(want), n)
					}
					// A batch's rows fill a frame or two per partition: one
					// row that had to be sealed off does not cost each row
					// after it a frame of its own.
					if most := batches * (2*ds.NumPartitions() + 1); len(out.frames) > most {
						t.Fatalf("%d batches of rows took %d frames, want at most %d", batches, len(out.frames), most)
					}
					out.reset()
				}
			})
		}
	}
}

// recyclingSink is storage as a slab reused once its memtable is
// flushed unread meets a frame: it keeps a copy of the frame's slab, then
// overwrites the slab, spare capacity included, as the partition does
// before it hands the slab to a later frame (lsm.Dataset.Slab).
type recyclingSink struct{ frames []hyracks.Frame }

func (*recyclingSink) Open() error  { return nil }
func (*recyclingSink) Close() error { return nil }

func (s *recyclingSink) Push(fr hyracks.Frame) error {
	kept := fr
	kept.Enc = bytes.Clone(fr.Enc)
	s.frames = append(s.frames, kept)
	b := fr.Enc[:cap(fr.Enc)]
	for i := range b {
		b[i] = 0xff // lsm's recycledByte
	}
	return nil
}

// TestSpliceApartRowSurvivesRecycle: a row spliced into its input's slab
// under another key has to be framed apart, and the frame it was spliced
// into is sealed and pushed first. The row lies in that slab's spare
// bytes, which storage may recycle once the frame is pushed, so it is
// encoded before the push: every row reads what the function makes of
// its record.
func TestSpliceApartRowSurvivesRecycle(t *testing.T) {
	const n, frame = 300, 64
	c, g := testCluster(t, 2)
	createFunction(t, c, `CREATE FUNCTION moveKey(t) { SELECT t.user.*, t.id + t.id % 5 * 1000000 AS id };`)
	ds, _ := c.Dataset("EnrichedTweets")
	def, _ := c.Function("moveKey")
	plan, err := query.CompileEnrich(def.Name, def.Params, def.Body, c, query.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fn := udfCall{}
	if fn.prepared, err = plan.Prepare(c); err != nil {
		t.Fatal(err)
	}
	lines := g.Tweets(0, n)
	want := map[string][]byte{}
	for _, line := range lines {
		rec, err := adm.ParseJSON(line)
		if err == nil {
			rec, err = workload.TweetType().Validate(rec)
		}
		if err == nil {
			rec, err = fn.prepared.EvalRecord(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[rec.Field("id").String()] = adm.AppendBinary(nil, rec)
	}
	enc := newRecordEncoder(frame, ds.NumPartitions(), "id", ds.Route)
	enc.rewind = plan.KeepsNoInput()
	var out recyclingSink
	for i := 0; i < n; i += frame {
		batch := lines[i:min(i+frame, n)]
		enc.begin(len(batch))
		for _, line := range batch {
			if ok, err := enc.encode(line, workload.TweetType(), &fn, &out); !ok || err != nil {
				t.Fatalf("line rejected (%v)", err)
			}
		}
		if err := enc.flush(&out); err != nil {
			t.Fatal(err)
		}
	}
	framed := 0
	for _, fr := range out.frames {
		recs, _ := slabRecords(t, fr)
		for _, rec := range recs {
			key := rec.Field("id").String()
			if got := adm.AppendBinary(nil, rec); !bytes.Equal(got, want[key]) {
				t.Fatalf("key %s reads\n %x\nthe function makes\n %x", key, got, want[key])
			}
		}
		framed += len(recs)
	}
	if framed != n || len(want) != n {
		t.Fatalf("%d rows framed of %d records, want %d", framed, len(want), n)
	}
}

// TestCollectorAllocatesPerFrame: in steady state turning lines into
// records costs each frame its slab and nothing per record — the parse
// tree lives in an arena that is reset line by line, and the record
// handed on is a view of the slab. Routed, that holds per storage
// partition: a batch costs a slab per partition (two when a partition's
// share overflows its first), and the slabs hold the records' and keys'
// bytes with little to spare. A function feed's collector runs the
// function where it parses and frames the rows the same way: a batch of
// Q1 rows costs the routed slabs plus the query's own work per record (2
// allocations, 88 B; query.TestEvalRecordIntoSlabAllocates), because its
// input is encoded into scratch rewound per record, not into a slab. A
// function that may keep its input (here a native identity) costs the
// routed slabs plus an append-only input slab or two per frame of lines,
// sized like theirs.
func TestCollectorAllocatesPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const frame, targets = 128, 4
	lines := make([][]byte, frame*targets)
	for i := range lines {
		lines[i] = fmt.Appendf(nil, `{"id":%d,"text":"a tweet with some padding text in it","lang":"en","user":{"id":%d,"screen_name":"bench"},"tags":["a","b"]}`, i, i%97)
	}
	type arm struct {
		name  string
		enc   recordEncoder
		lines [][]byte
		dt    *adm.Datatype
		fn    *udfCall
		// want is what the record framed from a line reads.
		want func(line []byte) (adm.Value, error)
		// allocs and bytes are the function's own budget per record.
		allocs, bytes int
		// kept is set when the inputs go into append-only slabs.
		kept bool
	}
	var arms []arm
	for _, a := range encoderArms(targets) {
		arms = append(arms, arm{name: a.name, enc: newRecordEncoder(frame, targets, "id", a.route), lines: lines, want: adm.ParseJSON})
	}
	c, g := testCluster(t, 2)
	ds, _ := c.Dataset("EnrichedTweets")
	def, _ := c.Function("enrichTweetQ1")
	plan, err := query.CompileEnrich(def.Name, def.Params, def.Body, c, query.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := plan.Prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare's snapshots froze the memtables of the datasets Q1 reads,
	// and their flushers write them out in the background: an arm counts
	// the process's allocations, so it must not start before they are
	// done. Runs waits out the last flush's tail (the log truncation).
	for _, name := range workload.ReferenceDatasets[def.Name] {
		ref, _ := c.Dataset(name)
		for i := range ref.NumPartitions() {
			if err := ref.Partition(i).WaitForFlush(); err != nil {
				t.Fatal(err)
			}
			ref.Partition(i).Runs()
		}
	}
	q1 := newRecordEncoder(frame, ds.NumPartitions(), "id", ds.Route)
	if q1.rewind = plan.KeepsNoInput(); !q1.rewind {
		t.Fatal("Q1 calls only builtins, yet may keep its input")
	}
	tweet := func(line []byte) (adm.Value, error) {
		rec, err := adm.ParseJSON(line)
		if err == nil {
			rec, err = workload.TweetType().Validate(rec)
		}
		return rec, err
	}
	arms = append(arms, arm{name: "Q1 rows routed", enc: q1, lines: g.Tweets(0, frame*targets),
		dt: workload.TweetType(), fn: &udfCall{prepared: pe}, allocs: 2, bytes: 88,
		want: func(line []byte) (adm.Value, error) {
			rec, err := tweet(line)
			if err != nil {
				return rec, err
			}
			return pe.EvalRecord(rec)
		}})
	identity := func(rec adm.Value) (adm.Value, error) { return rec, nil }
	arms = append(arms, arm{name: "native rows routed", enc: newRecordEncoder(frame, ds.NumPartitions(), "id", ds.Route),
		lines: g.Tweets(0, frame*targets), dt: workload.TweetType(), kept: true,
		fn: &udfCall{instance: &udf.FuncInstance{EvalFn: identity}}, want: tweet})
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			enc, lines := &arm.enc, arm.lines
			var sink frameSink
			collect := func() {
				sink.reset()
				enc.begin(len(lines))
				for _, line := range lines {
					if ok, err := enc.encode(line, arm.dt, arm.fn, &sink); !ok || err != nil {
						t.Fatalf("line rejected (%v)", err)
					}
				}
				if err := enc.flush(&sink); err != nil {
					t.Fatal(err)
				}
			}
			// Spines and record scratches come from sync.Pools, which a
			// collection empties and which keep a list per P: keep both
			// from refilling them mid-measurement.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			collect() // learns the slab sizes; warms the parser's tables, the arena, the scratch and the pools
			collect()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const batches = 20
			for range batches {
				collect()
			}
			runtime.ReadMemStats(&after)
			checkRouted(t, sink.frames, "id", enc.route)
			size, records := 0, 0
			for _, fr := range sink.frames {
				recs, _ := slabRecords(t, fr)
				for _, rec := range recs {
					want, err := arm.want(lines[rec.Field("id").IntVal()])
					if err != nil || !adm.Equal(rec, want) {
						t.Fatalf("record reads %v, want %v (%v)", rec, want, err)
					}
					size += adm.BinarySize(rec)
					if enc.route != nil {
						size += adm.BinarySize(rec.Field("id"))
					}
					if arm.kept { // the identity's input is its row
						size += adm.BinarySize(rec)
					}
				}
				records += len(recs)
			}
			if records != len(lines) {
				t.Fatalf("%d records framed, want %d", records, len(lines))
			}
			allocs := float64(after.Mallocs-before.Mallocs) / batches
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / batches
			t.Logf("%.1f allocations and %.0f bytes per batch of %d records in %d frames (%d bytes encoded)", allocs, bytes, len(lines), len(sink.frames), size)
			slabs := 2 * len(lines) / frame
			if arm.kept {
				slabs *= 2
			}
			if most := slabs + arm.allocs*len(lines); allocs > float64(most) {
				t.Fatalf("%.1f allocations per batch of %d records, want a slab or two per frame and %d per record", allocs, len(lines), arm.allocs)
			}
			if most := size*5/4 + arm.bytes*len(lines); bytes > float64(most) {
				t.Fatalf("%.0f bytes allocated per batch whose slabs hold %d, want at most %d", bytes, size, most)
			}
		})
	}
}

// TestOutsizedLineDoesNotMultiplyTheSlab: a line far larger than its
// neighbours — the socket adapter admits 16 MiB — costs the batch that
// holds it about its own bytes again, wherever in the batch it falls,
// whichever partition it routes to, and whether or not the encoder has
// seen a batch before; it is taken neither for the size of every record
// still expected nor, once its frame is gone, for the size of the next
// frame's records.
func TestOutsizedLineDoesNotMultiplyTheSlab(t *testing.T) {
	const frame, targets = 128, 4
	small := func(i int) []byte {
		return fmt.Appendf(nil, `{"id":%d,"text":"%0300d","lang":"en","user":{"id":%d,"screen_name":"bench"}}`, i, i, i%97)
	}
	big := fmt.Appendf(nil, `{"id":-1,"text":"%01048576d"}`, 0)
	for _, arm := range encoderArms(targets) {
		for _, at := range []int{0, 1, 5, frame / 2, frame - 1} {
			for _, learned := range []bool{false, true} {
				enc := newRecordEncoder(frame, targets, "id", arm.route)
				var sink frameSink
				// slabs sums the capacity of every slab the batch was given.
				collect := func(outlier int) (slabs, encoded int) {
					last := make([]*byte, len(enc.parts))
					enc.begin(frame)
					for i := range frame {
						line := small(i)
						if i == outlier {
							line = big
						}
						if ok, err := enc.encode(line, nil, nil, &sink); !ok || err != nil {
							t.Fatalf("line rejected (%v)", err)
						}
						for p := range enc.parts {
							slab := enc.parts[p].slab
							if cur := unsafe.SliceData(slab); slab != nil && cur != last[p] {
								last[p], slabs = cur, slabs+cap(slab)
							}
						}
					}
					if err := enc.flush(&sink); err != nil {
						t.Fatal(err)
					}
					checkRouted(t, sink.frames, "id", arm.route)
					for _, fr := range sink.frames {
						recs, _ := slabRecords(t, fr)
						for _, rec := range recs {
							id := rec.Field("id").IntVal()
							line := big
							if id >= 0 {
								line = small(int(id))
							}
							if want, _ := adm.ParseJSON(line); !adm.Equal(rec, want) {
								t.Fatalf("record %d reads back differently", id)
							}
							encoded += adm.BinarySize(rec)
							if arm.route != nil {
								encoded += adm.BinarySize(rec.Field("id"))
							}
						}
					}
					sink.reset()
					return slabs, encoded
				}
				if learned {
					collect(-1)
				}
				slabs, encoded := collect(at)
				t.Logf("%s, outlier at %d, learned=%v: %d slab bytes for %d encoded", arm.name, at, learned, slabs, encoded)
				if slabs > 3*encoded {
					t.Fatalf("%s, outlier at %d, learned=%v: the batch was given %d slab bytes for %d encoded", arm.name, at, learned, slabs, encoded)
				}
				// The batch after it is sized from what its own records need.
				if next, encoded := collect(-1); next > 2*encoded {
					t.Fatalf("%s, outlier at %d, learned=%v: the next batch was given %d slab bytes for %d encoded", arm.name, at, learned, next, encoded)
				}
			}
		}
	}
}

// TestSmallBatchIsChargedWhatItHolds: a storage partition hands out
// slabs of one size, the largest whole frame asked for (Dataset.Slab),
// and a memtable is charged each slab's capacity. So once a full batch
// has set that size, a batch of a few records a target — what a feed
// not under backpressure sends — must not take the partition's slabs:
// it is given about what its records encode, as before the full batch.
func TestSmallBatchIsChargedWhatItHolds(t *testing.T) {
	const frame, targets, few = 128, 4, 6
	line := func(i int) []byte {
		return fmt.Appendf(nil, `{"id":%d,"text":"%0200d","lang":"en"}`, i, i)
	}
	for _, arm := range encoderArms(targets) {
		enc := newRecordEncoder(frame, targets, "id", arm.route)
		// The partitions' slab lists: one size, the largest asked for.
		size := make([]int, targets)
		enc.slab = func(t, n int) []byte {
			size[t] = max(size[t], n)
			return make([]byte, 0, size[t])
		}
		var sink frameSink
		// batch sums the capacity of the slabs n records were framed in,
		// and the bytes those records encode to.
		batch := func(first, n int) (charged, encoded int) {
			enc.begin(n)
			for i := first; i < first+n; i++ {
				if ok, err := enc.encode(line(i), nil, nil, &sink); !ok || err != nil {
					t.Fatalf("line rejected (%v)", err)
				}
			}
			if err := enc.flush(&sink); err != nil {
				t.Fatal(err)
			}
			for _, fr := range sink.frames {
				charged, encoded = charged+cap(fr.Enc), encoded+len(fr.Enc)
			}
			sink.reset()
			return charged, encoded
		}
		batch(0, frame*len(enc.parts))
		batch(frame*len(enc.parts), frame*len(enc.parts))
		if slices.Max(size) == 0 {
			t.Fatalf("%s: no full frame asked for the partition's slab: the test shows nothing", arm.name)
		}
		charged, encoded := batch(1<<20, few*len(enc.parts))
		t.Logf("%s: a batch of %d records a target is charged %d slab bytes for %d encoded", arm.name, few, charged, encoded)
		if most := encoded*5/4 + len(enc.parts)*len(line(0)); charged > most {
			t.Fatalf("%s: a batch of %d records a target is charged %d slab bytes for %d encoded, want at most %d", arm.name, few, charged, encoded, most)
		}
	}
}

// TestCollectorRoutesLikeTheConnector: over int and string primary keys
// and one to four storage partitions, every frame a function-less feed's
// collector emits is addressed to the partition each of its records'
// keys routes to (Part), so the storage exchange forwards it whole, slab
// and all, to the writer that owns every key in it; and the
// feed stores, byte for byte, what a feed through an identity function
// (whose collector encodes each record as the function's input, then
// copies the row it returns into the routed slab) stores from the same
// lines.
func TestCollectorRoutesLikeTheConnector(t *testing.T) {
	const n = 700
	reg := udf.NewRegistry()
	if err := reg.Register(&udf.Native{
		Name: "identity",
		New: func() udf.Instance {
			return &udf.FuncInstance{EvalFn: func(rec adm.Value) (adm.Value, error) { return rec, nil }}
		},
	}); err != nil {
		t.Fatal(err)
	}
	for nodes := 1; nodes <= 4; nodes++ {
		for _, key := range []struct {
			name string
			of   func(i int) string
		}{
			{"int", func(i int) string { return fmt.Sprint(i * 7919) }},
			{"string", func(i int) string { return fmt.Sprintf(`"user-%d"`, i) }},
		} {
			t.Run(fmt.Sprintf("%s keys over %d", key.name, nodes), func(t *testing.T) {
				tuning := cluster.DefaultTuning()
				tuning.DispatchOverheadPerNode, tuning.InvokeOverheadPerNode = 0, 0
				c, err := cluster.New(nodes, tuning)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				lines := make([][]byte, n)
				for i := range lines {
					lines[i] = fmt.Appendf(nil, `{"k":%s,"text":"%0*d","n":%d}`, key.of(i), i%90, i, i%13)
				}
				routed, err := c.CreateDataset("Routed", "", "k")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.CreateDataset("Copied", "", "k"); err != nil {
					t.Fatal(err)
				}

				// What the collector emits, against the dataset's Route.
				enc := newRecordEncoder(128, routed.NumPartitions(), "k", routed.Route)
				var sink frameSink
				enc.begin(n)
				for _, line := range lines {
					if ok, err := enc.encode(line, nil, nil, &sink); !ok || err != nil {
						t.Fatalf("line rejected (%v)", err)
					}
				}
				if err := enc.flush(&sink); err != nil {
					t.Fatal(err)
				}
				checkRouted(t, sink.frames, "k", routed.Route)
				framed := 0
				for _, fr := range sink.frames {
					framed += fr.N
				}
				if framed != n {
					t.Fatalf("%d records framed, want %d", framed, n)
				}
				sink.reset()

				// The two feeds store the same bytes.
				for _, feed := range []Config{
					{Name: "routed", Dataset: "Routed"},
					{Name: "copied", Dataset: "Copied", Function: "identity", Natives: reg},
				} {
					feed.BatchSize = 96
					feed.NewAdapter = func(int) (Adapter, error) { return &GeneratorAdapter{Records: lines}, nil }
					f, err := Start(context.Background(), c, feed)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Wait(); err != nil {
						t.Fatal(err)
					}
				}
				scan := func(name string) (out [][]byte) {
					ds, _ := c.Dataset(name)
					sc := ds.Scan()
					for k, rec, ok := sc.Next(); ok; k, rec, ok = sc.Next() {
						out = append(out, adm.AppendBinary(adm.AppendBinary(nil, k), rec))
					}
					return out
				}
				got, want := scan("Routed"), scan("Copied")
				if len(got) != n || len(want) != n {
					t.Fatalf("stored %d routed and %d copied records, want %d", len(got), len(want), n)
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("entry %d: routed\n %x\ncopied\n %x", i, got[i], want[i])
					}
				}
			})
		}
	}
}
