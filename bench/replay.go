package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/cluster"
	"github.com/ideadb/idea/internal/core"
	"github.com/ideadb/idea/internal/hyracks"
	"github.com/ideadb/idea/internal/index"
	"github.com/ideadb/idea/internal/lsm"
	"github.com/ideadb/idea/internal/query"
	"github.com/ideadb/idea/internal/sqlpp"
	"github.com/ideadb/idea/internal/wire"
)

// The replay pushes a slice of the workload's own inputs through each
// layer's exported functions, one layer at a time, on the harness's own
// files, and times every call under a span (one per frame-sized batch,
// not per record). It is the per-layer half of the traced pass: the
// engine itself carries no timers yet, so this is where a stage's cost
// can be seen in isolation.

const (
	frameRecords = 128
	// replayRecords bounds the slice of the workload replayed through
	// the per-record stages.
	replayRecords = 40_000
	// lsmRound is the number of records written between explicit
	// flushes of the storage stage, under the 8 MiB memtable budget so
	// every flush is one the harness times. Runs much smaller than the
	// frozen sizes (the smoke test) shrink it.
	lsmRound = 8192
	// lsmRounds × lsmRound records reach the storage stage: enough run
	// files for size-tiered compaction to merge at least once.
	lsmRounds = 7
	// replayCacheBytes is the block cache of the storage stage, small
	// enough that the stage's data is several times larger.
	replayCacheBytes = 8 << 20
)

// cost is what one stage spent: wall time and process CPU time (which
// includes the engine's background goroutines, e.g. the flusher).
type cost struct {
	wall, cpu time.Duration
}

func (c cost) wallPer(n int) float64 { return float64(c.wall.Nanoseconds()) / float64(n) }
func (c cost) cpuPer(n int) float64  { return float64(c.cpu.Nanoseconds()) / float64(n) }

type replay struct {
	w   workload
	in  *inputs
	tr  *tracer
	dir string
	out map[string]float64
	// stages is the per-record CPU cost of each stage on this
	// workload's ingestion path, for the ledger.
	stages []ledgerStage

	// rpi is the end-to-end pass's records per computing-job
	// invocation: per-batch costs are amortised over it.
	rpi float64

	raw  [][]byte    // JSON lines
	recs []adm.Value // the records as stored (enriched when the workload enriches)
}

type ledgerStage struct {
	name  string
	cpuNS float64 // per record
}

// batches calls fn for every frame-sized batch [lo,hi) of n items, each
// under its own span, and returns what the calls cost in total.
func (p *replay) batches(name string, n int, fn func(lo, hi int) error) (cost, error) {
	parent := p.tr.start(name, noSpan)
	defer p.tr.end(parent)
	cpu0, t0 := cpuTime(), time.Now()
	for lo := 0; lo < n; lo += frameRecords {
		sp := p.tr.start(name+".batch", parent)
		err := fn(lo, min(lo+frameRecords, n))
		p.tr.end(sp)
		if err != nil {
			return cost{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	return cost{time.Since(t0), cpuTime() - cpu0}, nil
}

// once times a single call under a span.
func (p *replay) once(name string, fn func() error) (cost, error) {
	sp := p.tr.start(name, noSpan)
	cpu0, t0 := cpuTime(), time.Now()
	err := fn()
	c := cost{time.Since(t0), cpuTime() - cpu0}
	p.tr.end(sp)
	if err != nil {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// runReplay runs every stage; recordsPerInvocation comes from the
// end-to-end pass.
func runReplay(w workload, in *inputs, dir string, tr *tracer, recordsPerInvocation float64) (map[string]float64, []ledgerStage, error) {
	p := &replay{w: w, in: in, tr: tr, dir: dir, out: map[string]float64{}, rpi: max(recordsPerInvocation, 1)}
	n := min(in.records, replayRecords)
	p.raw = make([][]byte, n)
	for id := range p.raw {
		line := appendTweet(nil, in.pool, id)
		p.raw[id] = line[:len(line)-1] // the adapter strips the newline
	}
	for _, stage := range []func() error{
		p.stageAdapter, p.stageFrames, p.stageParse, p.stageQuery, p.stageInvoke,
		p.stageEncode, p.stageBTree, p.stageStorage, p.stageWire, p.stageSQLPP,
	} {
		if err := stage(); err != nil {
			return nil, nil, err
		}
	}
	return p.out, p.stages, nil
}

func (p *replay) ledger(name string, cpuNS float64) {
	p.stages = append(p.stages, ledgerStage{name, cpuNS})
}

// stageAdapter runs core.SocketAdapter into a discarding emit, fed by
// the same kind of TCP sender as the end-to-end pass.
func (p *replay) stageAdapter() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	a := &core.SocketAdapter{Addr: net.JoinHostPort("127.0.0.1", strconv.Itoa(port))}
	emitted := 0
	done := make(chan error, 1)
	go func() {
		done <- a.Run(context.Background(), func([]byte) error { emitted++; return nil })
	}()
	conn, err := dialFeed(port)
	if err != nil {
		a.Stop()
		<-done
		return err
	}
	buf := make([]byte, 0, chunkRecords*512)
	c, err := p.once("core.adapter", func() error {
		for lo := 0; lo < len(p.raw); lo += chunkRecords {
			buf = buf[:0]
			for _, line := range p.raw[lo:min(lo+chunkRecords, len(p.raw))] {
				buf = append(append(buf, line...), '\n')
			}
			if _, err := conn.Write(buf); err != nil {
				return err
			}
		}
		if err := conn.Close(); err != nil {
			return err
		}
		// Run returns once the listener is closed and the connection
		// has been read to its end.
		a.Stop()
		return <-done
	})
	if err != nil {
		return err
	}
	if emitted != len(p.raw) {
		return fmt.Errorf("core.adapter: emitted %d of %d records", emitted, len(p.raw))
	}
	p.out["core.adapter_ns_per_record"] = c.wallPer(len(p.raw))
	p.ledger("core.adapter", c.cpuPer(len(p.raw)))
	return nil
}

// holderWriter is the intake job's connector reduced to its effect: a
// full frame goes into the partition holder.
type holderWriter struct{ h *hyracks.PassiveHolder }

func (w holderWriter) Open() error  { return nil }
func (w holderWriter) Close() error { return nil }
func (w holderWriter) Push(f hyracks.Frame) error {
	return w.h.PushFrame(context.Background(), f)
}

// stageFrames is one frame's trip through intake: staged into a pooled
// arena, pushed into a passive holder, pulled by a collector, recycled.
func (p *replay) stageFrames() error {
	ctx := context.Background()
	h := hyracks.NewPassiveHolder(cluster.DefaultTuning().HolderCapacity)
	b := hyracks.NewFrameBuilder(frameRecords, holderWriter{h})
	c, err := p.batches("hyracks.frame_roundtrip", len(p.raw), func(lo, hi int) error {
		for _, line := range p.raw[lo:hi] {
			if err := b.AddRawCopy(line); err != nil {
				return err
			}
		}
		if err := b.Flush(); err != nil {
			return err
		}
		frames, _, err := h.PullFrames(ctx, hi-lo)
		for _, f := range frames {
			hyracks.RecycleFrame(f)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["hyracks.frame_roundtrip_ns_per_record"] = c.wallPer(len(p.raw))
	p.ledger("hyracks.frame_roundtrip", c.cpuPer(len(p.raw)))
	return nil
}

// stageParse parses every line the way the collector does: into a
// pooled spine and arena that are recycled per frame.
func (p *replay) stageParse() error {
	parser := adm.NewParser()
	parse := func(lo, hi int) error {
		spine, arena := hyracks.GetRecordSlice(frameRecords), hyracks.GetArena()
		var err error
		for _, line := range p.raw[lo:hi] {
			if spine, err = parser.ParseInto(line, spine, arena); err != nil {
				return err
			}
		}
		hyracks.PutRecordSlice(spine)
		hyracks.PutArena(arena)
		return nil
	}
	// One warm-up frame fills the parser's intern table and the pools.
	if err := parse(0, min(frameRecords, len(p.raw))); err != nil {
		return err
	}
	a0 := allocs()
	c, err := p.batches("adm.parse", len(p.raw), parse)
	if err != nil {
		return err
	}
	p.out["adm.parse_allocs_per_record"] = float64(allocs()-a0) / float64(len(p.raw))
	p.out["adm.parse_ns_per_record"] = c.wallPer(len(p.raw))
	p.ledger("adm.parse", c.cpuPer(len(p.raw)))

	// Heap-backed copies for the stages downstream, which retain them.
	p.recs = make([]adm.Value, len(p.raw))
	for i, line := range p.raw {
		if p.recs[i], err = adm.ParseJSON(line); err != nil {
			return err
		}
	}
	return nil
}

// replayCatalog builds the enrichment's catalog on an internal cluster:
// the reference dataset with all its rows, and the UDF.
func (p *replay) replayCatalog() (*cluster.Cluster, *sqlpp.CreateFunction, error) {
	tuning := cluster.DefaultTuning()
	tuning.DataDir = filepath.Join(p.dir, "query")
	cat, err := cluster.New(nodes, tuning)
	if err != nil {
		return nil, nil, err
	}
	ds, err := cat.CreateDataset("SafetyRatings", "", "country_code")
	if err != nil {
		return nil, nil, err
	}
	rows := make([]adm.Value, refRows)
	for i := range rows {
		rows[i] = adm.ObjectValue(adm.ObjectFromPairs(
			"country_code", adm.String(countryCode(i)),
			"safety_rating", adm.Int(0),
			"pad", adm.String("pppppppppppppppppppppppppppppp")))
	}
	if err := ds.UpsertBatch(rows); err != nil {
		return nil, nil, err
	}
	stmts, err := sqlpp.Parse(ddlCatalog)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range stmts {
		if fn, ok := s.(*sqlpp.CreateFunction); ok {
			return cat, fn, nil
		}
	}
	return nil, nil, errors.New("no CREATE FUNCTION in the catalog DDL")
}

// stageQuery times the computing job's three query-layer costs:
// compiling the UDF (once per feed), Prepare (once per batch) and
// EvalRecord (once per record). Every workload measures them; only the
// enriching ones have them on their ingestion path.
func (p *replay) stageQuery() error {
	cat, fn, err := p.replayCatalog()
	if err != nil {
		return err
	}
	defer cat.Close()
	var plan *query.EnrichPlan
	const compiles = 50
	c, err := p.once("query.compile_enrich", func() error {
		for i := 0; i < compiles; i++ {
			if plan, err = query.CompileEnrich(fn.Name, fn.Params, fn.Body, cat, query.PlanOptions{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["query.compile_enrich_us"] = c.wallPer(compiles) / 1e3

	const prepares = 5
	var prepared *query.PreparedEnrich
	var prep cost
	a0 := allocs()
	for i := 0; i < prepares; i++ {
		c, err := p.once("query.prepare", func() error {
			prepared, err = plan.Prepare(cat)
			return err
		})
		if err != nil {
			return err
		}
		prep.wall += c.wall
		prep.cpu += c.cpu
	}
	p.out["query.prepare_allocs"] = float64(allocs()-a0) / prepares
	p.out["query.prepare_ms"] = prep.wallPer(prepares) / 1e6

	enriched := make([]adm.Value, len(p.recs))
	eval, err := p.batches("query.eval", len(p.recs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if enriched[i], err = prepared.EvalRecord(p.recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	evalNS := eval.wallPer(len(p.recs))
	p.out["query.eval_ns_per_record"] = evalNS
	prepNS := prep.wallPer(prepares)
	p.out["query.prepare_share"] = prepNS / (prepNS + evalNS*p.rpi)
	if p.w.enrich {
		p.recs = enriched
		p.ledger("query.prepare (per batch, amortised)", prep.cpuPer(prepares)/p.rpi)
		p.ledger("query.eval", eval.cpuPer(len(p.recs)))
	}
	return nil
}

// stageInvoke invokes a predeployed job of the computing job's shape
// (source, map, sink on every node) that moves no data: what is left
// is the job machinery and the simulated invocation message.
func (p *replay) stageInvoke() error {
	c, err := cluster.New(nodes, cluster.DefaultTuning())
	if err != nil {
		return err
	}
	spec := hyracks.NewJobSpec()
	src := spec.AddOperator(&hyracks.Descriptor{Name: "noop-source", Parallelism: nodes,
		NewSource: func(int) (hyracks.Source, error) {
			return hyracks.SourceFunc(func(_ *hyracks.TaskContext, out hyracks.Writer) error { return out.Open() }), nil
		}})
	mapOp := spec.AddOperator(&hyracks.Descriptor{Name: "noop-map", Parallelism: nodes,
		NewPipe: func(int) (hyracks.Pipe, error) {
			return &hyracks.MapPipe{Fn: func(v adm.Value) (adm.Value, bool, error) { return v, true, nil }}, nil
		}})
	sink := spec.AddOperator(&hyracks.Descriptor{Name: "noop-sink", Parallelism: nodes,
		NewPipe: func(int) (hyracks.Pipe, error) {
			return &hyracks.SinkPipe{Fn: func(*hyracks.TaskContext, hyracks.Frame) error { return nil }}, nil
		}})
	spec.Connect(src, mapOp, hyracks.OneToOne, nil)
	spec.Connect(mapOp, sink, hyracks.OneToOne, nil)
	if err := c.Predeploy("noop"); err != nil {
		return err
	}
	const invocations = 300
	ctx := context.Background()
	invoke := func() error {
		job, err := c.InvokePredeployed(ctx, "noop", spec)
		if err != nil {
			return err
		}
		return job.Wait()
	}
	if err := invoke(); err != nil {
		return err
	}
	a0 := allocs()
	cst, err := p.once("hyracks.job_invoke", func() error {
		for i := 0; i < invocations; i++ {
			if err := invoke(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["hyracks.job_invoke_allocs"] = float64(allocs()-a0) / invocations
	p.out["hyracks.job_invoke_us"] = cst.wallPer(invocations) / 1e3
	p.ledger("hyracks.job_invoke (per batch, amortised)", cst.cpuPer(invocations)/p.rpi)
	return nil
}

// stageEncode round-trips the stored form of every record through the
// binary format of the WAL, the run files and the wire.
func (p *replay) stageEncode() error {
	encoded := make([][]byte, len(p.recs))
	var buf []byte
	var size int64
	c, err := p.batches("adm.encode", len(p.recs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			buf = adm.AppendBinary(buf[:0], p.recs[i])
			encoded[i] = append([]byte(nil), buf...)
			size += int64(len(buf))
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["adm.encode_ns_per_record"] = c.wallPer(len(p.recs))
	p.out["adm.encoded_bytes_per_record"] = float64(size) / float64(len(p.recs))
	c, err = p.batches("adm.decode", len(encoded), func(lo, hi int) error {
		for _, enc := range encoded[lo:hi] {
			if _, _, err := adm.DecodeBinary(enc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["adm.decode_ns_per_record"] = c.wallPer(len(encoded))
	return nil
}

// stageBTree bulk-inserts sorted frame-sized runs into a memtable tree.
func (p *replay) stageBTree() error {
	t := index.NewBTree()
	items := make([]index.Item, len(p.recs))
	for i := range items {
		items[i].Key, items[i].Val = p.record(i)
	}
	c, err := p.batches("index.btree_put_batch", len(items), func(lo, hi int) error {
		t.PutBatch(items[lo:hi], nil)
		return nil
	})
	if err != nil {
		return err
	}
	if t.Len() != len(items) {
		return fmt.Errorf("index.btree_put_batch: tree holds %d of %d items", t.Len(), len(items))
	}
	p.out["index.btree_put_batch_ns_per_record"] = c.wallPer(len(items))
	return nil
}

// record returns replay record i; ids past the parsed slice reuse its
// bodies under a fresh key, like the generator's pool does.
func (p *replay) record(i int) (key, rec adm.Value) {
	return adm.Int(int64(i)), p.recs[i%len(p.recs)]
}

// stageStorage writes frames into one durable partition on the real
// filesystem through a counting wrapper of the lsm.FS seam, flushing
// every round, then closes, recovers, and reads the data back.
func (p *replay) stageStorage() error {
	cfs := &countFS{FS: lsm.NewOSFS()}
	dir := filepath.Join(p.dir, "lsm")
	opts := lsm.DefaultOptions()
	opts.BlockCache = lsm.NewBlockCache(replayCacheBytes)
	open := func() (*lsm.Dataset, error) {
		return lsm.OpenDataset(cfs, dir, "Tweets", nil, "id", 1, opts)
	}
	ds, err := open()
	if err != nil {
		return err
	}
	part := ds.Partition(0)
	round := min(lsmRound, max(frameRecords, p.in.records/4))
	// Half a round more stays in the WAL at close, so recovery replays
	// a log tail as well as opening runs.
	total := lsmRounds*round + round/2
	keys, recs := make([]adm.Value, frameRecords), make([]adm.Value, frameRecords)
	var userBytes int64
	var write, flush cost
	flushes := 0
	for i := 0; i <= lsmRounds; i++ {
		lo := i * round
		c, err := p.batches("lsm.upsert_batch", min(round, total-lo), func(blo, bhi int) error {
			for j := blo; j < bhi; j++ {
				keys[j-blo], recs[j-blo] = p.record(lo + j)
				userBytes += int64(len(p.raw[(lo+j)%len(p.raw)]) + 1)
			}
			return part.UpsertBatch(keys[:bhi-blo], recs[:bhi-blo])
		})
		if err != nil {
			return err
		}
		write.wall += c.wall
		write.cpu += c.cpu
		if i == lsmRounds {
			break // the tail stays in the WAL
		}
		c, err = p.once("lsm.flush", func() error {
			part.Flush()
			return part.WaitForFlush()
		})
		if err != nil {
			return err
		}
		flush.wall += c.wall
		flush.cpu += c.cpu
		flushes++
	}
	st := part.Stats()
	p.out["lsm.upsert_batch_ns_per_record"] = write.wallPer(total)
	p.out["lsm.upsert_batch_cpu_ns_per_record"] = (write.cpu + flush.cpu).Seconds() * 1e9 / float64(total)
	p.out["lsm.flush_ms_mean"] = flush.wallPer(flushes) / 1e6
	p.out["lsm.flushes"] = float64(st.Flushes)
	p.out["lsm.merges"] = float64(st.Merges)
	p.out["lsm.wal_commits"] = float64(part.WAL().Commits())
	cfs.mu.Lock()
	syncs := sortedCopy(cfs.walSyncMS)
	cfs.mu.Unlock()
	p.out["lsm.wal_sync_ms_p50"] = quantile(syncs, 0.5)
	p.out["lsm.wal_sync_ms_tail"] = quantile(syncs, tailQuantile(len(syncs)))
	p.ledger("lsm.upsert_batch+flush", p.out["lsm.upsert_batch_cpu_ns_per_record"])

	// Back-fill a secondary index over the populated dataset, as a
	// restart's re-run DDL does.
	c, err := p.once("index.backfill", func() error { return ds.CreateFieldBTreeIndex("tweetCountry", "country") })
	if err != nil {
		return err
	}
	p.out["index.backfill_ns_per_record"] = c.wallPer(total)

	if err := ds.Close(); err != nil {
		return err
	}
	p.out["lsm.fs_write_bytes_per_user_byte"] = float64(cfs.writeBytes.Load()) / float64(userBytes)
	p.out["lsm.fs_syncs_per_1k_records"] = float64(cfs.syncs.Load()) * 1000 / float64(total)

	c, err = p.once("lsm.recovery", func() error {
		ds, err = open()
		return err
	})
	if err != nil {
		return err
	}
	defer ds.Close()
	p.out["lsm.recovery_records_per_s"] = float64(total) / c.wall.Seconds()

	// Point reads: a hot range that fits the block cache, then uniform
	// keys over data several times its size.
	rng := rand.New(rand.NewSource(int64(total)))
	gets, hotRange := min(8_000, 4*total), min(2_000, total/4)
	get := func(name string, span int) (float64, error) {
		pick := func() adm.Value { return adm.Int(int64(rng.Intn(span))) }
		for i := 0; i < gets/4; i++ {
			ds.Get(pick())
		}
		c, err := p.batches(name, gets, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if _, ok := ds.Get(pick()); !ok {
					return errors.New("stored key not found")
				}
			}
			return nil
		})
		return c.wallPer(gets) / 1e3, err
	}
	if p.out["lsm.point_get_us_warm"], err = get("lsm.point_get_warm", hotRange); err != nil {
		return err
	}
	if p.out["lsm.point_get_us_cold"], err = get("lsm.point_get_cold", lsmRounds*round); err != nil {
		return err
	}

	cur := ds.Scan()
	scanned := 0
	c, err = p.once("lsm.scan", func() error {
		for {
			if _, _, ok := cur.Next(); !ok {
				return nil
			}
			scanned++
		}
	})
	cur.Close()
	if err != nil {
		return err
	}
	if scanned != total {
		return fmt.Errorf("lsm.scan: %d of %d records after recovery", scanned, total)
	}
	p.out["lsm.scan_ns_per_record"] = c.wallPer(total)
	return nil
}

// stageWire encodes and decodes result rows the way the server and the
// driver do, one RowBatch body per batch.
func (p *replay) stageWire() error {
	bodies := make([][]byte, 0, len(p.recs)/frameRecords+1)
	c, err := p.batches("wire.encode", len(p.recs), func(lo, hi int) error {
		bodies = append(bodies, wire.AppendRowBatch(nil, p.recs[lo:hi]))
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.encode_ns_per_row"] = c.wallPer(len(p.recs))
	c, err = p.batches("wire.decode", len(p.recs), func(lo, _ int) error {
		br, err := wire.NewBatchReader(bodies[lo/frameRecords])
		for ok := err == nil; ok && err == nil; {
			_, ok, err = br.Next()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["wire.decode_ns_per_row"] = c.wallPer(len(p.recs))
	return nil
}

// stageSQLPP parses the query phase's statements.
func (p *replay) stageSQLPP() error {
	const rounds = 400
	c, err := p.once("sqlpp.parse", func() error {
		for i := 0; i < rounds; i++ {
			for _, text := range kindSQL {
				if _, err := sqlpp.Parse(text); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sqlpp.parse_us_per_statement"] = c.wallPer(rounds*len(kindSQL)) / 1e3
	return nil
}
