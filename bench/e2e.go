package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/driver"
	"github.com/ideadb/idea/internal/server"
)

// The end-to-end pass drives only what a user drives: the public idea
// package on a real data directory, a loopback TCP connection into the
// socket adapter, and database/sql over the wire protocol.

const (
	nodes = 2
	// chunkRecords is the number of records per socket write, and so
	// the granularity of the send-time log used for freshness checks.
	chunkRecords = 1000
	// sampleEvery picks the 1% of records whose stored form is
	// compared with the harness's own computation.
	sampleEvery = 100
	// setupRepeats is how often set-up is repeated in one run; the
	// median is reported so one slow boot does not move setup_s.
	setupRepeats = 5
	// wireVersionBase keeps versions written by the query phase's
	// upsert statements apart from the ingest-time update schedule.
	wireVersionBase = 1 << 40
)

const ddlCatalog = `
CREATE TYPE TweetType AS OPEN { id: int64, text: string, country: string };
CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
CREATE TYPE RatingType AS OPEN { country_code: string, safety_rating: int64 };
CREATE DATASET SafetyRatings(RatingType) PRIMARY KEY country_code;
CREATE FUNCTION enrichTweet(t) {
	LET safety_rating = (SELECT VALUE s.safety_rating
		FROM SafetyRatings s
		WHERE t.country = s.country_code)
	SELECT t.*, safety_rating
};
`

const ddlIndex = `CREATE INDEX tweetCountry ON Tweets(country) TYPE BTREE;`

func ratingRow(country int, version int64) idea.Value {
	return idea.Obj("country_code", countryCode(country), "safety_rating", version, "pad", "pppppppppppppppppppppppppppppp")
}

// e2e is the state and the measurements of one end-to-end pass.
type e2e struct {
	w       workload
	seed    int64
	in      *inputs
	tr      *tracer
	dataDir string

	cluster *idea.Cluster
	// After the restart: the wire server in front of the cluster and
	// the database/sql pool the clients draw their connections from.
	srv *server.Server
	db  *sql.DB

	metrics map[string]float64 // end-to-end metrics
	layer   map[string]float64 // counters read off the engine's own stats
	info    map[string]any     // sample counts and other context

	attempted int
	failed    int
	problems  []string

	// Send-time log and acknowledged updates, for the freshness check.
	chunkStart []time.Time
	acked      []ackedUpdate
	userBytes  int64
	heapBaseMB float64
}

type ackedUpdate struct {
	country int
	version int64
	at      time.Time
}

func (r *e2e) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// setUp boots a cluster on an empty data directory, declares the
// catalog and the feed, and loads the reference rows.
func setUp(w workload, dataDir string, port int) (*idea.Cluster, error) {
	c, err := idea.NewCluster(idea.Config{Nodes: nodes, DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	apply := ""
	if w.enrich {
		apply = " APPLY FUNCTION enrichTweet"
	}
	// backpressure, not the default spill: with spill the sender
	// finishes early and the run then times a high-variance drain.
	feed := fmt.Sprintf(`
		CREATE FEED TweetFeed WITH {
			"adapter-name": "socket_adapter",
			"sockets": "127.0.0.1:%d",
			"batch-size": %d,
			"congestion-policy": "backpressure"
		};
		CONNECT FEED TweetFeed TO DATASET Tweets%s;`, port, w.batchSize, apply)
	if _, err := c.Execute(ctx, ddlCatalog+feed); err != nil {
		c.Close()
		return nil, err
	}
	const loadChunk = 5000
	for lo := 0; lo < refRows; lo += loadChunk {
		rows := make([]any, 0, loadChunk)
		for i := lo; i < min(lo+loadChunk, refRows); i++ {
			rows = append(rows, ratingRow(i, 0))
		}
		if _, err := c.Execute(ctx, `UPSERT INTO SafetyRatings ($rows)`, idea.Named("rows", idea.Arr(rows...))); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// runE2E runs one end-to-end pass of w. tr is nil on the untraced
// pass, which is the one end-to-end metrics are taken from.
func runE2E(w workload, seed int64, seconds float64, dataRoot string, tr *tracer) (*e2e, error) {
	r := &e2e{w: w, seed: seed, tr: tr, metrics: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: input generation + boot + DDL + reference load, repeated
	// on fresh directories; the last cluster is the one the run uses.
	var port int
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if r.cluster != nil {
			if err := r.cluster.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(r.dataDir)
		}
		sp := tr.start("e2e.setup", noSpan)
		t0 := time.Now()
		r.in = genInputs(w, seed, seconds)
		r.dataDir = filepath.Join(dir, "data"+strconv.Itoa(i))
		if port, err = freePort(); err != nil {
			return nil, err
		}
		if r.cluster, err = setUp(w, r.dataDir, port); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
	}
	r.metrics["setup_s"] = median(setups)
	defer func() { r.cluster.Close() }()

	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %.2fs\n", w.name, name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	if err := r.ingest(port); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	lap("ingest+close")
	defer r.stopServing()
	if err := r.reopen(); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	lap("reopen")
	if err := r.queryPhase(); err != nil {
		return nil, fmt.Errorf("query phase: %w", err)
	}
	lap("query phase")
	st := r.srv.Stats()
	r.layer["server.queries"] = float64(st.Queries)
	r.layer["server.rows_sent"] = float64(st.RowsSent)
	r.layer["server.bytes_sent"] = float64(st.BytesSent)
	if err := r.verifyStored(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	lap("verify")
	r.layer["e2e.peak_rss_mb"] = peakRSSMB()
	return r, nil
}

// dialFeed connects to the socket adapter, which starts listening
// shortly after START FEED returns.
func dialFeed(port int) (net.Conn, error) {
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ingest pushes the run's records through one TCP connection, closed
// by TCP backpressure, with the reference-data updater beside it.
// Ingestion is timed to Feed.Stop() returning, not to Stored == N: a
// socket feed stores its last partial frame only when it stops.
func (r *e2e) ingest(port int) error {
	ctx := context.Background()
	res, err := r.cluster.Execute(ctx, `START FEED TweetFeed;`)
	if err != nil {
		return err
	}
	feed := res.Feeds()[0]
	conn, err := dialFeed(port)
	if err != nil {
		feed.Stop()
		return err
	}

	root := r.tr.start("e2e.ingest", noSpan)
	n := r.in.records
	r.chunkStart = make([]time.Time, 0, n/chunkRecords+1)
	var windows []float64 // Stored deltas per ~1 s window, records/s
	io0, err := procIO()
	if err != nil {
		feed.Stop()
		return err
	}
	alloc0, cpu0, t0 := allocBytes(), cpuTime(), time.Now()

	senderDone := make(chan struct{})
	var upd updaterResult
	var wg sync.WaitGroup
	if len(r.in.updates) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			upd = r.runUpdater(t0, senderDone, root)
		}()
	}

	buf := make([]byte, 0, chunkRecords*512)
	winStart, winStored := t0, int64(0)
	var sendErr error
	for lo := 0; lo < n && sendErr == nil; lo += chunkRecords {
		buf = buf[:0]
		for id := lo; id < min(lo+chunkRecords, n); id++ {
			buf = appendTweet(buf, r.in.pool, id)
		}
		now := time.Now()
		r.chunkStart = append(r.chunkStart, now)
		if now.Sub(winStart) >= time.Second {
			if st, err := feed.Stats(); err == nil {
				windows = append(windows, float64(st.Stored-winStored)/now.Sub(winStart).Seconds())
				winStart, winStored = now, st.Stored
			}
		}
		sp := r.tr.start("socket.write", root)
		_, sendErr = conn.Write(buf)
		r.tr.end(sp)
		r.userBytes += int64(len(buf))
	}
	if err := conn.Close(); sendErr == nil {
		sendErr = err
	}
	lastByte := time.Now()
	close(senderDone)
	sp := r.tr.start("feed.stop", root)
	stopErr := feed.Stop()
	r.tr.end(sp)
	stopped, cpu, alloc := time.Now(), cpuTime()-cpu0, allocBytes()-alloc0
	elapsed := stopped.Sub(t0)
	wg.Wait()
	r.tr.end(root)
	if err := errors.Join(sendErr, stopErr); err != nil {
		return err
	}

	st, err := feed.Stats()
	if err != nil {
		return err
	}
	r.attempted += n
	if missing := int64(n) - st.Stored; missing != 0 || st.ParseErrors != 0 {
		r.fail(int(max(missing, st.ParseErrors, 1)), "feed stored %d of %d records, %d parse errors", st.Stored, n, st.ParseErrors)
	}
	r.metrics["ingest_alloc_bytes_per_record"] = float64(alloc) / float64(n)
	r.layer["e2e.ingest_records_per_s"] = float64(n) / elapsed.Seconds()
	r.layer["e2e.ingest_cpu_us_per_record"] = float64(cpu.Microseconds()) / float64(n)
	r.layer["core.refresh_ms_mean"] = ms(st.MeanRefresh)
	r.info["records"] = n
	r.info["ingest_s"] = elapsed.Seconds()
	r.layer["core.invocations"] = float64(st.Invocations)
	r.layer["core.records_per_invocation"] = float64(st.Ingested) / float64(max(st.Invocations, 1))
	r.layer["core.parse_errors"] = float64(st.ParseErrors)
	r.layer["core.spilled_frames"] = float64(st.SpilledFrames)
	r.layer["core.stop_drain_ms"] = ms(stopped.Sub(lastByte))
	ws := sortedCopy(windows)
	r.layer["core.window_rate_p25"] = quantile(ws, 0.25)
	r.layer["core.window_rate_p50"] = quantile(ws, 0.50)
	r.layer["core.window_rate_p75"] = quantile(ws, 0.75)
	r.info["windows"] = len(ws)
	r.recordUpdates(upd)

	// Clean shutdown, then measure what the run left on disk.
	ss := r.cluster.StorageStats()
	r.layer["lsm.open_run_files_end"] = float64(ss.OpenRunFiles)
	sp = r.tr.start("cluster.close", noSpan)
	err = r.cluster.Close()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	io1, err := procIO()
	if err != nil {
		return err
	}
	disk, err := dirBytes(r.dataDir)
	if err != nil {
		return err
	}
	r.metrics["disk_bytes_per_user_byte"] = float64(disk) / float64(r.userBytes)
	// With the cluster closed the heap holds the harness's inputs and
	// little else: the base e2e.serving_heap_mb is counted from.
	r.heapBaseMB = liveHeapMB()
	// Every byte the process wrote from the first record to the clean
	// shutdown — WAL, flushes, compaction rewrites — less the sender's
	// own socket writes.
	r.layer["e2e.write_bytes_per_user_byte"] = float64(io1.wchar-io0.wchar-r.userBytes) / float64(r.userBytes)
	r.info["user_bytes"] = r.userBytes
	r.info["disk_bytes"] = disk
	return nil
}

type updaterResult struct {
	ackMS  []float64 // latency from the scheduled send time
	lateMS []float64 // how late the scheduler issued each update
	errs   int
}

// runUpdater issues the update schedule open-loop: each UPSERT is due
// at a fixed offset from the start of ingestion whether or not the
// previous one has been acknowledged quickly, and its latency is timed
// from when it was due, so a stall is charged to every update it
// delays.
func (r *e2e) runUpdater(t0 time.Time, stop <-chan struct{}, parent int) updaterResult {
	var res updaterResult
	ctx := context.Background()
	for _, u := range r.in.updates {
		due := t0.Add(u.due)
		select {
		case <-stop:
			return res
		case <-time.After(time.Until(due)): // at once when already overdue
		}
		sent := time.Now()
		sp := r.tr.start("update.upsert", parent)
		_, err := r.cluster.Execute(ctx, `UPSERT INTO SafetyRatings ([$row])`, idea.Named("row", ratingRow(u.country, u.version)))
		r.tr.end(sp)
		now := time.Now()
		res.lateMS = append(res.lateMS, ms(sent.Sub(due)))
		if err != nil {
			res.errs++
			continue
		}
		res.ackMS = append(res.ackMS, ms(now.Sub(due)))
		r.acked = append(r.acked, ackedUpdate{country: u.country, version: u.version, at: now})
	}
	return res
}

func (r *e2e) recordUpdates(u updaterResult) {
	issued := len(u.lateMS)
	r.attempted += issued
	if u.errs > 0 {
		r.fail(u.errs, "%d of %d reference updates failed", u.errs, issued)
	}
	ack, late := sortedCopy(u.ackMS), sortedCopy(u.lateMS)
	r.layer["core.update_ack_ms_p50"] = quantile(ack, 0.5)
	r.layer["core.update_ack_ms_tail"] = quantile(ack, tailQuantile(len(ack)))
	r.layer["core.update_late_ms_p50"] = quantile(late, 0.5)
	r.layer["core.updates_issued"] = float64(issued)
	r.info["update_tail_quantile"] = tailQuantile(len(ack))
}

// reopen restarts the cluster from its data directory, re-runs the DDL
// (the catalog is memory-only, so the index is back-filled), serves it
// on loopback and times the whole restart up to the first successful
// query over the wire.
func (r *e2e) reopen() error {
	sp := r.tr.start("e2e.reopen", noSpan)
	defer r.tr.end(sp)
	t0 := time.Now()
	c, err := idea.NewCluster(idea.Config{Nodes: nodes, DataDir: r.dataDir})
	if err != nil {
		return err
	}
	r.cluster = c
	ctx := context.Background()
	if _, err := c.Execute(ctx, ddlCatalog+ddlIndex); err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = server.New(c, server.Config{})
	go r.srv.Serve(l) // returns when Shutdown closes the listener
	connector, err := driver.NewConnector(l.Addr().String())
	if err != nil {
		return err
	}
	r.db = sql.OpenDB(connector)
	r.db.SetMaxOpenConns(clients)
	conn, err := r.db.Conn(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := r.runStatement(ctx, conn, stmt{kind: kindProbe}, 0); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	r.layer["server.reopen_s"] = time.Since(t0).Seconds()
	r.layer["e2e.serving_heap_mb"] = liveHeapMB() - r.heapBaseMB
	return nil
}

// stopServing closes the client pool and drains the wire server.
func (r *e2e) stopServing() {
	if r.db != nil {
		r.db.Close()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.srv.Shutdown(ctx)
	}
}

// queryPhase runs each client's fixed statement sequence on its own
// connection, closed loop, checking every result against the
// generator's expectation.
func (r *e2e) queryPhase() error {
	ctx := context.Background()
	before := r.cluster.StorageStats()
	root := r.tr.start("e2e.query", noSpan)
	type clientResult struct {
		lat    [numKinds][]float64
		failed int
		notes  []string
		err    error
	}
	results := make([]clientResult, clients)
	io0, err := procIO()
	if err != nil {
		return err
	}
	alloc0, t0 := allocBytes(), time.Now()
	var wg, pointsDone sync.WaitGroup
	pointsDone.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			conn, err := r.db.Conn(ctx)
			if err != nil {
				res.err = err
				return
			}
			defer conn.Close()
			scanning := false
			defer func() {
				if !scanning {
					pointsDone.Done()
				}
			}()
			for i, s := range r.in.stmts[c] {
				if isScan(s.kind) && !scanning {
					// Every client finishes its point statements before
					// any starts its scans.
					scanning = true
					pointsDone.Done()
					pointsDone.Wait()
				}
				sp := r.tr.start("stmt."+kindNames[s.kind], root)
				start := time.Now()
				err := r.runStatement(ctx, conn, s, int64(c)<<20|int64(i))
				res.lat[s.kind] = append(res.lat[s.kind], ms(time.Since(start)))
				r.tr.end(sp)
				if err != nil {
					res.failed++
					if len(res.notes) < 5 {
						res.notes = append(res.notes, fmt.Sprintf("client %d statement %d (%s): %v", c, i, kindNames[s.kind], err))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall, alloc := time.Since(t0), allocBytes()-alloc0
	r.tr.end(root)
	io1, err := procIO()
	if err != nil {
		return err
	}

	var lat [numKinds][]float64
	total := 0
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		for k := range lat {
			lat[k] = append(lat[k], res.lat[k]...)
			total += len(res.lat[k])
		}
		if res.failed > 0 {
			r.fail(res.failed, "%d statements failed, e.g. %v", res.failed, res.notes)
		}
	}
	r.attempted += total
	probe, limit := sortedCopy(lat[kindProbe]), sortedCopy(lat[kindLimit])
	scans := sortedCopy(append(lat[kindTopK], lat[kindGroupBy]...))
	upsert := sortedCopy(lat[kindUpsert])
	tail := tailQuantile(len(probe))
	r.metrics["query_read_bytes_per_statement"] = float64(io1.rchar-io0.rchar) / float64(total)
	r.metrics["query_alloc_bytes_per_statement"] = float64(alloc) / float64(total)
	r.layer["e2e.query_ops_per_s"] = float64(total) / wall.Seconds()
	r.layer["driver.probe_ms_p50"] = quantile(probe, 0.5)
	r.layer["driver.probe_ms_tail"] = quantile(probe, tail)
	r.layer["driver.limit_ms_p50"] = quantile(limit, 0.5)
	r.layer["driver.scan_ms_p50"] = quantile(scans, 0.5)
	r.layer["driver.upsert_ms_p50"] = quantile(upsert, 0.5)
	r.info["statements"] = total
	r.info["probe_samples"] = len(probe)
	r.info["probe_tail_quantile"] = tail
	r.info["limit_samples"] = len(limit)
	r.info["scan_samples"] = len(scans)
	r.info["upsert_samples"] = len(upsert)
	r.info["query_s"] = wall.Seconds()

	after := r.cluster.StorageStats()
	hits, misses := after.BlockCacheHits-before.BlockCacheHits, after.BlockCacheMisses-before.BlockCacheMisses
	if hits+misses > 0 {
		r.layer["lsm.block_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.layer["lsm.block_reads_per_statement"] = float64(after.BlockReads-before.BlockReads) / float64(max(total, 1))
	r.layer["lsm.block_cache_evictions"] = float64(after.BlockCacheEvictions - before.BlockCacheEvictions)
	r.layer["lsm.fence_skips"] = float64(after.FenceSkips - before.FenceSkips)
	r.layer["lsm.bloom_skips"] = float64(after.BloomSkips - before.BloomSkips)
	if r.tr != nil {
		return r.inProcess(ctx)
	}
	return nil
}

// inProcess is the traced pass's view under the wire: the same
// statements through Cluster.Query in process, on the same reopened
// data, so the share of a wire statement spent in protocol, server and
// driver can be told from the share spent in the query engine; and the
// driver's bare round trip.
func (r *e2e) inProcess(ctx context.Context) error {
	root := r.tr.start("e2e.in_process", noSpan)
	defer r.tr.end(root)
	var lat [numKinds][]float64
	budget := [numKinds]int{kindProbe: 100, kindLimit: 50, kindTopK: 1, kindGroupBy: 1}
	for _, s := range r.in.stmts[0] {
		if budget[s.kind] == 0 {
			continue
		}
		budget[s.kind]--
		sp := r.tr.start("query."+kindNames[s.kind], root)
		start := time.Now()
		rows, err := r.cluster.Query(ctx, kindSQL[s.kind], s.queryArgs()...)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		lat[s.kind] = append(lat[s.kind], ms(time.Since(start)))
		r.tr.end(sp)
		if err := rows.Err(); err != nil {
			return err
		}
	}
	r.layer["query.select_probe_us"] = median(lat[kindProbe]) * 1e3
	r.layer["query.select_limit_us"] = median(lat[kindLimit]) * 1e3
	r.layer["query.select_topk_ms"] = median(lat[kindTopK])
	r.layer["query.select_groupby_ms"] = median(lat[kindGroupBy])
	if p50 := r.layer["driver.probe_ms_p50"]; p50 > 0 {
		r.layer["wire.overhead_share"] = (p50 - median(lat[kindProbe])) / p50
	}

	const pings = 500
	sp := r.tr.start("driver.ping", root)
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := r.db.PingContext(ctx); err != nil {
			return err
		}
	}
	r.layer["driver.roundtrip_us"] = float64(time.Since(start).Microseconds()) / pings
	r.tr.end(sp)
	return nil
}

// idOfRecord reads the id out of a JSON-encoded tweet without parsing
// the rest; the engine serialises fields in stored order, id first.
func idOfRecord(js []byte) (int64, bool) {
	const prefix = `{"id":`
	if len(js) < len(prefix) || string(js[:len(prefix)]) != prefix {
		return 0, false
	}
	end := len(prefix)
	for end < len(js) && js[end] >= '0' && js[end] <= '9' {
		end++
	}
	id, err := strconv.ParseInt(string(js[len(prefix):end]), 10, 64)
	return id, err == nil
}

// runStatement executes one statement, drains its rows and checks them.
func (r *e2e) runStatement(ctx context.Context, conn *sql.Conn, s stmt, serial int64) error {
	exp, pool := r.in.exp, r.in.pool
	if s.kind == kindUpsert {
		row := ratingRow(s.arg, wireVersionBase+serial)
		_, err := conn.ExecContext(ctx, kindSQL[kindUpsert], row.JSON())
		return err
	}
	rows, err := conn.QueryContext(ctx, kindSQL[s.kind], s.queryArgs()...)
	if err != nil {
		return err
	}
	defer rows.Close()
	count := 0
	switch s.kind {
	case kindProbe:
		var sum int64
		var raw sql.RawBytes
		for rows.Next() {
			if err := rows.Scan(&raw); err != nil {
				return err
			}
			id, ok := idOfRecord(raw)
			if !ok {
				return fmt.Errorf("row without leading id: %.40s", raw)
			}
			sum += id
			count++
		}
		if count != exp.countryRows[s.arg] || sum != exp.countrySum[s.arg] {
			return fmt.Errorf("country %d: %d rows (id sum %d), want %d (%d)", s.arg, count, sum, exp.countryRows[s.arg], exp.countrySum[s.arg])
		}
	case kindLimit:
		for rows.Next() {
			var id int64
			if err := rows.Scan(&id); err != nil {
				return err
			}
			if id < 0 || id >= int64(r.in.records) || int(pool[id%poolSize].retweets) < s.arg {
				return fmt.Errorf("id %d does not satisfy retweet_count >= %d", id, s.arg)
			}
			count++
		}
		if want := min(100, exp.atLeast(s.arg)); count < want {
			return fmt.Errorf("%d rows, want %d", count, want)
		}
	case kindTopK:
		var got []int32
		for rows.Next() {
			var id int64
			if err := rows.Scan(&id); err != nil {
				return err
			}
			if id < 0 || id >= int64(r.in.records) {
				return fmt.Errorf("unknown id %d", id)
			}
			got = append(got, pool[id%poolSize].retweets)
		}
		if len(got) != len(exp.topRetweets) {
			return fmt.Errorf("%d rows, want %d", len(got), len(exp.topRetweets))
		}
		for i := range got {
			if got[i] != exp.topRetweets[i] {
				return fmt.Errorf("rank %d has retweet_count %d, want %d", i, got[i], exp.topRetweets[i])
			}
		}
	case kindGroupBy:
		for rows.Next() {
			var v idea.Value
			if err := rows.Scan(&v); err != nil {
				return err
			}
			lang, n := v.Field("lang").Str(), v.Field("n").Int()
			li, known := langIndex[lang]
			if !known || int(n) != exp.langRows[li] {
				return fmt.Errorf("group %q has %d rows, want %d", lang, n, exp.langRows[li])
			}
			count++
		}
		groups := 0
		for _, n := range exp.langRows {
			if n > 0 {
				groups++
			}
		}
		if count != groups {
			return fmt.Errorf("%d groups, want %d", count, groups)
		}
	}
	return rows.Err()
}

var langIndex = func() map[string]int {
	m := make(map[string]int, len(langs))
	for i, l := range langs {
		m[l] = i
	}
	return m
}()

// verifyStored reads a 1% sample of the records back from the reopened
// cluster and compares each with the harness's own computation of what
// was sent and how it should have been enriched. Run after the restart,
// it is also the clean-restart durability check; the dataset's size is
// pinned by the groupby statements' counts.
func (r *e2e) verifyStored() error {
	sp := r.tr.start("e2e.verify", noSpan)
	defer r.tr.end(sp)
	// Versions each country's rating ever held: 0 initially, then those
	// the updater sent (acknowledged or not — an errored update may
	// still have been applied).
	held := map[int][]int64{}
	for _, u := range r.in.updates {
		held[u.country] = append(held[u.country], u.version)
	}
	ackedBy := map[int][]ackedUpdate{}
	for _, a := range r.acked {
		ackedBy[a.country] = append(ackedBy[a.country], a)
	}
	sampled, stale := 0, 0
	for id := int(r.seed % sampleEvery); id < r.in.records; id += sampleEvery {
		sampled++
		b := &r.in.pool[id%poolSize]
		rec, found, err := r.cluster.Get("Tweets", idea.Int64(int64(id)))
		if err != nil {
			return err
		}
		if !found {
			r.fail(1, "record %d is missing after restart", id)
			continue
		}
		if rec.Field("country").Str() != countryCode(int(b.country)) || rec.Field("retweet_count").Int() != int64(b.retweets) {
			r.fail(1, "record %d differs from what was sent: %s", id, rec)
			continue
		}
		rating := rec.Field("safety_rating")
		if !r.w.enrich {
			if !rating.IsMissing() {
				r.fail(1, "record %d is enriched without a UDF: %s", id, rec)
			}
			continue
		}
		if rating.Len() != 1 {
			r.fail(1, "record %d: safety_rating = %s, want one rating", id, rating)
			continue
		}
		version := rating.Index(0).Int()
		ok := version == 0
		for _, v := range held[int(b.country)] {
			ok = ok || v == version
		}
		if !ok {
			r.fail(1, "record %d: rating version %d was never written for %s", id, version, countryCode(int(b.country)))
			continue
		}
		// Freshness: the record's batch started after the record was
		// written to the socket, so it must not carry a version older
		// than the newest one acknowledged before that write.
		sentAt := r.chunkStart[id/chunkRecords]
		for _, a := range ackedBy[int(b.country)] {
			if a.at.Before(sentAt) && a.version > version {
				stale++
				break
			}
		}
	}
	r.attempted += sampled
	r.info["sampled_records"] = sampled
	if sampled > 0 {
		r.layer["core.stale_enrichment_share"] = float64(stale) / float64(sampled)
	}
	return nil
}
