package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one set of inputs the benchmark runs. Every workload
// drives the same user-visible journey — bytes on a socket become
// durable records, the cluster restarts from its data directory, two
// database/sql clients query it over the wire — so every end-to-end
// metric exists on every workload; they differ in which layer the
// journey leans on.
type workload struct {
	name string
	why  string

	// enrich attaches the Q1-style hash-join UDF to the feed.
	enrich bool
	// batchSize is the feed's "batch-size": 420 is the paper's 1X,
	// 6720 its 16X.
	batchSize int
	// updatesPerSec is the open-loop rate of reference-data UPSERTs
	// issued beside ingestion (0: reference data is static).
	updatesPerSec int

	// Frozen sizes, per second of the --seconds budget: records pushed
	// through the socket, and statements issued by each of the two
	// query clients. Sized on a 2-core sandbox so that ingestion and the
	// query phase each take roughly half of the budget.
	recordsPerSec int
	stmtsPerSec   int
}

var workloads = []workload{
	{
		name: "ingest-plain",
		why: "No UDF, batch 16X; 25k records and 8 statements/client per budget second. The write path (parse, frames, " +
			"WAL+fsync, flush, compaction) does the work; stored data exceeds the block cache.",
		batchSize: 6720, recordsPerSec: 25_000, stmtsPerSec: 8,
	},
	{
		name: "enrich-join",
		why: "Q1 hash-join UDF on 50k static reference rows, batch 1X; 5k records and 25 statements/client per budget " +
			"second. The per-batch state rebuild dominates; stored data fits the block cache.",
		enrich: true, batchSize: 420, recordsPerSec: 5_000, stmtsPerSec: 25,
	},
	{
		name: "enrich-updates",
		why: "enrich-join plus open-loop reference UPSERTs at 200/s beside ingestion: reference writes next to per-batch " +
			"reference reads, so caching that serves stale ratings or slows updates shows here.",
		enrich: true, batchSize: 420, updatesPerSec: 200, recordsPerSec: 5_000, stmtsPerSec: 25,
	},
	{
		name: "query-mixed",
		why: "Enriched load at batch 16X (8k records per budget second, Prepare amortised over 6720) and 30 " +
			"statements/client per budget second: the read path (cursors, run reads, cache, wire) gets most of the run.",
		enrich: true, batchSize: 6720, recordsPerSec: 8_000, stmtsPerSec: 30,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clients is the number of query connections, and with the sender and
// the updater the largest number of load-generating goroutines alive
// at once.
const clients = 2

// minUpsertsPerSec is the floor on each client's reference upserts per
// second of the budget, whatever the workload's statement count: at
// 10 s driver.upsert_ms_p50 is the median of at least 200 samples.
const minUpsertsPerSec = 10

// inputs is everything one run feeds the engine, plus what it must
// answer.
type inputs struct {
	pool      []body
	countries int
	records   int
	updates   []update
	stmts     [][]stmt
	exp       *expectations
}

func genInputs(w workload, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{records: max(1, int(float64(w.recordsPerSec)*seconds))}
	in.countries = max(1, min(in.records/rowsPerCountry, refRows))
	in.pool = genPool(rng, in.countries)
	// The schedule outlasts any plausible ingestion time; the updater
	// stops when the sender does.
	in.updates = genUpdates(rng, in.countries, w.updatesPerSec, time.Duration(4*seconds*float64(time.Second)))
	in.stmts = genStatements(rng, clients, int(float64(w.stmtsPerSec)*seconds), int(minUpsertsPerSec*seconds), in.countries)
	in.exp = expect(in.pool, in.records, in.countries)
	return in
}
