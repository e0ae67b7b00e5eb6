package main

// metric declares one reported number. The tables below are the single
// source of the names: BENCHMARK.json is generated from them
// (-benchmark-json) and the smoke test fails when a run prints
// anything else.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, taken from the untraced pass: what
// a run costs its user in set-up time, space, bytes read and bytes
// allocated. Costs repeat on a shared host; the journey's times
// (e2e.* below) do not, so they are reported and not gated. Bound is
// the share of the parent's median by which a metric may worsen before
// a change counts as a regression.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.10},
	{"ingest_alloc_bytes_per_record", "bytes", "lower", 0.25},
	{"query_read_bytes_per_statement", "bytes", "lower", 0.20},
	{"query_alloc_bytes_per_statement", "bytes", "lower", 0.20},
}

// perLayer are the metrics of single layers, printed by the traced
// pass. Those marked (e2e) in the README are read off the engine's own
// counters during the traced end-to-end pass; the rest come from
// replaying the workload's inputs through each layer's functions.
var perLayer = []metric{
	{Name: "adm.parse_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "adm.parse_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "adm.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "adm.encoded_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "adm.decode_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "core.adapter_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.invocations", Unit: "count", Better: "lower"},
	{Name: "core.records_per_invocation", Unit: "count", Better: "higher"},
	{Name: "core.parse_errors", Unit: "count", Better: "lower"},
	{Name: "core.spilled_frames", Unit: "count", Better: "lower"},
	{Name: "core.stop_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.window_rate_p25", Unit: "rec/s", Better: "higher"},
	{Name: "core.window_rate_p50", Unit: "rec/s", Better: "higher"},
	{Name: "core.window_rate_p75", Unit: "rec/s", Better: "higher"},
	{Name: "core.stale_enrichment_share", Unit: "ratio", Better: "lower"},
	{Name: "core.updates_issued", Unit: "count", Better: "higher"},
	{Name: "core.update_ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.update_ack_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.update_late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.refresh_ms_mean", Unit: "ms", Better: "lower"},

	{Name: "hyracks.frame_roundtrip_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "hyracks.job_invoke_us", Unit: "us", Better: "lower"},
	{Name: "hyracks.job_invoke_allocs", Unit: "count", Better: "lower"},

	{Name: "query.compile_enrich_us", Unit: "us", Better: "lower"},
	{Name: "query.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "query.prepare_allocs", Unit: "count", Better: "lower"},
	{Name: "query.eval_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "query.prepare_share", Unit: "ratio", Better: "lower"},
	{Name: "query.select_probe_us", Unit: "us", Better: "lower"},
	{Name: "query.select_limit_us", Unit: "us", Better: "lower"},
	{Name: "query.select_topk_ms", Unit: "ms", Better: "lower"},
	{Name: "query.select_groupby_ms", Unit: "ms", Better: "lower"},

	{Name: "sqlpp.parse_us_per_statement", Unit: "us", Better: "lower"},

	{Name: "index.btree_put_batch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "index.backfill_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "lsm.upsert_batch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "lsm.upsert_batch_cpu_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "lsm.wal_sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lsm.wal_sync_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "lsm.wal_commits", Unit: "count", Better: "lower"},
	{Name: "lsm.flush_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.merges", Unit: "count", Better: "lower"},
	{Name: "lsm.fs_write_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "lsm.fs_syncs_per_1k_records", Unit: "count", Better: "lower"},
	{Name: "lsm.point_get_us_warm", Unit: "us", Better: "lower"},
	{Name: "lsm.point_get_us_cold", Unit: "us", Better: "lower"},
	{Name: "lsm.scan_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "lsm.recovery_records_per_s", Unit: "rec/s", Better: "higher"},
	{Name: "lsm.block_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lsm.block_reads_per_statement", Unit: "count", Better: "lower"},
	{Name: "lsm.block_cache_evictions", Unit: "count", Better: "lower"},
	{Name: "lsm.fence_skips", Unit: "count", Better: "higher"},
	{Name: "lsm.bloom_skips", Unit: "count", Better: "higher"},
	{Name: "lsm.open_run_files_end", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "driver.probe_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.probe_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "driver.limit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.upsert_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.reopen_s", Unit: "s", Better: "lower"},
	{Name: "server.queries", Unit: "count", Better: "higher"},
	{Name: "server.rows_sent", Unit: "count", Better: "higher"},
	{Name: "server.bytes_sent", Unit: "bytes", Better: "lower"},

	{Name: "e2e.ingest_records_per_s", Unit: "rec/s", Better: "higher"},
	{Name: "e2e.ingest_cpu_us_per_record", Unit: "us", Better: "lower"},
	{Name: "e2e.query_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "e2e.write_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "e2e.serving_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "e2e.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "ledger.sum_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},
	{Name: "ledger.trace_overhead_share", Unit: "ratio", Better: "lower"},
}
