package main

import "repro/bench/kit"

// workloadNames is the run order. The names are final: later issues cite
// them.
var workloadNames = []string{"interactive", "read_cold", "write_durable", "replicate"}

// endToEnd is the catalogue of gated metrics, mirrored in BENCHMARK.json
// (catalogue_test.go holds the two together). Every workload reports every
// one; README.md says what each measures on each workload. The timing
// bounds are as wide as the contract allows because the sandbox is that
// noisy, and the timings that could not hold even those (a view page, a
// restart) are per-layer metrics: README.md, Steadiness, has the spreads.
var endToEnd = []kit.MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "point_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.1},
}

// perLayer is the catalogue of diagnostic metrics, <layer>.<metric> with
// the layer named after its package. A traced run reports every one; a
// layer the workload does not reach reads 0.
var perLayer = []kit.MetricSpec{
	// Ladder self times, from the traced pass.
	{Name: "wire.failover_get_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.failover_put_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.failover_viewpage_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.failover_search_self_us", Unit: "us", Better: "lower"},
	{Name: "server.get_self_us", Unit: "us", Better: "lower"},
	{Name: "server.put_self_us", Unit: "us", Better: "lower"},
	{Name: "server.viewpage_self_us", Unit: "us", Better: "lower"},
	{Name: "server.search_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_get_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_put_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_viewpage_us", Unit: "us", Better: "lower"},
	{Name: "wire.codec_search_us", Unit: "us", Better: "lower"},
	{Name: "core.get_self_us", Unit: "us", Better: "lower"},
	{Name: "core.put_self_us", Unit: "us", Better: "lower"},
	{Name: "core.viewpage_self_us", Unit: "us", Better: "lower"},
	{Name: "core.search_self_us", Unit: "us", Better: "lower"},
	{Name: "store.get_self_us", Unit: "us", Better: "lower"},
	{Name: "store.put_self_us", Unit: "us", Better: "lower"},
	{Name: "store.put_sync_self_us", Unit: "us", Better: "lower"},
	{Name: "view.viewpage_self_us", Unit: "us", Better: "lower"},
	{Name: "ft.search_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	// Layers timed alone, on the workload's own documents.
	{Name: "nsf.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "nsf.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "view.update_us", Unit: "us", Better: "lower"},
	{Name: "view.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "ft.update_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_put", Unit: "B", Better: "lower"},
	// Counters differenced over the measured window.
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.failovers", Unit: "count", Better: "lower"},
	{Name: "wire.hedges", Unit: "count", Better: "lower"},
	{Name: "wire.busy_redirects", Unit: "count", Better: "lower"},
	{Name: "server.dispatched", Unit: "count", Better: "higher"},
	{Name: "server.sheds", Unit: "count", Better: "lower"},
	{Name: "server.deadline_sheds", Unit: "count", Better: "lower"},
	{Name: "server.queued_max", Unit: "count", Better: "lower"},
	{Name: "server.latency_ewma_us", Unit: "us", Better: "lower"},
	{Name: "server.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cluster_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cluster_dropped", Unit: "count", Better: "lower"},
	{Name: "store.notecache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.pages", Unit: "count", Better: "lower"},
	{Name: "store.dirty_pages_max", Unit: "count", Better: "lower"},
	{Name: "store.gc_records_per_flush", Unit: "count", Better: "higher"},
	{Name: "store.flushes_per_ack", Unit: "ratio", Better: "lower"},
	{Name: "changefeed.max_lag", Unit: "count", Better: "lower"},
	{Name: "changefeed.resyncs", Unit: "count", Better: "lower"},
	{Name: "changefeed.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.initial_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "repl.incr_round_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.idle_round_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.summaries_in", Unit: "count", Better: "lower"},
	{Name: "repl.notes_fetched", Unit: "count", Better: "lower"},
	{Name: "repl.bytes_in", Unit: "B", Better: "lower"},
	{Name: "repl.bytes_per_changed_doc", Unit: "B", Better: "lower"},
	{Name: "repl.idle_notes_fetched", Unit: "count", Better: "lower"},
	// The clients' own view, by operation class; never gated.
	{Name: "client.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.viewpage_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.search_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.scanpage_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.putbatch_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.get_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.put_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.viewpage_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.search_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.max_us", Unit: "us", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// metrics collects one run's values against a catalogue.
type metrics map[string]kit.Metric

func (m metrics) set(name string, value float64, n int) {
	m[name] = kit.Metric{Value: value, N: n}
}

// fill gives every metric of specs its unit, and a zero to the ones the
// run did not reach, so a run always reports the whole catalogue.
func (m metrics) fill(specs []kit.MetricSpec) metrics {
	out := make(metrics, len(specs))
	for _, s := range specs {
		v := m[s.Name]
		v.Unit = s.Unit
		out[s.Name] = v
	}
	return out
}
