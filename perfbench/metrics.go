package main

// declared lists the metrics of the result line, by name and unit, in the
// order BENCHMARK.json declares them. Every workload reports all of them:
// a layer a workload never reaches reads 0 (no cluster sub-queries on a
// single node, no ingest on a static store).
type declared struct{ name, unit string }

var endToEnd = []declared{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"scalar_p50_ms", "ms"},
	{"scalar_p90_ms", "ms"},
	{"group_p50_ms", "ms"},
	{"group_p90_ms", "ms"},
	{"allocs_per_query", "count"},
	{"heap_mb", "MB"},
}

var perLayer = []declared{
	{"query.parse_us", "us"},
	{"query.translate_us", "us"},
	{"query.lookups_per_query", "count"},
	{"perfmodel.estimate_us", "us"},
	{"sched.peek_us", "us"},
	{"sched.cpu_share", "ratio"},
	{"sched.translated_share", "ratio"},
	{"sched.predicted_late_share", "ratio"},
	{"sched.est_over_act_p50", "ratio"},
	{"sched.resubmitted", "count"},
	{"table.bind_us", "us"},
	{"table.generate_s", "s"},
	{"gpusim.execute_us", "us"},
	{"gpusim.ns_per_row", "ns"},
	{"gpusim.group_execute_us", "us"},
	{"cube.aggregate_us", "us"},
	{"cube.build_s", "s"},
	{"engine.serve_overhead_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.subsumption_share", "ratio"},
	{"engine.cache_invalidations_per_s", "1/s"},
	{"engine.fused_members_per_job", "count"},
	{"engine.fusion_fallbacks", "count"},
	{"ingest.us_per_row", "us"},
	{"ingest.wal_bytes_per_row", "B"},
	{"ingest.compactions_per_s", "1/s"},
	{"ingest.delta_stripes_mean", "count"},
	{"ingest.replay_rows_per_s", "1/s"},
	{"ingest.generator_lag_ms", "ms"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p90_ms", "ms"},
	{"recover_s", "s"},
	{"cluster.subqueries_per_query", "count"},
	{"cluster.remote_share", "ratio"},
	{"cluster.bytes_moved_per_query", "B"},
	{"cluster.failovers", "count"},
	{"runtime.gc_per_1k_queries", "count"},
	{"bench.tracing_overhead", "ratio"},
}

// resultMetrics picks the declared metrics of a mode out of everything a
// run computed.
func resultMetrics(all map[string]metric, trace bool) map[string]metric {
	list := endToEnd
	if trace {
		list = perLayer
	}
	out := make(map[string]metric, len(list))
	for _, d := range list {
		out[d.name] = metric{all[d.name].Value, d.unit}
	}
	return out
}
