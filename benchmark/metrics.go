package main

// metricDef is one metric as BENCHMARK.json declares it. The file and
// these tables must agree; a test compares them.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd is what a user or operator of the serving stack sees; every
// workload reports all seven.
var endToEnd = []metricDef{
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_bytes_per_triple", "B", "lower", 0.02},
	{"disk_bytes_per_triple", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what -trace 1 reports. A metric whose layer the workload
// never enters reads 0.
var perLayer = []metricDef{
	// set-up, every workload
	{name: "store.ingest_s", unit: "s", better: "lower"},
	{name: "persist.snapshot_s", unit: "s", better: "lower"},
	{name: "persist.recover_s", unit: "s", better: "lower"},
	{name: "bootstrap.initialize_s", unit: "s", better: "lower"},
	{name: "bootstrap.cache_roundtrip_s", unit: "s", better: "lower"},
	{name: "bootstrap.queries_issued", unit: "count", better: "lower"},
	{name: "suffixtree.nodes", unit: "count", better: "lower"},
	{name: "suffixtree.approx_bytes", unit: "B", better: "lower"},
	{name: "bins.residual_strings", unit: "count", better: "lower"},
	{name: "datagen.triples", unit: "count", better: "higher"},
	// ungated diagnostics from plain rounds of the traced run
	{name: "e2e.latency_p99_us", unit: "us", better: "lower"},
	{name: "e2e.latency_max_us", unit: "us", better: "lower"},
	{name: "e2e.raw_ops_per_s", unit: "1/s", better: "higher"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "e2e.read_p50_us", unit: "us", better: "lower"},
	{name: "e2e.write_p50_us", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "http.response_bytes_per_op", unit: "B", better: "lower"},
	// rung medians, outermost first
	{name: "http.roundtrip_us", unit: "us", better: "lower"},
	{name: "webapi.complete_handler_us", unit: "us", better: "lower"},
	{name: "pum.complete_us", unit: "us", better: "lower"},
	{name: "suffixtree.search_us", unit: "us", better: "lower"},
	{name: "bins.search_substring_us", unit: "us", better: "lower"},
	{name: "webapi.run_handler_us", unit: "us", better: "lower"},
	{name: "sapphire.run_us", unit: "us", better: "lower"},
	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "pum.execute_us", unit: "us", better: "lower"},
	{name: "pum.suggest_us", unit: "us", better: "lower"},
	{name: "pum.alt_predicates_us", unit: "us", better: "lower"},
	{name: "bins.search_similar_us", unit: "us", better: "lower"},
	{name: "pum.relax_us", unit: "us", better: "lower"},
	{name: "endpoint.handler_us", unit: "us", better: "lower"},
	{name: "endpoint.local_query_us", unit: "us", better: "lower"},
	{name: "sparql.eval_us", unit: "us", better: "lower"},
	{name: "http.add_roundtrip_us", unit: "us", better: "lower"},
	{name: "endpoint.add_handler_us", unit: "us", better: "lower"},
	{name: "rdf.parse_ntriples_us", unit: "us", better: "lower"},
	{name: "persist.addall_us", unit: "us", better: "lower"},
	{name: "store.addall_us", unit: "us", better: "lower"},
	// counts taken at the rung boundaries
	{name: "pum.qcm_tree_only_share", unit: "ratio", better: "higher"},
	{name: "bins.strings_scanned_per_op", unit: "count", better: "lower"},
	{name: "pum.completions_per_op", unit: "count", better: "higher"},
	{name: "federation.queries_per_op", unit: "count", better: "lower"},
	{name: "pum.suggestions_per_op", unit: "count", better: "higher"},
	{name: "pum.repair_hit_share", unit: "ratio", better: "higher"},
	{name: "endpoint.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "sparql.intermediate_rows_per_result", unit: "ratio", better: "lower"},
	{name: "endpoint.result_rows_per_op", unit: "count", better: "higher"},
	{name: "persist.wal_bytes_per_triple", unit: "B", better: "lower"},
	{name: "persist.snapshot_count", unit: "count", better: "lower"},
	{name: "persist.snapshot_stall_ms", unit: "ms", better: "lower"},
}

func perLayerZero() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
