package main

// The benchmark's contract for names: BENCHMARK.json at the repository root
// lists exactly these workloads and metrics, and TestSpecMatchesBenchmarkJSON
// keeps the two in step. Later issues refer to them by these names.

const (
	wlLibEpisodes = "lib-episodes"
	wlClusterHop  = "cluster-hop"
	wlLiveChurn   = "live-churn"
)

var workloadNames = []string{wlLibEpisodes, wlClusterHop, wlLiveChurn}

// metricSpec is one metric of BENCHMARK.json. Bound (end-to-end only) is the
// share of the parent's median by which the metric may get worse.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user of
// the system sees. Bounds are 3x the largest IQR/median measured over two
// ten-seed sets on any workload, rounded up to 0.05, floor 0.10, cap 0.25
// (README, "Bounds").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of a traced run (--trace 1): single layers timed
// from outside, with no bound. README lists which end-to-end metric each one
// should move, on which workload. "better" on an exact count or a
// reconciliation ratio only says which direction costs less work; they are
// diagnostics, not goals.
var perLayer = []metricSpec{
	{"torus.distpow_ns", "ns", "lower", 0},
	{"torus.encode_ns", "ns", "lower", 0},

	{"girg.generate_s", "s", "lower", 0},
	{"girg.edges", "count", "lower", 0},

	{"graph.giant_s", "s", "lower", 0},
	{"graph.morton_codes_ms", "ms", "lower", 0},
	{"graph.hub_degree", "count", "lower", 0},
	{"graph.overlay_neighbors_ns", "ns", "lower", 0},
	{"graph.overlay_edit_us", "us", "lower", 0},
	{"graph.overlay_delta", "count", "lower", 0},

	{"route.greedycsr_us", "us", "lower", 0},
	{"route.greedycsr_p99_us", "us", "lower", 0},
	{"route.hub_scan_us", "us", "lower", 0},
	{"route.scan_ns_per_neighbor", "ns", "lower", 0},
	{"route.neighbors_scored_per_episode", "count", "lower", 0},
	{"route.hops_per_episode", "count", "lower", 0},
	{"route.allocs_per_episode", "count", "lower", 0},
	{"route.delivered_ratio", "ratio", "higher", 0},
	{"route.overlay_greedy_us", "us", "lower", 0},
	{"route.partial_greedy_us", "us", "lower", 0},

	{"core.episode_us", "us", "lower", 0},
	{"core.episode_self_us", "us", "lower", 0},
	{"core.milgram50_ms", "ms", "lower", 0},

	{"serve.handler_us", "us", "lower", 0},
	{"serve.handler_self_us", "us", "lower", 0},
	{"serve.handler_allocs", "count", "lower", 0},
	{"serve.codec_us", "us", "lower", 0},
	{"serve.batch64_us_per_query", "us", "lower", 0},
	{"serve.loopback_us", "us", "lower", 0},
	{"serve.wire_self_us", "us", "lower", 0},
	{"serve.queue_us_mean", "us", "lower", 0},
	{"serve.route_us_mean", "us", "lower", 0},
	{"serve.shed_ratio", "ratio", "lower", 0},
	{"serve.retries_per_query", "count", "lower", 0},
	{"serve.c2_qps", "1/s", "higher", 0},
	{"serve.open_p50_ms", "ms", "lower", 0},
	{"serve.open_p99_ms", "ms", "lower", 0},
	{"serve.open_late_p99_ms", "ms", "lower", 0},
	{"serve.open_within_limit_ratio", "ratio", "higher", 0},

	{"cluster.request_us", "us", "lower", 0},
	{"cluster.hop_self_us", "us", "lower", 0},
	{"cluster.tax_ratio", "ratio", "lower", 0},
	{"cluster.forwards_per_query", "count", "lower", 0},
	{"cluster.local_share", "ratio", "higher", 0},
	{"cluster.forward_us_per_forward", "us", "lower", 0},
	{"cluster.request_allocs", "count", "lower", 0},
	{"cluster.ownersof_ns", "ns", "lower", 0},
	{"cluster.r2_request_us", "us", "lower", 0},
	{"cluster.unreachable_ratio", "ratio", "lower", 0},

	{"mutate.encode_us", "us", "lower", 0},
	{"mutate.apply_us", "us", "lower", 0},
	{"mutate.http_ack_us", "us", "lower", 0},
	{"mutate.ack_p90_ms", "ms", "lower", 0},
	{"mutate.replay_s", "s", "lower", 0},
	{"mutate.compact_s", "s", "lower", 0},
	{"mutate.rejected_ratio", "ratio", "lower", 0},

	{"obs.spans_on_handler_us", "us", "lower", 0},

	{"load.p99_ms", "ms", "lower", 0},

	{"bench.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.reconcile_route_ratio", "ratio", "lower", 0},
	{"bench.host_ref_ms", "ms", "lower", 0},
	{"bench.windows", "count", "higher", 0},
	{"bench.samples", "count", "higher", 0},
}
