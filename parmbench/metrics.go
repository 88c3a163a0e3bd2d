package main

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the single source of BENCHMARK.json's metric lists
// (TestBenchmarkJSONMatchesMetricTables keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// Per-layer units starting with "exact-" mark values the exactness audit
// (-audit) found to repeat bit-for-bit across traced runs; later changes may
// rest a count-based claim on those only.
const exactPrefix = "exact-"

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"run_s.p50", "s", "lower", 0.25},
	{"run_s.tail", "s", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.2},
	// drift.* are 1 + the mean relative error against cycle mode, so the
	// exact result reads 1 (never 0) and the bound acts on the error itself.
	{"drift.ves", "ratio", "lower", 0.25},
	{"drift.energy", "ratio", "lower", 0.25},
	{"drift.completed", "ratio", "lower", 0.25},
	{"drift.latency", "ratio", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	{Name: "noc.self_s", Unit: "s", Better: "lower"},
	{Name: "noc.route_calls", Unit: "exact-count", Better: "lower"},
	{Name: "noc.cycles_simulated", Unit: "exact-count", Better: "lower"},
	{Name: "noc.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.warmup_share", Unit: "exact-ratio", Better: "lower"},
	{Name: "noc.windows", Unit: "exact-count", Better: "lower"},
	{Name: "noc.analytic_windows", Unit: "exact-count", Better: "higher"},
	{Name: "noc.fallback_ratio", Unit: "exact-ratio", Better: "lower"},
	{Name: "noc.memo_hit_ratio", Unit: "exact-ratio", Better: "higher"},
	{Name: "chip.self_s", Unit: "s", Better: "lower"},
	{Name: "chip.psn_samples", Unit: "exact-count", Better: "lower"},
	{Name: "chip.domain_solves", Unit: "exact-count", Better: "lower"},
	{Name: "pdn.self_s", Unit: "s", Better: "lower"},
	{Name: "pdn.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pdn.us_per_solve", Unit: "us", Better: "lower"},
	{Name: "mapping.self_s", Unit: "s", Better: "lower"},
	{Name: "mapping.calls", Unit: "exact-count", Better: "lower"},
	{Name: "mapping.map_s", Unit: "s", Better: "lower"},
	{Name: "mapping.placed_ratio", Unit: "exact-ratio", Better: "higher"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.events", Unit: "exact-count", Better: "lower"},
	{Name: "core.candidates", Unit: "exact-count", Better: "lower"},
	{Name: "core.reject.deadline", Unit: "exact-count", Better: "lower"},
	{Name: "core.reject.budget", Unit: "exact-count", Better: "lower"},
	{Name: "core.reject.region", Unit: "exact-count", Better: "lower"},
	{Name: "core.stalls", Unit: "exact-count", Better: "lower"},
	{Name: "core.dropped", Unit: "exact-count", Better: "lower"},
	{Name: "appmodel.self_s", Unit: "s", Better: "lower"},
	{Name: "appmodel.generate_s", Unit: "s", Better: "lower"},
	{Name: "sched.self_s", Unit: "s", Better: "lower"},
	{Name: "runtime.self_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_mb_per_run", Unit: "MiB", Better: "lower"},
	{Name: "other.self_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower"},
}
