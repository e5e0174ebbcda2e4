package main

// metric names one reported number and its unit. The lists below must
// match BENCHMARK.json's end_to_end and per_layer lists name for name and
// unit for unit; the smoke test enforces it. Which end-to-end metric each
// per-layer metric should move, and on which workload, is tabulated in
// bench/README.md.
type metric struct {
	name, unit string
}

// endToEnd is what an untraced run (-trace 0) prints. Every time is host
// time; simulated results are checks, not metrics.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"sims_per_s", "sims/s"},
	{"minst_per_s", "Minst/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run (-trace 1) prints. Times are host time
// summed over the replay of every call of the campaign, except where the
// name says otherwise. A layer the workload never calls reports zero.
var perLayer = []metric{
	{"ooo.run_ms", "ms"},
	{"ooo.minst_per_s", "Minst/s"},
	{"ooo.new_ms", "ms"},
	{"ooo.calls", "count"},

	{"deg.build_ms", "ms"},
	{"deg.path_ms", "ms"},
	{"deg.attr_ms", "ms"},
	{"deg.merge_ms", "ms"},
	{"deg.edges", "count"},
	{"deg.path_over_sim", "ratio"},
	{"deg.windowed_ms", "ms"},
	{"deg.fused_ms", "ms"},
	{"deg.overlap_ratio", "ratio"},
	{"deg.windows", "count"},
	{"deg.peak_edges", "count"},
	{"deg.peak_buffered", "count"},

	{"dse.eval_ms_p50", "ms"},
	{"dse.eval_ms_p90", "ms"},
	{"dse.eval_n", "count"},
	{"dse.evals", "count"},
	{"dse.probes", "count"},
	{"dse.cache_hit_ratio", "ratio"},
	{"dse.stage_trace_s", "s"},
	{"dse.stage_sim_s", "s"},
	{"dse.stage_power_s", "s"},
	{"dse.stage_deg_s", "s"},
	{"dse.stage_deg_stream_s", "s"},
	{"dse.worker_util", "ratio"},
	{"dse.replay_coverage", "ratio"},

	{"selfdeg.deg_frac", "fraction"},
	{"selfdeg.sim_frac", "fraction"},
	{"selfdeg.deg_stream_frac", "fraction"},
	{"selfdeg.slot_wait_frac", "fraction"},
	{"selfdeg.barrier_frac", "fraction"},
	{"selfdeg.decide_frac", "fraction"},

	{"mcpat.eval_ms", "ms"},
	{"pareto.hv_ms", "ms"},
	{"persist.save_ms", "ms"},
	{"persist.bytes", "bytes"},

	{"obs.trace_overhead", "ratio"},
	{"obs.journal_events", "count"},
}

// paperPathOverSim is the paper's Footnote 5 yardstick: longest-path
// evaluation costs 2.24% of simulation time. deg.path_over_sim is printed
// beside it.
const paperPathOverSim = 0.0224
