package main

// The benchmark's vocabulary: workloads and metrics, in the order they are
// printed. BENCHMARK.json at the repository root lists the same names; the
// package test holds the two together.

// metricDef names one metric. Better is "lower" or "higher".
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"tcp_flood_small", "32 loopback agents flood 64 B at 200/s open loop: per-frame cost (inbox, dedup, send queue, writev, read, decode) does the work, bytes do none"},
	{"tcp_tree_large", "32 agents, Plumtree, 16 KiB at 100/s from one agent: per-byte cost dominates and the flood duplicate path is bypassed, so a per-frame win must not show here"},
	{"tcp_churn", "tcp_flood_small while one of 32 agents is closed and replaced every second: dial, watch, redial, drain, NeighborDown, view repair and join walks instead of a steady stream"},
	{"sim_flood_sharded", "10000-node HyParView flood on the 2-shard wave/barrier engine: trivial handlers, so netsim's parallel path does the work"},
	{"sim_massfail_heap", "10000 nodes on the default heap engine, repeated kill-80%/heal/revive episodes: the paper's headline; core repair, view ops and netsim fail/revive dominate"},
}

// endToEnd metrics are what a user of the overlay sees. Every workload
// reports all of them, from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"goodput_dps", "1/s", "higher"},
	{"cpu_us_per_delivery", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"delivered_share", "share", "higher"},
}

// perLayer metrics come from a traced run. A layer that is off a workload's
// path reports 0 there.
var perLayer = []metricDef{
	{"msg.encode_ns", "ns", "lower"},
	{"msg.decode_ns", "ns", "lower"},
	{"msg.wire_bytes_per_frame", "B", "lower"},
	{"msg.decode_allocs", "count", "lower"},

	{"view.sample_ns", "ns", "lower"},
	{"view.append_except_ns", "ns", "lower"},
	{"roundcache.hit_ns", "ns", "lower"},
	{"roundcache.add_evict_ns", "ns", "lower"},
	{"idset.contains_ns", "ns", "lower"},

	{"core.join_us", "us", "lower"},
	{"core.cycle_us_per_node", "us", "lower"},
	{"core.events_per_cycle_per_node", "count", "lower"},
	{"core.heal_ms", "ms", "lower"},
	{"core.heal_cycles", "count", "lower"},
	{"core.promotions", "count", "lower"},
	{"core.peer_failures", "count", "lower"},
	{"core.neighbor_rejects", "count", "lower"},
	{"core.active_degree_mean", "count", "higher"},

	{"gossip.dup_per_delivery", "count", "lower"},
	{"gossip.forwards_per_broadcast", "count", "lower"},
	{"gossip.send_fails", "count", "lower"},

	{"plumtree.dup_per_delivery", "count", "lower"},
	{"plumtree.ihave_per_delivery", "count", "lower"},
	{"plumtree.grafts_per_broadcast", "count", "lower"},
	{"plumtree.prunes_per_broadcast", "count", "lower"},
	{"plumtree.timer_fires_per_broadcast", "count", "lower"},

	{"netsim.ns_per_event", "ns", "lower"},
	{"netsim.events_per_broadcast", "count", "lower"},
	{"netsim.allocs_per_broadcast", "count", "lower"},
	{"netsim.heap_bytes_per_node", "B", "lower"},
	{"netsim.build_us_per_node", "us", "lower"},
	{"netsim.fail_revive_us", "us", "lower"},
	{"netsim.dropped", "count", "lower"},
	{"netsim.overflowed", "count", "lower"},

	{"transport.frames_per_delivery", "count", "lower"},
	{"transport.frames_per_write", "count", "higher"},
	{"transport.batched_write_share", "share", "higher"},
	{"transport.frames_per_read", "count", "higher"},
	{"transport.overflowed", "count", "lower"},
	{"transport.pair_rtt_us", "us", "lower"},
	{"transport.send_call_ns", "ns", "lower"},
	{"transport.dial_us", "us", "lower"},
	{"transport.redials_per_kill", "count", "lower"},
	{"transport.drained_per_kill", "count", "higher"},
	{"transport.suspected", "count", "lower"},
	{"transport.close_ms", "ms", "lower"},

	{"agent.broadcast_call_us", "us", "lower"},
	{"agent.probe_rtt_us", "us", "lower"},
	{"agent.actor_overhead_us", "us", "lower"},
	{"agent.first_delivery_p50_us", "us", "lower"},
	{"agent.completion_p50_us", "us", "lower"},
	{"agent.latency_p99_us", "us", "lower"},

	{"sim.build_s", "s", "lower"},
	{"sim.stabilize_s", "s", "lower"},

	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.samples", "count", "higher"},
	{"bench.stranded_sources", "count", "lower"},
	{"bench.host_factor", "ratio", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// profile scales a workload. full is what BENCHMARK.json measures; quick is
// the same code at a size the package test can afford (8 agents × 1 s, 500
// simulated nodes).
type profile struct {
	agents     int     // TCP overlay size
	sliceSecs  float64 // schedule time per TCP slice
	joinGapMs  int     // ms between the setup's joins
	cycleGapMs int     // ms between the setup's manual cycles
	warmup     int     // paced warm-up broadcasts
	churnSecs  float64 // seconds between churn episodes, and per slice of a churn window
	graceSecs  float64 // eligibility margin around join and close
	simN       int     // simulated cluster size
	floodPerS  int     // sim_flood_sharded broadcasts per second of -seconds
	episodes   float64 // sim_massfail_heap episodes per second of -seconds
	microIter  int     // iterations of each micro loop
}

var (
	fullProfile = profile{
		agents: 32, sliceSecs: 1, joinGapMs: 10, cycleGapMs: 50, warmup: 300,
		churnSecs: 1, graceSecs: 1,
		simN: 10000, floodPerS: 67, episodes: 24.0 / 18, microIter: 100000,
	}
	quickProfile = profile{
		agents: 8, sliceSecs: 0.1, joinGapMs: 2, cycleGapMs: 5, warmup: 20,
		churnSecs: 0.25, graceSecs: 0.1,
		simN: 500, floodPerS: 60, episodes: 4, microIter: 2000,
	}
)
