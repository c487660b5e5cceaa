package main

// Workload names. Later issues cite them; do not rename.
const (
	wlKernel = "kernel-sweep"
	wlLive   = "live-paced"
	wlTCP    = "tcp-mesh"
	wlServe  = "serve-mixed"
)

// metricDef describes one metric of the benchmark's contract: its unit,
// which direction is better, the initial regression bound -compare
// applies (a share of the old median, or an absolute distance when abs
// is set) and the workloads that define it (nil: all four). This table
// is the one place a bound is written down: -calibrate widens a metric ×
// workload pair's bound from here into the result set, and
// BENCHMARK.json is generated from here (-benchmark-json).
//
// driverBound marks the end-to-end metrics every workload can report,
// which are therefore the ones BENCHMARK.json lists under end_to_end —
// the acceptance driver requires each run to print every end_to_end
// metric, so a metric only one workload defines cannot sit there. The
// others are gated by -compare against baseline.json and are carried in
// BENCHMARK.json's per_layer list so the driver still records them.
//
// Its value is the bound the driver applies: one number per metric for
// all workloads, read as a share of the parent's median, at most 0.25,
// and the driver refuses a benchmark whose spread over ten seeds is not
// inside it. So it is about three times the widest spread any batch of
// ten runs showed on any workload while the benchmark was built (README,
// "The committed baseline"), not the issue's bound: this host's CPU
// speed moves by tens of percent for minutes at a time.
type metricDef struct {
	name        string
	unit        string
	better      string // "lower" or "higher"
	bound       float64
	abs         bool
	workloads   []string
	driverBound float64
	moves       string // per-layer only: the end-to-end metric it should move
}

// endToEnd is the issue's table of thirteen end-to-end metrics.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, driverBound: 0.25},                      // the cap: the driver asks set-up for the largest bound
	{name: "cpu_ns_per_exchange", unit: "ns", better: "lower", bound: 0.10, driverBound: 0.25},         // batch spreads 2–13 %
	{name: "completion", unit: "share", better: "higher", bound: 0.005, abs: true, driverBound: 0.015}, // tcp-mesh: up to 0.41 %, one host stall is 1.4 % in one run
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, driverBound: 0.20},                 // kernel-sweep: up to 6.3 %
	{name: "rho_hat", unit: "share", better: "lower", bound: 0.05, workloads: []string{wlKernel, wlLive}},
	{name: "cycles_to_eps", unit: "cycles", better: "lower", bound: 0.10, workloads: []string{wlKernel, wlLive}},
	{name: "write_ack_ms_p50", unit: "ms", better: "lower", bound: 0.15, workloads: []string{wlServe}},
	{name: "write_visible_ms_p50", unit: "ms", better: "lower", bound: 0.10, workloads: []string{wlServe}},
	{name: "write_visible_ms_p99", unit: "ms", better: "lower", bound: 0.10, workloads: []string{wlServe}},
	{name: "query_ms_p50", unit: "ms", better: "lower", bound: 0.15, workloads: []string{wlServe}},
	{name: "step_settle_ms_p50", unit: "ms", better: "lower", bound: 0.10, workloads: []string{wlServe}},
	{name: "tracking_error_mean", unit: "share", better: "lower", bound: 0.10, workloads: []string{wlServe}},
	{name: "failed_share", unit: "share", better: "lower", bound: 0.001, abs: true},
}

// perLayer lists the traced run's metrics, grouped by this repo's
// modules. moves names the end-to-end metric (and workload) each should
// move — written down before measuring, per the README's interaction
// section.
var perLayer = []metricDef{
	// sim
	{name: "sim.cycle_ns_per_exchange_seq", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep"},
	{name: "sim.cycle_ns_per_exchange_sharded", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep"},
	{name: "sim.cycle_ns_per_exchange_n1e5", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep (cache-resident reference)"},
	{name: "sim.new_ms", unit: "ms", better: "lower", moves: "cpu_ns_per_exchange, setup_s on kernel-sweep"},
	{name: "sim.exchanges_total", unit: "count", better: "higher", moves: "cpu_ns_per_exchange on kernel-sweep (its denominator)"},
	{name: "sim.allocs_per_exchange", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep"},
	{name: "sim.heap_push_pop_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	// scenario / topology
	{name: "scenario.overhead_share", unit: "share", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep"},
	{name: "scenario.row_reduce_ns_per_node", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on kernel-sweep"},
	{name: "topology.build_ms_kregular", unit: "ms", better: "lower", moves: "setup_s, cpu_ns_per_exchange on kernel-sweep"},
	// core
	{name: "core.merge_exchange_ns_f1", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh"},
	{name: "core.merge_exchange_ns_f5", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh (summary schema)"},
	{name: "core.merge_into_ns_f1", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh"},
	// engine
	{name: "engine.initiated", unit: "count", better: "higher", moves: "completion (denominator)"},
	{name: "engine.completed", unit: "count", better: "higher", moves: "completion, cpu_ns_per_exchange (denominator)"},
	{name: "engine.nacked", unit: "count", better: "lower", moves: "completion on live-paced, tcp-mesh"},
	{name: "engine.timeouts", unit: "count", better: "lower", moves: "completion"},
	{name: "engine.late_replies", unit: "count", better: "lower", moves: "completion"},
	{name: "engine.stale_dropped", unit: "count", better: "lower", moves: "completion"},
	{name: "engine.send_errors", unit: "count", better: "lower", moves: "failed_share"},
	{name: "engine.rounds", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh"},
	{name: "engine.rounds_stolen", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	{name: "engine.exchanges_per_round", unit: "count", better: "higher", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh"},
	{name: "engine.shard_lag_ms_max", unit: "ms", better: "lower", moves: "step_settle_ms_p50 on serve-mixed; completion"},
	{name: "engine.inbox_depth_max", unit: "count", better: "lower", moves: "completion on live-paced, tcp-mesh"},
	{name: "engine.pool_miss_ratio", unit: "share", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	{name: "engine.allocs_per_exchange", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on live-paced, tcp-mesh"},
	{name: "engine.exchange_latency_us_p50", unit: "us", better: "lower", moves: "completion on live-paced, tcp-mesh"},
	{name: "engine.exchange_latency_us_p99", unit: "us", better: "lower", moves: "completion on tcp-mesh"},
	{name: "engine.trace_overhead_share", unit: "share", better: "lower", moves: "nothing end-to-end: the cost of the traced run itself"},
	{name: "engine.unattributed_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange: the budget residual ROADMAP 1(b) asks to shrink"},
	{name: "engine.saturated_exchanges_per_s", unit: "1/s", better: "higher", moves: "diagnostic only, known noisy"},
	// transport
	{name: "transport.append_binary_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.unmarshal_binary_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.append_batch_ns_per_msg", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.unmarshal_batch_ns_per_msg", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.batcher_ns_per_msg", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	{name: "transport.fabric_ns_per_msg", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	{name: "transport.tcp_ns_per_msg", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.tcp_ns_per_frame", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.frames", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.msgs_per_frame", unit: "count", better: "higher", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.tcp_bytes_per_exchange", unit: "B", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "transport.tcp_dials", unit: "count", better: "lower", moves: "setup_s, failed_share on tcp-mesh"},
	{name: "transport.send_failures", unit: "count", better: "lower", moves: "failed_share, completion on tcp-mesh"},
	{name: "transport.inbox_dropped", unit: "count", better: "lower", moves: "completion"},
	// membership
	{name: "membership.directory_sample_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on live-paced"},
	{name: "membership.gossip_sample_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "membership.gossip_observe_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "membership.gossip_digest_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange on tcp-mesh"},
	{name: "membership.observed", unit: "count", better: "higher", moves: "rho_hat once gossip membership is a paced workload"},
	{name: "membership.forgotten", unit: "count", better: "lower", moves: "completion on tcp-mesh"},
	{name: "membership.digest_dropped", unit: "count", better: "lower", moves: "rho_hat once gossip membership is a paced workload"},
	{name: "membership.view_entries_mean", unit: "count", better: "higher", moves: "rho_hat once gossip membership is a paced workload"},
	{name: "membership.view_mix", unit: "share", better: "higher", moves: "rho_hat, cycles_to_eps once gossip membership is a paced workload"},
	{name: "membership.converged_share", unit: "share", better: "higher", moves: "cycles_to_eps on tcp-mesh once it converges"},
	{name: "membership.rho_hat_mesh", unit: "share", better: "lower", moves: "rho_hat on tcp-mesh once it converges"},
	// robust / stats / metrics
	{name: "robust.admit_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange when the robust gate is installed"},
	{name: "robust.clamp_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_exchange when the robust gate is installed"},
	{name: "stats.running_add_ns", unit: "ns", better: "lower", moves: "query_ms_p50 on serve-mixed"},
	{name: "stats.mom_add_ns", unit: "ns", better: "lower", moves: "query_ms_p50 on serve-mixed (?mom= queries)"},
	{name: "metrics.scrape_us", unit: "us", better: "lower", moves: "cpu_ns_per_exchange under a live scraper"},
	// system
	{name: "system.open_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "system.close_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "system.reduce_ns_per_node", unit: "ns", better: "lower", moves: "query_ms_p50, write_visible_ms_p50 on serve-mixed"},
	{name: "system.query_us", unit: "us", better: "lower", moves: "query_ms_p50 on serve-mixed"},
	{name: "system.set_value_us_p50", unit: "us", better: "lower", moves: "write_ack_ms_p50 on serve-mixed"},
	{name: "system.set_value_us_p99", unit: "us", better: "lower", moves: "write_ack_ms_p50 on serve-mixed (first to show a longer round lock)"},
	{name: "system.watch_tick_jitter_ms_p99", unit: "ms", better: "lower", moves: "write_visible_ms_p99 on serve-mixed"},
	{name: "system.watch_reduces_per_cycle", unit: "count", better: "lower", moves: "cpu_ns_per_exchange on serve-mixed"},
	{name: "system.watch_dropped", unit: "count", better: "lower", moves: "write_visible_ms_p99 on serve-mixed"},
	// serve
	{name: "serve.post_values_us_per_value", unit: "us", better: "lower", moves: "write_ack_ms_p50 on serve-mixed"},
	{name: "serve.query_handler_us", unit: "us", better: "lower", moves: "query_ms_p50 on serve-mixed"},
	{name: "serve.sse_event_bytes", unit: "B", better: "lower", moves: "write_visible_ms_p50 on serve-mixed"},
	{name: "serve.staleness_ms_p50", unit: "ms", better: "lower", moves: "write_visible_ms_p50 on serve-mixed"},
	{name: "serve.staleness_ms_p99", unit: "ms", better: "lower", moves: "write_visible_ms_p99 on serve-mixed"},
	{name: "serve.write_ack_ms_p99", unit: "ms", better: "lower", moves: "write_ack_ms_p50 on serve-mixed (its tail)"},
	{name: "serve.query_ms_p99", unit: "ms", better: "lower", moves: "query_ms_p50 on serve-mixed (its tail)"},
	{name: "serve.events_sent", unit: "count", better: "higher", moves: "write_visible_ms_p50 on serve-mixed"},
	{name: "serve.stream_dropped", unit: "count", better: "lower", moves: "write_visible_ms_p99 on serve-mixed"},
	{name: "bench.gen_late_ms_p99", unit: "ms", better: "lower", moves: "every open-loop latency: how late the generator itself ran"},
}

// definedOn reports whether the metric is defined on the workload.
func (m metricDef) definedOn(workload string) bool {
	if m.workloads == nil {
		return true
	}
	for _, w := range m.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// driverEndToEnd returns the end-to-end metrics the acceptance driver
// reads from a --trace 0 run.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.driverBound > 0 {
			out = append(out, m)
		}
	}
	return out
}

// driverPerLayer returns what a --trace 1 run prints: the layer metrics
// plus the end-to-end metrics only some workloads define.
func driverPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		if m.driverBound == 0 {
			out = append(out, m)
		}
	}
	return out
}

// findMetric looks a metric up by name in either table.
func findMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
