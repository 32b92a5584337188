package main

import (
	"sort"

	"emucheck/internal/scengen"
)

// metric is one named measure with its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, for every
// workload. Each is defined, and never zero, on all three workloads.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"outage_sim_s", "s"},
}

// cpuBuckets are the packages a CPU profile's self time is split into:
// every emucheck package, the Go runtime, encoding/json, and the rest.
var cpuBuckets = []string{
	"sim", "node", "simnet", "dummynet", "tcpsim", "guest", "firewall", "vclock",
	"apps", "metrics", "core", "xen", "notify", "ntpsim", "swap", "xfer", "storage",
	"fsmodel", "emucheck", "emulab", "sched", "timetravel", "health", "remediate",
	"fault", "scengen", "scenario", "suite", "federation", "runtime", "json", "other",
}

// simOutcomes are the simulated outcomes defined on some workloads
// only (0 elsewhere). Untraced runs print them as text; traced runs
// report them with the per-layer metrics.
var simOutcomes = []metric{
	{"swap_out_sim_s", "sim_s"},
	{"swap_in_sim_s", "sim_s"},
	{"paper_err_pct", "%"},
	{"queue_wait_sim_s", "sim_s"},
	{"mttr_sim_s", "sim_s"},
	{"makespan_sim_s", "sim_s"},
}

// perLayer lists the metrics every traced run prints, for every
// workload; a layer a workload does not exercise reads 0. Units with a
// sim_ prefix are simulated time, deterministic for a seed.
var perLayer = func() []metric {
	ms := append([]metric(nil), simOutcomes...)
	ms = append(ms, []metric{
		// sim kernel.
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.queue_depth_max", "count"},
		// Go runtime.
		{"runtime.allocs_per_event", "count"},
		{"runtime.alloc_bytes_per_event", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		// Packet path.
		{"tcpsim.segments", "count"},
		{"packet.events_per_segment", "count"},
		{"packet.host_ns_per_segment", "ns"},
		{"tcpsim.goodput_mb_s", "MB/s"},
		{"tcpsim.retransmits", "count"},
		{"tcpsim.timeouts", "count"},
		{"tcpsim.dup_data", "count"},
		// Checkpoint.
		{"core.checkpoint_host_ms", "ms"},
		{"core.ckpt_gap_us", "sim_us"},
		{"core.downtime_ms", "sim_ms"},
		{"core.suspend_skew_us", "sim_us"},
		{"core.image_mb", "MB"},
		{"core.epochs_committed", "count"},
		{"core.epochs_aborted", "count"},
		{"notify.published", "count"},
		{"notify.delivered", "count"},
		// Swap and storage.
		{"swap.out_host_ms", "ms"},
		{"swap.in_host_ms", "ms"},
		{"swap.precopy_mb", "MB"},
		{"swap.residual_mb", "MB"},
		{"swap.memory_mb", "MB"},
		{"swap.merged_mb", "MB"},
		{"swap.in_delta_mb", "MB"},
		{"swap.lazy_fill_s", "sim_s"},
		{"swap.traffic_mb", "MB"},
		{"storage.cache_hit_ratio", "ratio"},
		{"storage.local_mb", "MB"},
		{"storage.remote_mb", "MB"},
		{"storage.spill_mb", "MB"},
		// Control plane.
		{"sched.admissions", "count"},
		{"sched.preemptions", "count"},
		{"sched.utilization", "ratio"},
		{"sched.preempted_mb", "MB"},
		{"sched.decisions", "count"},
		{"sched.decision_us", "us"},
		// Recovery.
		{"health.probes", "count"},
		{"health.detections", "count"},
		{"health.detect_ms_max", "sim_ms"},
		{"remediate.remediations", "count"},
		{"remediate.retries", "count"},
		{"fault.crashes", "count"},
		{"recovery.lost_work_s", "sim_s"},
		// Front end.
		{"scengen.generate_ms", "ms"},
		{"scenario.parse_ms", "ms"},
		{"scenario.validate_ms", "ms"},
	}...)
	for _, s := range scengen.Shapes {
		ms = append(ms, metric{"scenario.run_ms." + s, "ms"})
	}
	ms = append(ms,
		metric{"suite.audit_ms", "ms"},
		// Federation.
		metric{"federation.windows", "count"},
		metric{"federation.wan_msgs", "count"},
		metric{"federation.wan_mb", "MB"},
		metric{"federation.migrations", "count"},
		metric{"federation.warmed_mb", "MB"},
	)
	for _, b := range cpuBuckets {
		ms = append(ms, metric{"cpu." + b, "%"})
	}
	return append(ms,
		metric{"trace.wall_s", "s"},
		metric{"trace.overhead_pct", "%"},
	)
}()

// median returns the middle value of vs (the mean of the two middle
// values for an even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of vs into quarters, by the
// method of Python's statistics.quantiles(vs, n=4) (exclusive).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		m := median(s)
		return m, m, m
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
