package main

// The benchmark's names. BENCHMARK.json at the repository root repeats
// the workloads, the end-to-end metrics with their bounds, and the
// per-layer metrics; smoke_test.go fails if the two drift apart.

type metricSpec struct {
	name, unit string
	// bound is the share of the parent's median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression (0 for per-layer metrics: they explain, they do not
	// gate).
	bound float64
	// higher marks metrics where more is better.
	higher bool
}

// endToEnd are the metrics a user of the system would see. Every
// workload prints every one of them (the driver's contract), and each
// means the same thing on each: latencies count from the op's intended
// send instant, which in a closed loop is the call and in kv-tcp-open's
// open loop the scheduled arrival.
//
// kv-tcp-open's end-to-end pass runs at its lowest rate r1 only — the
// unloaded TCP latency — so the ISSUE's open_p50_us_r1 / open_p99_us_r1
// are (p50_us, kv-tcp-open) / (p99_us, kv-tcp-open) here. The four
// open_* names live on as per-layer metrics of the rate sweep: the p99
// of the loaded steps r2 and r3 cannot carry a bound in this sandbox
// (a 0.8 s slice's p99 at 12 500 ops/s is decided by whether it held
// one 10 ms scheduling hiccup, and the median of five such slices
// spread 33% over ten undisturbed runs, above the contract's largest
// bound), and a metric that cannot be brought inside its bound is
// reported, not gated — as the ISSUE itself does with
// bench.max_rate_ok_ops_s.
//
// cpu_us_per_op (user+sys CPU over the window / completed ops, the
// ISSUE's definition) is not in this list either: on
// kv-tcp-durable-put three quarters of it is the sandbox file system's
// kernel time, and it spread 19–33% over ten runs of a quiet quarter
// hour (its user part alone: 26%), at or above the largest bound the
// contract admits — and a gated metric is gated on every workload. It
// is a per-layer metric, with its kernel part go.sys_cpu_us_per_op
// beside it, and every end-to-end pass prints both per slice.
//
// Every bound is the contract's maximum, 0.25: what this sandbox's
// run-to-run spread permits, not the 10–15% the ISSUE hoped for. Every
// metric is therefore unresolved at the ISSUE's bound: see README,
// "Bounds".
//
// failed_share is not in this list: it is 0 on every accepted run and
// a bound relative to 0 gates nothing. It is the failed/attempted pair
// of the result line (and the exit code), and bench.failed_share below.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_ops_s", unit: "1/s", bound: 0.25, higher: true},
	{name: "p50_us", unit: "us", bound: 0.25},
	{name: "p99_us", unit: "us", bound: 0.25},
}

// perLayer are the single-layer metrics, named after the module they
// measure. A layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{name: "core.tracker_round_ns", unit: "ns"},
	{name: "core.contained_quorum_ns", unit: "ns"},
	{name: "auth.hmac_sign_ns", unit: "ns"},
	{name: "auth.hmac_verify_ns", unit: "ns"},
	{name: "auth.rejected_acks", unit: "count"},
	{name: "transport.mem_rtt_ns", unit: "ns"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.codec_ns_per_msg", unit: "ns"},
	{name: "transport.codec_bytes_per_msg", unit: "count"},
	{name: "transport.send_call_us", unit: "us"},
	{name: "transport.req_flight_us", unit: "us"},
	{name: "transport.ack_flight_us", unit: "us"},
	{name: "transport.frames_per_op", unit: "count", higher: false},
	{name: "transport.piggyback_share", unit: "%", higher: true},
	{name: "transport.credit_stall_us_per_op", unit: "us"},
	{name: "transport.inbox_stall_us_per_op", unit: "us"},
	{name: "transport.resent_per_kop", unit: "count"},
	{name: "transport.drops", unit: "count"},
	{name: "storage.client_pre_send_us", unit: "us"},
	{name: "storage.client_finish_us", unit: "us"},
	{name: "storage.server_inbox_wait_us", unit: "us"},
	{name: "storage.server_turnaround_us", unit: "us"},
	{name: "storage.ack_spread_us", unit: "us"},
	{name: "storage.acks_per_send_batch", unit: "count", higher: true},
	{name: "storage.rounds_mean", unit: "count"},
	{name: "storage.one_round_share", unit: "%", higher: true},
	{name: "storage.server_probe_us", unit: "us"},
	{name: "wal.appends_per_fsync", unit: "count", higher: true},
	{name: "wal.fsync_mean_us", unit: "us"},
	{name: "wal.fsyncs_per_op", unit: "count"},
	{name: "wal.disk_bytes_per_user_byte", unit: "count"},
	{name: "wal.append_sync_probe_us", unit: "us"},
	{name: "wal.replay_us_per_krecord", unit: "us"},
	{name: "consensus.decide_w1_us", unit: "us"},
	{name: "smr.append_call_us", unit: "us"},
	{name: "smr.window_occupancy_mean", unit: "count", higher: true},
	{name: "smr.allocs_per_decision", unit: "count"},
	{name: "sim.cluster_build_ms", unit: "ms"},
	{name: "sim.preload_ms", unit: "ms"},
	{name: "go.allocs_per_op", unit: "count"},
	{name: "go.alloc_bytes_per_op", unit: "count"},
	{name: "go.gc_pause_us_per_kop", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "go.sys_cpu_us_per_op", unit: "us"},
	{name: "open_p50_us_r1", unit: "us"},
	{name: "open_p99_us_r1", unit: "us"},
	{name: "open_p99_us_r2", unit: "us"},
	{name: "open_p99_us_r3", unit: "us"},
	{name: "bench.gen_lag_p99_us", unit: "us"},
	{name: "bench.harness_ns_per_op", unit: "ns"},
	{name: "bench.trace_overhead_share", unit: "%"},
	{name: "bench.max_rate_ok_ops_s", unit: "1/s", higher: true},
	{name: "bench.budget_residual_share", unit: "%"},
	{name: "bench.failed_share", unit: "%"},
}

func inSpec(name string) bool {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return true
			}
		}
	}
	return false
}
