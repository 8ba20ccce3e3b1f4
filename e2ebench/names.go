package main

import "fmt"

// endToEndNames are the metrics the untraced run reports on every
// workload, in BENCHMARK.json order.
var endToEndNames = []string{
	"setup_s",
	"latency_p50_ms",
	"inst_per_s",
	"cpu_ms_per_inst",
	"allocs_per_inst",
	"heap_peak_mb",
}

// sweepProtocols are the registered drivers, in sweep order; the replay
// pass reports one exec and one run figure for each.
var sweepProtocols = sweepSpec(0, 1, "").Protocols

// keydistSizes are the system sizes any workload uses; the traced run
// times one handshake at each.
var keydistSizes = []struct{ n, t int }{{4, 1}, {7, 2}, {8, 2}, {10, 3}, {16, 3}}

// layerNames are the metrics the traced run reports on every workload,
// in BENCHMARK.json order.
func layerNames() []string {
	out := []string{
		"loadgen.late_p99_ms", "loadgen.inflight_max", "calib.ed25519_sign_us",
		"transport.bytes_per_inst", "transport.frames_per_inst",
		"service.overhead_p50_ms", "service.overhead_p99_ms",
		"service.rtt_p50_ms", "service.rtt_p99_ms",
		"service.queue_p50_ms", "service.queue_p99_ms",
		"service.run_p50_ms", "service.run_p99_ms",
		"service.queued_max", "service.busy_rejects",
		"service.pool_hit_ratio", "service.pool_cells",
		"sched.leases", "sched.requeues", "sched.expired", "sched.lease_p50_ms",
	}
	for _, p := range sweepProtocols {
		out = append(out, "campaign.exec_ms."+p)
	}
	out = append(out, "campaign.score_ms_p50",
		"protocol.prepare_ms.hit", "protocol.prepare_ms.miss", "protocol.setup_hit_ratio")
	for _, p := range sweepProtocols {
		out = append(out, "protocol.run_ms."+p)
	}
	out = append(out, "ba.eig_run_ms.n16_t3")
	for _, s := range keydistSizes {
		out = append(out, fmt.Sprintf("keydist.handshake_ms.n%d", s.n))
	}
	for _, s := range keydistSizes {
		out = append(out, fmt.Sprintf("keydist.messages_per_setup.n%d", s.n))
	}
	out = append(out,
		"sig.keygen_per_inst", "sig.keygen_us", "sig.sign_per_inst", "sig.sign_us",
		"sig.test_per_inst", "sig.test_us",
		"sim.rounds_per_inst", "sim.messages_per_inst", "sim.bytes_per_inst", "sim.signed_messages_per_inst",
		"netcond.run_ms_ratio", "adversary.run_ms_ratio")
	return out
}
