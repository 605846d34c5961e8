package main

import "time"

// workload is one named set of inputs. Every workload runs the same
// phases — set-up, verification pass, warm-up, a steady segment and a
// fault segment — and reports every end-to-end metric; the workloads
// differ in transport, algorithm, load shape and how the measured window
// is split between steady load and fault rounds.
type workload struct {
	name string
	why  string

	tcp                        bool          // tcpnet loopback mesh instead of netsim
	delta                      bool          // Algorithm 3 (δ=2) instead of Algorithm 1
	valueSize                  int           // ν, bytes per written value
	loopInterval, retxInterval time.Duration // node.Options
	minDelay, maxDelay         time.Duration // netsim per-message delay (sim only)

	// openLoopRate > 0 selects the open-loop generator at that many ops/s
	// (alternating write/snapshot, round-robin over all nodes); 0 selects
	// the closed loop of 2 clients at nodes 0 and 1, 4 writes per snapshot.
	openLoopRate int
	// steadyShare is the fraction of the measured window spent under
	// steady load; the rest is fault rounds. At 0 the operation metrics
	// are taken from the operations inside the fault rounds.
	steadyShare float64
}

var workloads = []*workload{
	{
		name:      "sim-alg1",
		why:       "Algorithm 1 on zero-delay netsim, closed loop: latency is processor time only, so node, mailbox and netsim do the work and wire does none",
		valueSize: 1024, loopInterval: time.Millisecond, retxInterval: 5 * time.Millisecond,
		steadyShare: 0.75,
	},
	{
		name: "tcp-alg1",
		why:  "same as sim-alg1 but over a tcpnet loopback mesh: wire marshal, tcpnet writer/reader and the kernel dominate; the difference to sim-alg1 is the codec+socket cost",
		tcp:  true, valueSize: 1024, loopInterval: time.Millisecond, retxInterval: 5 * time.Millisecond,
		steadyShare: 0.75,
	},
	{
		name:  "wan-alg3",
		why:   "Algorithm 3 on netsim with 0.5-1.5 ms per-message delay, open loop at 300 ops/s: latency is rounds x delay + tick waits, so CPU work must show no change here",
		delta: true, valueSize: 64, loopInterval: 2 * time.Millisecond, retxInterval: 10 * time.Millisecond,
		minDelay: 500 * time.Microsecond, maxDelay: 1500 * time.Microsecond,
		openLoopRate: 300, steadyShare: 0.75,
	},
	{
		name:  "sim-recover",
		why:   "Algorithm 3 on zero-delay netsim, back-to-back transient-fault rounds: the paper's O(1)-cycle recovery, repair paths, ack-table flush and full-gossip fallback",
		delta: true, valueSize: 1024, loopInterval: time.Millisecond, retxInterval: 5 * time.Millisecond,
		steadyShare: 0,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported metric. The lists below are the single
// source of the names; BENCHMARK.json repeats them and the smoke test
// fails when the two drift.
type metricDef struct {
	name, unit   string
	higherBetter bool
}

var endToEndMetrics = []metricDef{
	{"ops_s", "1/s", true},
	{"write_p50_us", "us", false},
	{"write_p95_us", "us", false},
	{"snap_p50_us", "us", false},
	{"snap_p95_us", "us", false},
	{"cpu_us_per_op", "us", false},
	{"msgs_per_op", "count", false},
	{"wire_bytes_per_op", "B", false},
	{"recover_mean_us", "us", false},
	{"recover_p90_us", "us", false},
	{"recover_cycles_mean", "count", false},
	{"first_op_p50_us", "us", false},
	{"setup_s", "s", false},
}

var perLayerMetrics = []metricDef{
	// Ladder: isolated real-clock calls into each module.
	{"wire.marshal_ns", "ns", false},
	{"wire.unmarshal_ns", "ns", false},
	{"wire.frame_bytes", "B", false},
	{"types.share_ns", "ns", false},
	{"types.merge_ns", "ns", false},
	{"mailbox.push_pop_ns", "ns", false},
	{"mailbox.handoff_ns", "ns", false},
	{"netsim.hop_ns", "ns", false},
	{"netsim.sendmany_ns", "ns", false},
	{"tcpnet.hop_ns", "ns", false},
	{"tcpnet.sendmany_ns", "ns", false},
	{"node.call_rtt_ns.sim", "ns", false},
	{"node.call_rtt_ns.tcp", "ns", false},
	{"ladder.residue_ratio.sim", "ratio", false},
	{"ladder.residue_ratio.tcp", "ratio", false},
	{"env.spin_ns", "ns", false},
	// Traced window: spans recorded around the calls into each layer.
	{"client.op_us", "us", false},
	{"transport.send_us_per_op", "us", false},
	{"node.handle_us_per_op", "us", false},
	{"node.gossip_busy_ms_per_s", "ms/s", false},
	{"node.dispatch_busy_ratio", "ratio", false},
	{"node.dispatch_busy_ratio_max", "ratio", false},
	{"link.sojourn_p50_us", "us", false},
	{"link.sojourn_p99_us", "us", false},
	{"op.wait_us_per_op", "us", false},
	{"node.retx_per_op", "count", false},
	{"nonblocking.snap_rounds_per_op", "count", false},
	{"trace.overhead_ratio", "ratio", true},
	// Counts at the same boundaries, from the untraced reference window.
	{"msgs.request_per_op", "count", false},
	{"msgs.ack_per_op", "count", false},
	{"msgs.gossip_per_s", "1/s", false},
	{"bytes.gossip_per_s", "B/s", false},
	{"gossip.full_per_s", "1/s", false},
	{"gossip.delta_per_s", "1/s", false},
	{"gossip.suppressed_per_s", "1/s", true},
	{"deltasnap.ticks_per_snap", "count", false},
	{"recover.p99_us", "us", false},
	{"recover.gossip_full_per_fault", "count", false},
	{"recover.bytes_per_fault", "B", false},
	{"recover.timeout_count", "count", false},
	{"transport.drops", "count", false},
	{"transport.dups", "count", false},
	{"transport.evictions", "count", false},
	{"tcpnet.reconnects", "count", false},
	{"tcpnet.write_failures", "count", false},
	{"node.invalid_msgs", "count", false},
	{"gen.lag_p50_us", "us", false},
	{"gen.lag_p99_us", "us", false},
	{"gen.backlog_max", "count", false},
	{"proc.allocs_per_op", "count", false},
	{"proc.alloc_bytes_per_op", "B", false},
	{"proc.gc_pause_ms_per_s", "ms/s", false},
	{"proc.heap_mb", "MB", false},
	{"proc.cpu_ms_per_s", "ms/s", false},
	{"op.write_p99_us", "us", false},
	{"op.snap_p99_us", "us", false},
	{"op.write_p999_us", "us", false},
	{"op.snap_p999_us", "us", false},
}
