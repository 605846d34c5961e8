package bench

import (
	"fmt"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Delta-gossip measurement windows, in do-forever loop ticks. The settle
// window lets every node learn its peers' first acks and reach suppression
// steady state; the measured window then spans several ack-staleness
// periods so the periodic full-refresh traffic is averaged in, not dodged.
const (
	dgSettleTicks  = 24
	dgMeasureTicks = 36
)

// dgBytesPerTick runs an idle n-node cluster with ν-byte register values
// on a virtual clock and returns two cluster-wide gossip bandwidths over
// the measured window, in bytes per loop tick. delta is what delta gossip
// sends (TGossip + TGossipAck). full is what the paper's full-vector gossip
// sends: each per-peer decision (full, delta or suppressed) is one of its
// n(n−1) GOSSIP messages per tick, and each of those is the size of a full
// send. The virtual clock makes both an exact deterministic function of
// (n, ν), which TestClaims pins exactly.
func dgBytesPerTick(n, payload int) (full, delta float64) {
	simulate("deltagossip", func(v *simclock.Virtual) {
		cfg := fastCfg(v, core.NonBlockingSS, n, 9000+int64(n)+int64(payload))
		c := mustCluster(cfg)
		defer c.Close()
		for i := 0; i < n; i++ {
			mustDo(c.Write(i, value(payload, byte('a'+i%26))))
		}
		v.Sleep(dgSettleTicks * cfg.LoopInterval)
		before := c.Metrics()
		loops0 := sumLoops(c)
		v.Sleep(dgMeasureTicks * cfg.LoopInterval)
		diff := c.Metrics().Sub(before)
		ticks := float64(sumLoops(c)-loops0) / float64(n)
		full = float64(diff.GossipDecisions()) * float64(diff.GossipFullBytes) / float64(diff.GossipFull) / ticks
		delta = float64(diff.BytesOf(wire.TGossip, wire.TGossipAck)) / ticks
	})
	return full, delta
}

func sumLoops(c *core.Cluster) int64 {
	var s int64
	for _, l := range c.LoopCounts() {
		s += l
	}
	return s
}

// RunDeltaGossip measures the tentpole bandwidth claim: per-peer ack
// tracking suppresses the (overwhelmingly redundant) idle gossip traffic,
// so steady-state bytes/tick drop by roughly the ack-staleness factor
// while the periodic full-vector refresh keeps the protocol
// self-stabilizing. The table sweeps cluster size and value size.
func RunDeltaGossip() []*Table {
	t := &Table{
		ID:      "deltagossip",
		Title:   "idle gossip bandwidth: full-vector vs delta (per-peer ack tracking)",
		Keys:    2,
		Headers: []string{"n", "value B", "full B/tick", "delta B/tick", "reduction"},
	}
	for _, n := range []int{16, 64} {
		for _, payload := range []int{256, 4096} {
			full, delta := dgBytesPerTick(n, payload)
			t.AddRow(fmt.Sprint(n), fmt.Sprint(payload), f1(full), f1(delta), f1(full/delta)+"x")
		}
	}
	t.AddNote("idle cluster, virtual clock: numbers are deterministic per build")
	t.AddNote("delta mode pays one full send + one GOSSIPack per peer per staleness window (8 ticks); the paper's full-vector gossip resends every tick")
	t.AddNote("full column: the same run's per-peer gossip decisions × its full-send size, i.e. the paper's n(n−1) GOSSIP messages per tick")
	return []*Table{t}
}
