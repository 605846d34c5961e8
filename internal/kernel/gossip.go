package kernel

import (
	"math/rand"
	"sync/atomic"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/wire"
)

// Gossip is the gossip layer of both algorithms (line 11/78). Delta gossip
// keeps a per-peer ack table and suppresses or trims a send the peer's
// fresh GOSSIPack already covers; a missing or stale ack falls back to the
// paper's full send. Full gossip has no table and sends no GOSSIPack.
type Gossip struct {
	rt   *node.ObjView
	acks *node.AckTable // nil: full gossip

	// Per-peer send decisions; metrics.Counters holds the cluster total.
	full, delta, suppressed atomic.Int64
}

// AckStats is a point-in-time copy of one node's gossip-decision tallies.
type AckStats struct {
	Full       int64
	Delta      int64
	Suppressed int64
}

// NewGossip returns the gossip layer of the object behind rt. full selects
// the paper's full per-peer gossip; it is the only place the choice is
// made.
func NewGossip(rt *node.ObjView, full bool) *Gossip {
	g := &Gossip{rt: rt}
	if !full {
		g.acks = node.NewAckTable(rt.N(), node.DefaultAckStaleness)
	}
	return g
}

// Send gossips one iteration's payloads to every peer, tallying each
// per-peer decision (full, delta or suppressed) here and in the
// transport's counters.
func (g *Gossip) Send(out Outbox) {
	if g.acks == nil {
		g.rt.GossipTo(out.Full)
		return
	}
	g.acks.Advance()
	counters := g.rt.Counters()
	g.rt.GossipTo(func(k int) *wire.Message {
		st, fresh := g.acks.Fresh(k)
		if !fresh {
			m := out.Full(k)
			g.full.Add(1)
			counters.RecordGossipFull(m.Size())
			return m
		}
		m := out.Delta(k, st)
		if m == nil {
			g.suppressed.Add(1)
			counters.RecordGossipSuppressed()
			return nil
		}
		g.delta.Add(1)
		counters.RecordGossipDelta(m.Size())
		return m
	})
}

// Repaired journals a Clean's repairs. After any but a dropped vector
// clock, the acks describe a state this node no longer trusts, so the next
// iteration gossips in full.
func (g *Gossip) Repaired(r Repairs) {
	if r&RepairTS != 0 {
		g.rt.RecordEvent("ts-repair", "raised ts to own register write index")
	}
	if r&RepairPnd != 0 {
		g.rt.RecordEvent("pndtsk-repair", "own pending-task entry disagreed with sns")
	}
	if r&^RepairVC != 0 {
		g.Reset()
	}
}

// Echo answers a GOSSIP from peer `to` with st, the post-merge own indices,
// so the sender can skip re-gossiping what this node already holds.
func (g *Gossip) Echo(to int, st node.AckState) {
	if g.acks == nil {
		return
	}
	ack := &wire.Message{Type: wire.TGossipAck, TS: st.TS, SNS: st.SNS}
	if st.Done {
		ack.TaskSN = 1
	}
	g.rt.Send(to, ack)
}

// Record stores an arriving GOSSIPack.
func (g *Gossip) Record(m *wire.Message) {
	if g.acks != nil {
		g.acks.Record(int(m.From), node.AckState{TS: m.TS, SNS: m.SNS, Done: m.TaskSN != 0})
	}
}

// Reset invalidates the ack table after a transient fault, restart or
// global reset: the next iteration gossips in full.
func (g *Gossip) Reset() {
	if g.acks != nil {
		g.acks.Reset()
	}
}

// Stats returns the per-peer gossip-decision tallies (zero under full
// gossip).
func (g *Gossip) Stats() AckStats {
	return AckStats{Full: g.full.Load(), Delta: g.delta.Load(), Suppressed: g.suppressed.Load()}
}

// Corrupt fills the ack table with arbitrary values, the chaos nemesis for
// its stabilization obligation. It reports false, and draws nothing, under
// full gossip, which has no table.
func (g *Gossip) Corrupt(rng *rand.Rand) bool {
	if g.acks == nil {
		return false
	}
	g.rt.RecordEvent("ack-corrupt", "delta-gossip ack table overwritten")
	g.acks.Corrupt(rng)
	return true
}
