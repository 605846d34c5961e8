package kernel

import (
	"math/rand"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/wire"
)

// Gossip is the gossip layer of both algorithms (line 11/78). It keeps a
// per-peer ack table and suppresses or trims a send the peer's fresh
// GOSSIPack already covers; a missing or stale ack falls back to the
// paper's full send (Outbox.Full), so every peer keeps receiving the gossip
// that restores its state.
type Gossip struct {
	rt   *node.ObjView
	acks *node.AckTable
}

// NewGossip returns the gossip layer of the object behind rt.
func NewGossip(rt *node.ObjView) *Gossip {
	return &Gossip{rt: rt, acks: node.NewAckTable(rt.N(), node.DefaultAckStaleness)}
}

// Send gossips one iteration's payloads to every peer, tallying each
// per-peer decision (full, delta or suppressed) in the transport's
// counters. The decisions are the paper's n−1 GOSSIP sends of the
// iteration, whichever way each one went.
func (g *Gossip) Send(out Outbox) {
	g.acks.Advance()
	counters := g.rt.Counters()
	g.rt.GossipTo(func(k int) *wire.Message {
		st, fresh := g.acks.Fresh(k)
		if !fresh {
			m := out.Full(k)
			counters.RecordGossipFull(m.Size())
			return m
		}
		m := out.Delta(k, st)
		if m == nil {
			counters.RecordGossipSuppressed()
			return nil
		}
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
	ack := &wire.Message{Type: wire.TGossipAck, TS: st.TS, SNS: st.SNS}
	if st.Done {
		ack.TaskSN = 1
	}
	g.rt.Send(to, ack)
}

// Record stores an arriving GOSSIPack.
func (g *Gossip) Record(m *wire.Message) {
	g.acks.Record(int(m.From), node.AckState{TS: m.TS, SNS: m.SNS, Done: m.TaskSN != 0})
}

// Reset invalidates the ack table after a transient fault, restart or
// global reset: the next iteration gossips in full.
func (g *Gossip) Reset() { g.acks.Reset() }

// Corrupt fills the ack table with arbitrary values, the chaos nemesis for
// its stabilization obligation.
func (g *Gossip) Corrupt(rng *rand.Rand) {
	g.rt.RecordEvent("ack-corrupt", "delta-gossip ack table overwritten")
	g.acks.Corrupt(rng)
}
