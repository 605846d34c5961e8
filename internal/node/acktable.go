package node

import (
	"math/rand"
	"sync"
)

// DefaultAckStaleness is how many of the owner's do-forever ticks a
// recorded GOSSIPack stays fresh. It bounds two quantities at once: a
// peer is gossiped in full at least once per staleness window even when
// nothing changed (so a corrupted or stale table costs at most one
// window of suppression, never safety), and in the idle steady state the
// per-peer gossip rate drops from one send per tick to roughly one per
// window — the bandwidth reduction the deltagossip bench measures.
const DefaultAckStaleness = 8

// AckState is what a peer last echoed about its own indices via a
// GOSSIPack: the timestamp of its own register entry, its own snapshot
// operation index, and whether its own pending snapshot task already has
// a final result. Everything the gossip builders need to decide whether a
// send would tell the peer anything new.
type AckState struct {
	TS   int64
	SNS  int64
	Done bool
}

// Dominates reports whether a peer that acked a covers everything a send
// described by b would carry: nothing in b exceeds a.
func (a AckState) Dominates(b AckState) bool {
	return a.TS >= b.TS && a.SNS >= b.SNS && (a.Done || !b.Done)
}

type ackEntry struct {
	st    AckState
	tick  int64 // owner tick at which the ack was recorded
	valid bool
}

// AckTable is the bounded per-peer ack table behind delta gossip: one
// fixed-size entry per peer recording the peer's last GOSSIPack and when
// it arrived (in owner ticks). The table is soft state in the
// self-stabilization sense — it only ever suppresses redundant gossip,
// and every entry expires after a staleness window, so arbitrary
// corruption delays full repair gossip by at most one window and can
// never violate safety. Safe for concurrent use: Record runs on the
// dispatcher goroutine while Advance/Fresh run on the tick goroutine.
type AckTable struct {
	mu        sync.Mutex
	ent       []ackEntry
	tick      int64
	staleness int64
}

// NewAckTable creates a table for n peers with the given staleness window
// in owner ticks (<=0 selects DefaultAckStaleness).
func NewAckTable(n int, staleness int64) *AckTable {
	if staleness <= 0 {
		staleness = DefaultAckStaleness
	}
	return &AckTable{ent: make([]ackEntry, n), staleness: staleness}
}

// Advance moves the table's tick counter forward; the owner calls it once
// per do-forever iteration before consulting Fresh.
func (a *AckTable) Advance() {
	a.mu.Lock()
	a.tick++
	a.mu.Unlock()
}

// Record stores peer's latest ack. Overwrites unconditionally: a
// regression in the acked indices (the peer lost state) must become
// visible to the next Fresh check, not be masked by an older, larger ack.
func (a *AckTable) Record(peer int, st AckState) {
	a.mu.Lock()
	if peer >= 0 && peer < len(a.ent) {
		a.ent[peer] = ackEntry{st: st, tick: a.tick, valid: true}
	}
	a.mu.Unlock()
}

// Fresh returns peer's last acked state and whether it is still within
// the staleness window. A stale, invalid or out-of-range entry returns
// ok=false — the caller must fall back to full gossip. An entry claiming
// a receipt tick in the future is illegal state (only corruption writes
// those) and is erased on sight, so it cannot ride the advancing tick
// counter to outlive the window.
func (a *AckTable) Fresh(peer int) (AckState, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if peer < 0 || peer >= len(a.ent) {
		return AckState{}, false
	}
	e := a.ent[peer]
	if e.tick > a.tick {
		a.ent[peer] = ackEntry{}
		return AckState{}, false
	}
	if !e.valid || a.tick-e.tick >= a.staleness {
		return AckState{}, false
	}
	return e.st, true
}

// Reset invalidates every entry. Repair events call it (ts-repair,
// transient-fault, detectable-restart, global-reset): after any local
// repair the node's view of what peers know is suspect, so the next tick
// falls back to full-vector gossip everywhere.
func (a *AckTable) Reset() {
	a.mu.Lock()
	for i := range a.ent {
		a.ent[i] = ackEntry{}
	}
	a.mu.Unlock()
}

// Corrupt fills the table with arbitrary values — the transient-fault
// nemesis for the stabilization obligation. Entries claim random (often
// huge) acked indices at random ticks, the worst case for a table whose
// job is to justify *not* sending repair gossip.
func (a *AckTable) Corrupt(rng *rand.Rand) {
	a.mu.Lock()
	for i := range a.ent {
		a.ent[i] = ackEntry{
			st: AckState{
				TS:   rng.Int63(),
				SNS:  rng.Int63(),
				Done: rng.Intn(2) == 0,
			},
			tick:  a.tick + rng.Int63n(2*a.staleness+1) - a.staleness,
			valid: rng.Intn(4) != 0,
		}
	}
	a.mu.Unlock()
}
