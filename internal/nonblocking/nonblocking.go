// Package nonblocking implements the paper's Algorithm 1: the
// self-stabilizing variation of Delporte-Gallet et al.'s non-blocking
// snapshot object for asynchronous crash-prone message-passing systems.
//
// Write operations always terminate (at any node that does not crash
// mid-operation); snapshot operations terminate once no write runs
// concurrently — the non-blocking guarantee. Each write or snapshot costs
// O(n) messages of O(n·ν) bits. The self-stabilizing additions — the boxed
// lines of the paper's listing — are:
//
//   - a do-forever loop that (i) discards stale snapshot acknowledgments,
//     (ii) enforces ts ≥ reg[i].ts, and (iii) gossips reg[k] (O(ν) bits) to
//     each p_k, giving O(n²) gossip messages per cycle overall;
//   - merging arriving ts values into the local write index so a corrupted
//     (too-small) ts recovers within O(1) cycles (Theorem 1).
//
// Config.SelfStabilizing=false disables exactly those additions, yielding
// the original Delporte-Gallet et al. Algorithm 1 used as the baseline in
// experiments E1–E3.
package nonblocking

import (
	"math/rand"
	"sync"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node of the protocol.
type Config struct {
	// SelfStabilizing enables the paper's boxed additions (gossip and index
	// hygiene). False yields the Delporte-Gallet et al. baseline.
	SelfStabilizing bool
	// FullGossip disables delta gossip: every tick sends the full per-peer
	// entry regardless of what the peer acknowledged, as in the paper's
	// listing. The zero value (delta gossip on) suppresses sends the
	// peer's fresh GOSSIPack already dominates.
	FullGossip bool
	// Runtime tuning forwarded to the node runtime.
	Runtime node.Options
}

// Node is one participant. Create with New, then Start. Write and Snapshot
// may be called concurrently from any goroutine; operations of the same
// node are internally serialised, matching the paper's one-client-per-node
// model.
type Node struct {
	rt  *node.ObjView
	cfg Config
	id  int
	n   int

	opMu sync.Mutex // serialises this node's client operations

	mu  sync.Mutex // guards the algorithm state below
	ts  int64      // write-operation index
	ssn int64      // snapshot query index
	reg types.RegVector

	// acks is the delta-gossip ack table (nil when self-stabilization is
	// off or FullGossip requested). It has its own lock and is soft state:
	// resetting it on every repair event costs only extra gossip.
	acks *node.AckTable
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{cfg: cfg, id: id, n: tr.N(), reg: types.NewRegVector(tr.N())}
	if cfg.SelfStabilizing && !cfg.FullGossip {
		nd.acks = node.NewAckTable(tr.N(), node.DefaultAckStaleness)
	}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	return nd
}

// AckStats returns this node's gossip-mode tallies (zero when delta
// gossip is disabled).
func (nd *Node) AckStats() node.AckStats {
	if nd.acks == nil {
		return node.AckStats{}
	}
	return nd.acks.Stats()
}

// CorruptAckTable fills the delta-gossip ack table with arbitrary values —
// the chaos nemesis for the stabilization obligation. No-op when delta
// gossip is disabled.
func (nd *Node) CorruptAckTable(rng *rand.Rand) {
	if nd.acks == nil {
		return
	}
	nd.rt.RecordEvent("ack-corrupt", "delta-gossip ack table overwritten")
	nd.acks.Corrupt(rng)
}

// Start launches the node's goroutines.
func (nd *Node) Start() { nd.rt.Start() }

// Close permanently stops the node.
func (nd *Node) Close() { nd.rt.Close() }

// Runtime exposes the lifecycle controls (crash/resume) and counters.
func (nd *Node) Runtime() *node.Runtime { return nd.rt.Runtime }

// Write performs the write(v) operation (Algorithm 1 lines 12–16): install
// (v, ts+1) locally, then repeat-broadcast WRITE(lReg) until a majority
// acknowledges a register vector ⪰ lReg, and merge the replies.
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.ts++
	// Clone the caller's value once at the API boundary — from here on the
	// payload is immutable and every path shares it by reference.
	nd.reg[nd.id] = types.TSValue{TS: nd.ts, Val: types.Freeze(v.Clone())}
	lReg := nd.reg.Share()
	nd.mu.Unlock()

	recs, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TWrite, Reg: lReg}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TWriteAck && lReg.LessEq(m.Reg)
		},
	})
	if err != nil {
		return err
	}
	nd.merge(recs)
	return nil
}

// Snapshot performs the snapshot() operation (Algorithm 1 lines 17–23):
// repeatedly query a majority with a fresh ssn until the register vector is
// unchanged across one round — indicating no concurrent write — and return
// it. It blocks for as long as writes keep landing (non-blocking algorithm:
// termination is guaranteed only after writes cease).
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	for {
		nd.mu.Lock()
		prev := nd.reg.Share()
		nd.ssn++
		ssn := nd.ssn
		nd.mu.Unlock()

		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				// Share, not deep-clone: Build runs once per retransmission
				// round, so an O(n·ν) copy here multiplies with retries.
				nd.mu.Lock()
				reg := nd.reg.Share()
				nd.mu.Unlock()
				return &wire.Message{Type: wire.TSnapshot, Reg: reg, SSN: ssn}
			},
			Accept: func(m *wire.Message) bool {
				// Client-side ssn filtering (paper line 20): replies whose
				// ssn does not match the current query are ignored, which
				// also discards acks that predate a transient fault.
				return m.Type == wire.TSnapshotAck && m.SSN == ssn
			},
		})
		if err != nil {
			return nil, err
		}
		nd.merge(recs)

		nd.mu.Lock()
		done := nd.reg.Equal(prev)
		res := nd.reg.Share()
		nd.mu.Unlock()
		if done {
			return res, nil
		}
	}
}

// merge implements the macro merge(Rec) (lines 5–7): fold every received
// register vector into the local one, and — in the self-stabilizing variant
// — raise ts to the largest own-entry write index seen.
func (nd *Node) merge(recs []*wire.Message) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, m := range recs {
		nd.reg.MergeFrom(m.Reg)
	}
	if nd.cfg.SelfStabilizing {
		if own := nd.reg[nd.id].TS; own > nd.ts {
			nd.ts = own
		}
	}
}

// Tick is the do-forever loop body (lines 8–11). The Delporte-Gallet
// baseline has no do-forever loop, so it is a no-op there. Stale
// SNAPSHOTack deletion (line 9) is realised structurally: acknowledgment
// collectors match on the exact current ssn and are dismantled when the
// call returns, so replies to any other ssn are never stored.
func (nd *Node) Tick() {
	if !nd.cfg.SelfStabilizing {
		return
	}
	nd.mu.Lock()
	repaired := false
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own // line 10: ts ← max{ts, reg[i].ts}
		repaired = true
	}
	gossip := nd.reg.Share()
	nd.mu.Unlock()
	if repaired {
		// ts lagging the own register write index is the footprint of a
		// transient fault or restart — normal operation keeps ts ahead.
		nd.rt.RecordEvent("ts-repair", "raised ts to own register write index")
		if nd.acks != nil {
			nd.acks.Reset() // suspect state: next tick gossips in full
		}
	}

	// Line 11: send GOSSIP(reg[k]) to each p_k ≠ p_i — O(ν) bits each,
	// telling every node what we believe its own register holds. With
	// delta gossip the send is elided when p_k's fresh GOSSIPack already
	// dominates the entry; a missing or stale ack falls back to the full
	// per-tick send of the paper's listing.
	if nd.acks == nil {
		nd.rt.GossipTo(func(k int) *wire.Message {
			return &wire.Message{Type: wire.TGossip, Entry: gossip[k]}
		})
		return
	}
	nd.acks.Advance()
	counters := nd.rt.Counters()
	nd.rt.GossipTo(func(k int) *wire.Message {
		st, fresh := nd.acks.Fresh(k)
		if fresh && st.TS >= gossip[k].TS {
			nd.acks.NoteSuppressed()
			counters.RecordGossipSuppressed()
			return nil
		}
		m := &wire.Message{Type: wire.TGossip, Entry: gossip[k]}
		if fresh {
			nd.acks.NoteDelta()
			counters.RecordGossipDelta(m.Size())
		} else {
			nd.acks.NoteFull()
			counters.RecordGossipFull(m.Size())
		}
		return m
	})
}

// HandleMessage is the server side (lines 24–31).
func (nd *Node) HandleMessage(m *wire.Message) {
	switch m.Type {
	case wire.TGossip:
		if !nd.cfg.SelfStabilizing {
			return
		}
		nd.mu.Lock()
		// Line 25: reg[i] ← max{reg[i], regJ}; ts ← max{ts, reg[i].ts}.
		// Adopt the arriving entry by reference: message payloads are
		// immutable once delivered.
		if nd.reg[nd.id].Less(m.Entry) {
			nd.reg[nd.id] = m.Entry
		}
		if own := nd.reg[nd.id].TS; own > nd.ts {
			nd.ts = own
		}
		ownTS := nd.reg[nd.id].TS
		nd.mu.Unlock()
		if nd.acks != nil {
			// Echo the post-merge own write index so the sender can skip
			// re-gossiping what this node already holds.
			nd.rt.Send(int(m.From), &wire.Message{Type: wire.TGossipAck, TS: ownTS})
		}

	case wire.TGossipAck:
		if nd.acks != nil {
			nd.acks.Record(int(m.From), node.AckState{TS: m.TS, SNS: m.SNS, Done: m.TaskSN != 0})
		}

	case wire.TWrite:
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg) // line 27
		reply := &wire.Message{Type: wire.TWriteAck, Reg: nd.reg.Share()}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply) // line 28

	case wire.TSnapshot:
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg) // line 30
		reply := &wire.Message{Type: wire.TSnapshotAck, Reg: nd.reg.Share(), SSN: m.SSN}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply) // line 31
	}
}

// Route implements node.Router for sharded dispatch. TWriteAck and
// TSnapshotAck are consumed only by the runtime's quorum-call collector
// (HandleMessage above ignores them), so they take the dedicated ack
// lane. Everything else shards by the sending node: register k is written
// only by node k, so per-sender FIFO is per-register FIFO, and the gossip
// ack table keyed by peer stays ordered per peer too.
func (nd *Node) Route(m *wire.Message) (node.Lane, int) {
	switch m.Type {
	case wire.TWriteAck, wire.TSnapshotAck:
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

// State is a copy of a node's algorithm variables, used by invariant checks
// and recovery experiments.
type State struct {
	TS  int64
	SSN int64
	Reg types.RegVector
}

// StateSummary returns a consistent copy of the node's state.
func (nd *Node) StateSummary() State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return State{TS: nd.ts, SSN: nd.ssn, Reg: nd.reg.Clone()}
}

// Corrupt models a transient fault: it overwrites every algorithm variable
// with arbitrary values drawn from rng (program code — and the node's
// identity — stay intact, per the paper's fault model §2).
func (nd *Node) Corrupt(rng *rand.Rand) {
	nd.rt.RecordEvent("transient-fault", "algorithm variables overwritten")
	if nd.acks != nil {
		nd.acks.Reset() // repaired state must be re-gossiped in full
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.ts = rng.Int63n(1 << 20)
	nd.ssn = rng.Int63n(1 << 20)
	for k := range nd.reg {
		switch rng.Intn(3) {
		case 0:
			nd.reg[k] = types.TSValue{} // erased
		case 1:
			nd.reg[k] = types.TSValue{TS: rng.Int63n(1 << 20), Val: randValue(rng)}
		case 2:
			nd.reg[k] = types.TSValue{TS: nd.reg[k].TS + rng.Int63n(64), Val: nd.reg[k].Val.Clone()}
		}
	}
}

func randValue(rng *rand.Rand) types.Value {
	v := make(types.Value, 1+rng.Intn(8))
	for i := range v {
		v[i] = byte(rng.Intn(256))
	}
	return v
}

// LocalInvariantHolds checks Theorem 1's per-node part: ts is not smaller
// than the node's own register write index.
func (nd *Node) LocalInvariantHolds() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.ts >= nd.reg[nd.id].TS
}

// RestartDetectable performs the paper's detectable restart: the node
// crashes, re-initialises all of its variables (including control
// variables), loses its channel content, and resumes. Its own past writes
// survive only in the other nodes' registers — and flow back via gossip in
// the self-stabilizing variant.
func (nd *Node) RestartDetectable() {
	nd.rt.RecordEvent("detectable-restart", "variables re-initialised, channels drained")
	nd.rt.RestartDetectable(func() {
		nd.mu.Lock()
		nd.ts, nd.ssn = 0, 0
		nd.reg = types.NewRegVector(nd.n)
		nd.mu.Unlock()
		if nd.acks != nil {
			nd.acks.Reset()
		}
	})
}

// MaxIndex returns the largest operation index in the node's state —
// max over ts, ssn and every register entry's write index. The
// bounded-counter variation (§5) watches it against MAXINT.
func (nd *Node) MaxIndex() int64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	m := nd.ts
	if nd.ssn > m {
		m = nd.ssn
	}
	if r := nd.reg.MaxTS(); r > m {
		m = r
	}
	return m
}

// RegSnapshot returns a shared-structure snapshot of the node's register
// vector (used by the bounded-counter reset to converge all nodes to
// identical registers; polled every watcher tick).
func (nd *Node) RegSnapshot() types.RegVector {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.reg.Share()
}

// MergeReg folds an external register vector into the node's (used by the
// bounded-counter reset's MAXIDX gossip).
func (nd *Node) MergeReg(r types.RegVector) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.reg.MergeFrom(r)
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own
	}
}

// InstallReset implements §5's global-reset step at this node: the register
// vector is replaced wholesale by r, the value the reset consensus decided,
// and every operation index collapses to its initial value while register
// *values* are preserved — non-⊥ entries restart at write index 1, and
// ts/ssn restart accordingly. Installing the decided vector — rather than
// collapsing whatever this node happens to hold — makes every committing
// node's post-reset registers byte-identical even when the MAXIDX gossip
// had not yet converged them: agreement on the installed state follows from
// consensus agreement alone.
func (nd *Node) InstallReset(r types.RegVector) {
	nd.mu.Lock()
	nd.reg = types.NewRegVector(nd.n)
	for k := 0; k < nd.n && k < len(r); k++ {
		if !r[k].IsBottom() {
			nd.reg[k] = types.TSValue{TS: 1, Val: r[k].Val}
		}
	}
	nd.ts = nd.reg[nd.id].TS
	nd.ssn = 0
	nd.mu.Unlock()
	if nd.acks != nil {
		nd.acks.Reset() // pre-reset acks describe collapsed indices
	}
}
