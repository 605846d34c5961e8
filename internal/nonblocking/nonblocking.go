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

	"selfstabsnap/internal/kernel"
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
	// Runtime tuning forwarded to the node runtime.
	Runtime node.Options
}

// Node is one participant. Create with New, then Start. Write and Snapshot
// may be called concurrently from any goroutine; operations of the same
// node are internally serialised, matching the paper's one-client-per-node
// model. The embedded kernel.Shell is the register core shared with
// Algorithm 3: the quorum write, the server side (lines 24–31), the
// do-forever loop (lines 8–11) and the inspection and reset hooks.
type Node struct {
	kernel.Shell
	rt *node.ObjView
	g  *kernel.Gossip

	opMu sync.Mutex // serialises this node's client operations

	mu sync.Mutex   // guards k
	k  kernel.State // ts, ssn, reg
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{k: kernel.New(id, tr.N(), false)}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	nd.g = kernel.NewGossip(nd.rt)
	nd.Shell = kernel.NewShell(nd.rt, nd.g, &nd.mu, &nd.k, !cfg.SelfStabilizing)
	return nd
}

// Write performs the write(v) operation (Algorithm 1 lines 12–16): install
// (v, ts+1) locally, then repeat-broadcast WRITE(lReg) until a majority
// acknowledges a register vector ⪰ lReg, and merge the replies.
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()
	// Clone the caller's value once at the API boundary — from here on the
	// payload is immutable and every path shares it by reference.
	return nd.Shell.Write(types.Freeze(v.Clone()))
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
		prev := nd.k.Reg.Share()
		nd.k.SSN++
		ssn := nd.k.SSN
		nd.mu.Unlock()

		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				// Share, not deep-clone: Build runs once per retransmission
				// round, so an O(n·ν) copy here multiplies with retries.
				nd.mu.Lock()
				reg := nd.k.Reg.Share()
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
		nd.Merge(recs)

		nd.mu.Lock()
		done := nd.k.Reg.Equal(prev)
		res := nd.k.Reg.Share()
		nd.mu.Unlock()
		if done {
			return res, nil
		}
	}
}

// Corrupt models a transient fault: it overwrites every algorithm variable
// with arbitrary values drawn from rng (program code — and the node's
// identity — stay intact, per the paper's fault model §2).
func (nd *Node) Corrupt(rng *rand.Rand) {
	nd.rt.RecordEvent("transient-fault", "algorithm variables overwritten")
	nd.g.Reset() // repaired state must be re-gossiped in full
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.k.TS = rng.Int63n(1 << 20)
	nd.k.SSN = rng.Int63n(1 << 20)
	for k := range nd.k.Reg {
		switch rng.Intn(3) {
		case 0:
			nd.k.Reg[k] = types.TSValue{} // erased
		case 1:
			nd.k.Reg[k] = types.TSValue{TS: rng.Int63n(1 << 20), Val: randValue(rng)}
		case 2:
			nd.k.Reg[k] = types.TSValue{TS: nd.k.Reg[k].TS + rng.Int63n(64), Val: nd.k.Reg[k].Val.Clone()}
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
