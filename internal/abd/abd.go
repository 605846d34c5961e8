// Package abd is a standalone emulation of single-writer/multi-reader
// atomic registers over asynchronous crash-prone message passing —
// Attiya, Bar-Noy and Dolev's classic construction (ABD), the substrate
// that the paper's related work (§1) layers snapshot algorithms on and the
// baseline its "non-stacking" approach improves upon.
//
// Semantics: node k owns register k. Write (owner only) installs a fresh
// timestamped value at a majority in one round. Read queries a majority
// for the highest timestamp and then writes that value back to a majority
// before returning — the write-back is what makes concurrent reads atomic
// (no new/old inversion).
//
// As an extension exercise, the package also applies the paper's
// Algorithm 1 technique to plain registers: with Config.SelfStabilizing,
// each node's do-forever loop enforces ts ≥ reg[own].ts and gossips every
// node its own register entry, so a transient fault that corrupts a
// writer's timestamp or erases its stored value heals within O(1) cycles
// instead of silently breaking the writer-owns-the-timestamp invariant
// forever (compare Alon et al.'s practically-stabilizing SWMR memory,
// cited by the paper).
package abd

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node.
type Config struct {
	// SelfStabilizing enables the gossip + index-hygiene hardening.
	SelfStabilizing bool
	Runtime         node.Options
}

// Node is one participant: the owner of register Node.ID() and a reader
// of all registers.
type Node struct {
	rt  *node.ObjView
	cfg Config
	id  int
	n   int
	tag atomic.Uint64

	opMu sync.Mutex

	mu  sync.Mutex
	ts  int64
	reg types.RegVector
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{cfg: cfg, id: id, n: tr.N(), reg: types.NewRegVector(tr.N())}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	return nd
}

// Start launches the node's goroutines.
func (nd *Node) Start() { nd.rt.Start() }

// Close permanently stops the node.
func (nd *Node) Close() { nd.rt.Close() }

// Runtime exposes lifecycle controls.
func (nd *Node) Runtime() *node.Runtime { return nd.rt.Runtime }

// Write installs v as this node's register value at a majority. Only the
// register's owner may call it (SWMR).
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.ts++
	// One defensive copy at the API boundary; the payload is immutable from
	// here on, so the local register and the broadcast share the same bytes.
	entry := types.TSValue{TS: nd.ts, Val: types.Freeze(v.Clone())}
	if nd.reg[nd.id].Less(entry) {
		nd.reg[nd.id] = entry
	}
	nd.mu.Unlock()

	tag := nd.tag.Add(1)
	_, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TRegWriteBack, Src: int32(nd.id), Entry: entry, Tag: tag}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TRegWriteBackAck && m.Tag == tag
		},
	})
	return err
}

// Read returns register k's current value (⊥ as an empty value with
// Timestamp 0 if never written). Reads are atomic: the two-phase
// query/write-back protocol guarantees that once a read returns a value,
// no later read returns an older one.
func (nd *Node) Read(k int) (types.TSValue, error) {
	if k < 0 || k >= nd.n {
		return types.TSValue{}, node.ErrAborted
	}
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	// Phase 1: query a majority for register k.
	tag := nd.tag.Add(1)
	recs, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TRegQuery, Src: int32(k), Tag: tag}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TRegQueryAck && m.Tag == tag
		},
	})
	if err != nil {
		return types.TSValue{}, err
	}
	// Arriving entries are immutable: adopt the maximum by reference.
	best := types.TSValue{}
	for _, m := range recs {
		if best.Less(m.Entry) {
			best = m.Entry
		}
	}
	nd.mu.Lock()
	if nd.reg[k].Less(best) {
		nd.reg[k] = best
	} else {
		best = nd.reg[k]
	}
	nd.mu.Unlock()

	// Phase 2: write back before returning (atomicity).
	// Its own variable, not tag reassigned: the dispatcher may still be
	// inside phase 1's Accept, which reads tag, after that Call returned.
	wbTag := nd.tag.Add(1)
	_, err = nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TRegWriteBack, Src: int32(k), Entry: best, Tag: wbTag}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TRegWriteBackAck && m.Tag == wbTag
		},
	})
	if err != nil {
		return types.TSValue{}, err
	}
	return best, nil
}

// Tick is the optional self-stabilizing do-forever body.
func (nd *Node) Tick() {
	if !nd.cfg.SelfStabilizing {
		return
	}
	nd.mu.Lock()
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own
	}
	gossip := nd.reg.Share()
	nd.mu.Unlock()
	nd.rt.GossipTo(func(k int) *wire.Message {
		return &wire.Message{Type: wire.TGossip, Entry: gossip[k]}
	})
}

// HandleMessage is the server side.
func (nd *Node) HandleMessage(m *wire.Message) {
	switch m.Type {
	case wire.TRegQuery:
		k := int(m.Src)
		if k < 0 || k >= nd.n {
			return
		}
		nd.mu.Lock()
		reply := &wire.Message{Type: wire.TRegQueryAck, Src: m.Src, Entry: nd.reg[k], Tag: m.Tag}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)

	case wire.TRegWriteBack:
		k := int(m.Src)
		if k < 0 || k >= nd.n {
			return
		}
		nd.mu.Lock()
		if nd.reg[k].Less(m.Entry) {
			nd.reg[k] = m.Entry
		}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), &wire.Message{Type: wire.TRegWriteBackAck, Tag: m.Tag})

	case wire.TGossip:
		if !nd.cfg.SelfStabilizing {
			return
		}
		nd.mu.Lock()
		if nd.reg[nd.id].Less(m.Entry) {
			nd.reg[nd.id] = m.Entry
		}
		if own := nd.reg[nd.id].TS; own > nd.ts {
			nd.ts = own
		}
		nd.mu.Unlock()
	}
}

// Route implements node.Router for sharded dispatch. TRegQueryAck and
// TRegWriteBackAck are consumed only by quorum-call acceptance predicates
// (HandleMessage above ignores them), so they take the dedicated ack
// lane. Everything else shards by the sending node: register k is written
// only by node k, so per-sender FIFO preserves per-register ordering.
func (nd *Node) Route(m *wire.Message) (node.Lane, int) {
	switch m.Type {
	case wire.TRegQueryAck, wire.TRegWriteBackAck:
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

// Corrupt models a transient fault (self-stabilizing variant only in
// terms of recovery; callable on any node).
func (nd *Node) Corrupt(rng *rand.Rand) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.ts = rng.Int63n(1 << 20)
	for k := range nd.reg {
		if rng.Intn(2) == 0 {
			nd.reg[k] = types.TSValue{}
		}
	}
}

// State returns a copy of (ts, reg) for invariant checks.
func (nd *Node) State() (int64, types.RegVector) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.ts, nd.reg.Clone()
}
