// Package rbcast implements the reliable-broadcast primitive assumed by
// Delporte-Gallet et al.'s always-terminating algorithm (the paper's
// Algorithm 2): if any node delivers a broadcast message, every node that
// does not crash eventually delivers it, and every message is delivered at
// most once per node.
//
// The implementation is the classic eager-relay scheme hardened for lossy
// channels: the originator retransmits to every peer until acknowledged,
// and every node relays a message once on first delivery (so a broadcast
// survives the originator crashing mid-send). Duplicates are filtered by a
// (origin, tag) delivered-set. The delivered-set grows without bound —
// deliberately so: Algorithm 2 is the paper's *non-self-stabilizing*
// baseline, and its unbounded memory is one of the properties the
// self-stabilizing Algorithm 3 removes.
package rbcast

import (
	"cmp"
	"slices"
	"sync"

	"selfstabsnap/internal/wire"
)

// maxRetxRounds caps how many tick-driven retransmission rounds a pending
// broadcast is retried to peers that never acknowledge (e.g. crashed
// forever). Live peers acknowledge within a round trip, so the cap is never
// hit in correct executions; it only stops unbounded traffic to dead nodes.
const maxRetxRounds = 64

type key struct {
	origin int32
	tag    uint64
}

type pendingBcast struct {
	env    *wire.Message
	acked  map[int32]struct{}
	rounds int
}

// RB is one node's reliable-broadcast endpoint.
type RB struct {
	id       int
	n        int
	send     func(to int, m *wire.Message)
	sendMany func(to []int, m *wire.Message) // optional fan-out (see UseFanout)
	deliver  func(inner *wire.Message)

	mu        sync.Mutex
	nextTag   uint64
	delivered map[key]struct{}
	pending   map[key]*pendingBcast
}

// New creates an endpoint for node id of n. send transmits one message;
// deliver is invoked exactly once per broadcast, on the goroutine that
// first receives it (or synchronously from Broadcast for the originator).
func New(id, n int, send func(to int, m *wire.Message), deliver func(inner *wire.Message)) *RB {
	return &RB{
		id:        id,
		n:         n,
		send:      send,
		deliver:   deliver,
		delivered: make(map[key]struct{}),
		pending:   make(map[key]*pendingBcast),
	}
}

// UseFanout installs an optional batched sender: transmit hands a whole
// recipient set to sendMany (e.g. node.Runtime.SendToMany, which marshals
// the envelope once per fan-out on capable transports) instead of calling
// send once per peer. Must be called before the endpoint is used; sendMany
// must be observationally equivalent to calling send for each recipient.
func (r *RB) UseFanout(sendMany func(to []int, m *wire.Message)) {
	r.sendMany = sendMany
}

// Broadcast reliably broadcasts inner to all nodes, delivering locally
// first (a node always delivers its own broadcasts).
func (r *RB) Broadcast(inner *wire.Message) {
	r.mu.Lock()
	r.nextTag++
	env := &wire.Message{
		Type:  wire.TRBCast,
		Src:   int32(r.id),
		Tag:   r.nextTag,
		Inner: inner.Clone(),
	}
	k := key{origin: int32(r.id), tag: r.nextTag}
	r.delivered[k] = struct{}{}
	r.pending[k] = &pendingBcast{env: env, acked: map[int32]struct{}{int32(r.id): {}}}
	r.mu.Unlock()

	r.deliver(inner)
	r.transmit(env, nil)
}

// Handle processes an arriving TRBCast or TRBAck. It returns true if the
// message belonged to this layer.
func (r *RB) Handle(m *wire.Message) bool {
	switch m.Type {
	case wire.TRBCast:
		if m.Inner == nil {
			return true // corrupted frame; drop
		}
		k := key{origin: m.Src, tag: m.Tag}
		// Always (re-)acknowledge: the sender may have missed our first ack.
		r.send(int(m.From), &wire.Message{Type: wire.TRBAck, Src: m.Src, Tag: m.Tag})

		r.mu.Lock()
		if _, dup := r.delivered[k]; dup {
			r.mu.Unlock()
			return true
		}
		r.delivered[k] = struct{}{}
		// Relay on first delivery so the broadcast survives an originator
		// crash; we also retransmit it until peers acknowledge.
		env := m.Clone()
		r.pending[k] = &pendingBcast{env: env, acked: map[int32]struct{}{int32(r.id): {}, m.From: {}}}
		r.mu.Unlock()

		r.deliver(m.Inner)
		r.transmit(env, map[int32]struct{}{m.From: {}})
		return true

	case wire.TRBAck:
		k := key{origin: m.Src, tag: m.Tag}
		r.mu.Lock()
		if p, ok := r.pending[k]; ok {
			p.acked[m.From] = struct{}{}
			if len(p.acked) >= r.n {
				delete(r.pending, k)
			}
		}
		r.mu.Unlock()
		return true
	}
	return false
}

// Tick retransmits every pending broadcast to the peers that have not yet
// acknowledged it, in (origin, tag) order, so that a virtual-clock run does
// not depend on map iteration order. Call it from the node's do-forever
// loop.
func (r *RB) Tick() {
	r.mu.Lock()
	type retx struct {
		k    key
		env  *wire.Message
		skip map[int32]struct{}
	}
	var work []retx
	for k, p := range r.pending {
		p.rounds++
		if p.rounds > maxRetxRounds {
			delete(r.pending, k)
			continue
		}
		skip := make(map[int32]struct{}, len(p.acked))
		for a := range p.acked {
			skip[a] = struct{}{}
		}
		work = append(work, retx{k: k, env: p.env, skip: skip})
	}
	r.mu.Unlock()
	slices.SortFunc(work, func(a, b retx) int {
		return cmp.Or(cmp.Compare(a.k.origin, b.k.origin), cmp.Compare(a.k.tag, b.k.tag))
	})
	for _, w := range work {
		r.transmit(w.env, w.skip)
	}
}

// transmit sends env to every peer not in skip. A stored envelope is
// re-sent from the client goroutine (Broadcast), the loop goroutine (Tick)
// and the dispatcher (Handle's relay), possibly at once, and the senders
// below write to what they are handed (node.ObjView stamps its object id),
// so each round sends a private shallow copy and the stored envelope is
// never written after it is built.
func (r *RB) transmit(env *wire.Message, skip map[int32]struct{}) {
	env = env.ShallowClone()
	if r.sendMany != nil {
		to := make([]int, 0, r.n-1)
		for k := 0; k < r.n; k++ {
			if k == r.id {
				continue
			}
			if _, s := skip[int32(k)]; s {
				continue
			}
			to = append(to, k)
		}
		if len(to) > 0 {
			r.sendMany(to, env)
		}
		return
	}
	for k := 0; k < r.n; k++ {
		if k == r.id {
			continue
		}
		if _, s := skip[int32(k)]; s {
			continue
		}
		r.send(k, env)
	}
}

// PendingLen reports how many broadcasts are still being retransmitted
// (diagnostics and tests).
func (r *RB) PendingLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}
