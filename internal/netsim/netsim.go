// Package netsim provides the asynchronous, failure-prone message-passing
// substrate of the paper's system model (§2): n nodes, a bidirectional
// bounded-capacity channel between every pair, no bound on communication
// delay, and an adversary that may lose, duplicate, and reorder packets.
//
// Every directed link has its own adversary profile, held in one N×N
// LinkMatrix; a uniform Config.Adversary is simply the matrix whose entries
// are all that profile, and Config.Links overrides the entries it covers.
//
// The simulator is an in-memory Transport implementation. Each message send
// is metered (count and encoded size in bytes) so experiments can verify the
// paper's communication-complexity claims; an optional per-network trace
// hook feeds the space-time diagrams that reproduce the paper's figures.
// A companion real-TCP implementation of the same Transport interface lives
// in package tcpnet.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/mailbox"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Transport is the interface node runtimes communicate through. Both the
// in-memory simulator (Network) and the TCP transport implement it.
//
// Payload sharing contract: Send and SendMany take copy-on-write
// snapshots of m (a shallow envelope copy, or a serialization) — they do
// NOT deep-copy payload slices. After a send returns, the caller may
// replace m's fields (scalars and whole slice headers) but must never
// mutate the *contents* of slices the message carried (Reg entries and
// their Val bytes, Tasks, Saves): those may now be aliased by
// in-flight envelopes and delivered messages. Receivers must treat
// arriving messages as immutable. Both halves of the contract are enforced
// by internal/transporttest under the race detector, and payload-byte
// immutability additionally by the `mutcheck` build tag.
type Transport interface {
	// Send transmits m from node `from` to node `to`, taking a
	// copy-on-write snapshot (see the payload sharing contract above).
	Send(from, to int, m *wire.Message)
	// Recv blocks until a message addressed to node id arrives; ok is false
	// once the transport is closed.
	Recv(id int) (m *wire.Message, ok bool)
	// N returns the cluster size.
	N() int
	// Counters exposes the traffic meters.
	Counters() *metrics.Counters
	// CloseEndpoint unblocks node id's receiver permanently; its Recv
	// returns ok=false once drained. Used by node runtimes on shutdown.
	CloseEndpoint(id int)
	// Close tears the transport down and unblocks all receivers.
	Close()
}

// ManySender is an optional Transport fast path for broadcast fan-out:
// SendMany(from, to, m) must be observationally equivalent to calling
// Send(from, k, m) for each k in to — same deliveries, same metering (one
// RecordSend per (from, to) pair), same adversary treatment per recipient —
// but may share one payload copy (or one encoding) across all recipients.
// The sharing is safe because receivers treat arriving messages as
// immutable, a contract internal/transporttest enforces under the race
// detector. Node runtimes type-assert for this interface and fall back to a
// Send loop when it is absent.
type ManySender interface {
	SendMany(from int, to []int, m *wire.Message)
}

// Adversary configures the packet-level misbehaviour of every link.
// The zero value is a perfect network with instantaneous delivery: no
// drops, no duplicates, and both delay bounds zero.
type Adversary struct {
	// DropProb is the probability a packet is silently lost.
	DropProb float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// MinDelay and MaxDelay bound the uniformly random delivery delay.
	// New normalizes a misordered pair (MaxDelay < MinDelay) by swapping
	// the bounds, and clamps negative values to zero; MinDelay == MaxDelay
	// means every packet is delayed by exactly that duration.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// normalized returns a copy with the delay pair ordered and non-negative,
// so a misconfigured MaxDelay < MinDelay cannot silently disable the delay
// adversary (delay() would otherwise always return MinDelay).
func (a Adversary) normalized() Adversary {
	if a.MinDelay < 0 {
		a.MinDelay = 0
	}
	if a.MaxDelay < 0 {
		a.MaxDelay = 0
	}
	if a.MaxDelay < a.MinDelay {
		a.MinDelay, a.MaxDelay = a.MaxDelay, a.MinDelay
	}
	return a
}

// delay draws a delivery delay; rng must be guarded by the caller.
func (a Adversary) delay(rng *rand.Rand) time.Duration {
	if a.MaxDelay <= a.MinDelay {
		return a.MinDelay
	}
	return a.MinDelay + time.Duration(rng.Int63n(int64(a.MaxDelay-a.MinDelay)))
}

// LinkProfile is the adversary of one directed link: the usual
// drop/dup/delay misbehaviour plus an optional bandwidth bound that adds a
// size-proportional serialization delay (size·second/BandwidthBps) to every
// copy. The zero value is a perfect link.
type LinkProfile struct {
	Adversary
	// BandwidthBps models link throughput; 0 means infinite (no
	// serialization delay). Negative values are clamped to 0.
	BandwidthBps int64
}

// normalized orders the delay pair and clamps the bandwidth.
func (p LinkProfile) normalized() LinkProfile {
	p.Adversary = p.Adversary.normalized()
	if p.BandwidthBps < 0 {
		p.BandwidthBps = 0
	}
	return p
}

// active reports whether drawing this profile needs randomness.
func (p LinkProfile) active() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.MaxDelay > p.MinDelay
}

// LinkMatrix assigns a profile to every directed link: entry [from][to]
// governs messages from node `from` to node `to` (self-links included — a
// node's broadcast to itself crosses [i][i]). As Config.Links it may be
// partial: links it does not cover — a nil matrix, short rows, or
// out-of-range ids — take the network's global Adversary, so a small matrix
// overlays special links on an otherwise uniform network.
type LinkMatrix [][]LinkProfile

// NewLinkMatrix returns an n×n matrix of perfect links.
func NewLinkMatrix(n int) LinkMatrix {
	m := make(LinkMatrix, n)
	for i := range m {
		m[i] = make([]LinkProfile, n)
	}
	return m
}

// At returns the profile of the directed link from→to; ok is false when the
// matrix does not cover it.
func (m LinkMatrix) At(from, to int) (LinkProfile, bool) {
	if from >= 0 && from < len(m) && to >= 0 && to < len(m[from]) {
		return m[from][to], true
	}
	return LinkProfile{}, false
}

// topology is the copy-on-write link state of a network: the normalized
// N×N profile of every directed link and the per-node delay-inflation
// factors.
type topology struct {
	links LinkMatrix
	slow  []float64 // per-node factor ≥ 1; nil means all 1
}

// Config parameterises a simulated network.
type Config struct {
	N         int       // number of nodes (ids 0..N-1)
	Seed      int64     // seed for all adversarial randomness
	InboxCap  int       // bounded channel capacity per node (default 4096)
	Adversary Adversary // misbehaviour of every link Links does not cover
	// Links, when non-nil, assigns per-directed-link adversary profiles;
	// links it does not cover use the global Adversary. Every profile is
	// normalized at construction.
	Links LinkMatrix
	Trace TraceHook // optional send/deliver observer (may be nil)

	// Clock drives delivery deadlines, trace timestamps and the delivery
	// goroutine's blocking. nil means the real clock; a *simclock.Virtual
	// makes message latency part of the deterministic simulation (delays
	// resolve in virtual time, and the delivery loop runs as a scheduler
	// task).
	Clock simclock.Clock
}

// TraceHook observes message events. Implementations must be fast and
// concurrency-safe; package trace provides one.
type TraceHook interface {
	OnSend(from, to int, m *wire.Message, at time.Time)
	OnDeliver(from, to int, m *wire.Message, at time.Time)
}

// Network is the in-memory simulated transport.
type Network struct {
	cfg      Config
	clk      simclock.Clock
	inboxes  []*mailbox.Queue[*wire.Message]
	counters metrics.Counters

	// A send takes no network-wide lock: closed and seq are atomics, and
	// the directed partition cuts, like the topology, are published
	// copy-on-write. Concurrent senders contend on rngMu alone (not at all
	// on links whose profile is inactive).
	closed atomic.Bool
	seq    atomic.Uint64
	rngMu  sync.Mutex
	rng    *rand.Rand

	// Link profiles and per-node slowdowns, and the cut links (an N×N
	// matrix indexed from*N+to, nil when no link is cut), published
	// copy-on-write so the send hot path reads them with one atomic load
	// each; topo is never nil after New.
	topoMu sync.Mutex // serializes topology and cut updates
	topo   atomic.Pointer[topology]
	cuts   atomic.Pointer[[]bool]

	// Delayed-delivery scheduler: one goroutine per network drains a
	// min-heap of pending packets (see scheduler.go).
	pendMu    sync.Mutex
	pendHeap  pendingHeap
	pendOrder uint64
	wake      simclock.Signal
	done      simclock.Event
	waitIdle  []simclock.Waitable // {done, wake}, hoisted for the idle wait
	loopWg    *simclock.Group
}

// New creates a simulated network for cfg.N nodes. Every link profile's
// delay bounds are normalized (swapped if misordered, clamped non-negative).
func New(cfg Config) *Network {
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = 4096
	}
	cfg.Adversary = cfg.Adversary.normalized()
	links := NewLinkMatrix(cfg.N)
	for i := range links {
		for j := range links[i] {
			p, ok := cfg.Links.At(i, j)
			if !ok {
				p = LinkProfile{Adversary: cfg.Adversary}
			}
			links[i][j] = p.normalized()
		}
	}
	clk := simclock.Or(cfg.Clock)
	n := &Network{
		cfg:    cfg,
		clk:    clk,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		wake:   clk.NewSignal(),
		done:   clk.NewEvent(),
		loopWg: clk.NewGroup(),
	}
	n.waitIdle = []simclock.Waitable{n.done, n.wake}
	n.topo.Store(&topology{links: links})
	n.inboxes = make([]*mailbox.Queue[*wire.Message], cfg.N)
	for i := range n.inboxes {
		n.inboxes[i] = mailbox.NewClocked[*wire.Message](clk, cfg.InboxCap)
	}
	n.loopWg.Add(1)
	clk.Go("netsim-delivery", n.deliveryLoop)
	return n
}

// N returns the cluster size.
func (n *Network) N() int { return n.cfg.N }

// Counters exposes the traffic meters.
func (n *Network) Counters() *metrics.Counters { return &n.counters }

// admit checks closed/cut state and allocates a transport sequence number
// for one (from, to) transmission; to is in range.
func (n *Network) admit(from, to int) (seq uint64, ok bool) {
	if n.closed.Load() || n.isCut(from, to) {
		return 0, false
	}
	return n.seq.Add(1), true
}

// isCut reports whether the directed link from→to is cut; to is in range.
func (n *Network) isCut(from, to int) bool {
	c := n.cuts.Load()
	return c != nil && from >= 0 && from < n.cfg.N && (*c)[from*n.cfg.N+to]
}

// drawFor samples one transmission's fate on the directed link from→to: how
// many copies arrive (0 = dropped, 2 = duplicated) and each copy's delivery
// delay. An inactive profile never consults the RNG, so concurrent senders
// on perfect links take no lock at all (admit's sequence counter is atomic). A
// bandwidth bound adds a size-proportional serialization delay, and the
// endpoints' slowdown factors inflate every copy's delay multiplicatively.
// delays has room for the duplicated copy; only delays[:copies] is
// meaningful.
func (n *Network) drawFor(from, to, size int) (copies int, delays [2]time.Duration) {
	t := n.topo.Load()
	p, ok := t.links.At(from, to)
	if !ok {
		p = LinkProfile{Adversary: n.cfg.Adversary}
	}
	copies = 1
	if p.active() {
		n.rngMu.Lock()
		if p.DropProb > 0 && n.rng.Float64() < p.DropProb {
			copies = 0
		} else if p.DupProb > 0 && n.rng.Float64() < p.DupProb {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			delays[i] = p.Adversary.delay(n.rng)
		}
		n.rngMu.Unlock()
	} else {
		delays[0], delays[1] = p.MinDelay, p.MinDelay
	}
	var ser time.Duration
	if p.BandwidthBps > 0 && size > 0 {
		ser = time.Duration(int64(size) * int64(time.Second) / p.BandwidthBps)
	}
	factor := 1.0
	if t.slow != nil {
		if from >= 0 && from < len(t.slow) && t.slow[from] > 1 {
			factor *= t.slow[from]
		}
		if to >= 0 && to < len(t.slow) && t.slow[to] > 1 {
			factor *= t.slow[to]
		}
	}
	for i := 0; i < copies; i++ {
		d := delays[i] + ser
		if factor != 1 {
			d = time.Duration(float64(d) * factor)
		}
		delays[i] = d
	}
	return copies, delays
}

// SetNodeSlowdown inflates every delay on node id's links (both directions)
// by factor — the slow-but-alive nemesis: the node keeps taking steps and
// is never counted as crashed, but all its traffic crawls. factor ≤ 1
// restores full speed.
func (n *Network) SetNodeSlowdown(id int, factor float64) {
	if id < 0 || id >= n.cfg.N {
		return
	}
	if factor < 1 {
		factor = 1
	}
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	cur := n.topo.Load()
	slow := make([]float64, n.cfg.N)
	allOne := true
	for i := range slow {
		switch {
		case i == id:
			slow[i] = factor
		case cur.slow != nil:
			slow[i] = cur.slow[i]
		default:
			slow[i] = 1
		}
		allOne = allOne && slow[i] == 1
	}
	if allOne {
		slow = nil
	}
	n.topo.Store(&topology{links: cur.links, slow: slow})
}

// dispatch routes one envelope (and its adversarial duplicate, if any) to
// node to's inbox, immediately or through the delay scheduler. Duplicates
// share the payload copy-on-write: receivers never mutate arrivals.
func (n *Network) dispatch(from, to int, env *wire.Message, copies int, delays [2]time.Duration) {
	for i := 0; i < copies; i++ {
		dup := env
		if i > 0 {
			dup = env.ShallowClone()
		}
		if delays[i] <= 0 {
			n.deliver(from, to, dup)
			continue
		}
		n.schedule(n.clk.Now().Add(delays[i]), from, to, dup)
	}
}

// sendOne is the per-recipient step shared by Send and SendMany: it admits
// one transmission of m (size bytes) on the link from→to, draws its fate,
// and traces and dispatches a fresh envelope unless the adversary lost it
// and nobody traces. It meters nothing but drops and duplicates; sent
// reports whether the transmission was admitted, so the caller can meter
// it.
func (n *Network) sendOne(from, to int, m *wire.Message, size int) (sent bool) {
	if to < 0 || to >= n.cfg.N {
		return false
	}
	seq, ok := n.admit(from, to)
	if !ok {
		return false
	}
	copies, delays := n.drawFor(from, to, size)
	switch copies {
	case 0:
		n.counters.RecordDrop()
	case 2:
		n.counters.RecordDup()
	}
	if copies == 0 && n.cfg.Trace == nil {
		return true
	}
	env := m.ShallowClone()
	env.From, env.To, env.Seq = int32(from), int32(to), seq
	if n.cfg.Trace != nil {
		n.cfg.Trace.OnSend(from, to, env, n.clk.Now())
	}
	n.dispatch(from, to, env, copies, delays)
	return true
}

// Send transmits a copy-on-write snapshot of m, subject to the adversary:
// the envelope may be dropped, duplicated, and delayed (delays reorder
// messages relative to each other). The snapshot is a shallow clone — the
// payload slices are shared with the caller's message under the Transport
// contract (immutable after send), so a unicast send allocates one envelope
// and zero payload bytes, exactly the scheme SendMany fans out with.
// Sending to self is delivered like any other message, as in the paper's
// model where a node's broadcast includes itself.
func (n *Network) Send(from, to int, m *wire.Message) {
	// A send is metered even when the adversary loses it: the paper counts
	// transmissions, and losses surface separately as drops.
	size := m.Size()
	if n.sendOne(from, to, m, size) {
		n.counters.RecordSend(m.Type, size)
	}
}

// SendMany transmits m from node `from` to every node in `to`, equivalently
// to a Send loop but with zero payload copies: each recipient gets its own
// envelope (From/To/Seq) via ShallowClone while the payload slices are
// shared — with each other AND with the caller's message, under the
// Transport contract (payloads immutable after send). Metering is identical
// to the Send loop — one send of m.Size() bytes recorded per recipient, and
// each recipient is admitted, adversary-sampled, and traced independently.
func (n *Network) SendMany(from int, to []int, m *wire.Message) {
	if len(to) == 0 {
		return
	}
	size := m.Size()
	sent := 0
	for _, k := range to {
		if n.sendOne(from, k, m, size) {
			sent++
		}
	}
	if sent > 0 {
		n.counters.RecordSendMany(m.Type, sent, size)
	}
}

func (n *Network) deliver(from, to int, m *wire.Message) {
	if n.closed.Load() {
		return
	}
	if n.inboxes[to].Push(m) {
		// Bounded-capacity channel overflow: the oldest queued message was
		// lost. The paper's complexity claims rest on metering this.
		n.counters.RecordEviction()
	}
	if n.cfg.Trace != nil {
		n.cfg.Trace.OnDeliver(from, to, m, n.clk.Now())
	}
}

// Recv blocks until a message for node id arrives or the network is closed.
func (n *Network) Recv(id int) (*wire.Message, bool) {
	return n.inboxes[id].Pop()
}

// CloseEndpoint permanently closes node id's inbox.
func (n *Network) CloseEndpoint(id int) { n.inboxes[id].Close() }

// QueueLen reports the number of undelivered messages waiting for node id.
func (n *Network) QueueLen(id int) int { return n.inboxes[id].Len() }

// DrainInbox discards node id's queued messages, modelling the loss of
// channel content on a detectable restart.
func (n *Network) DrainInbox(id int) { n.inboxes[id].Drain() }

// SetCut blocks (or unblocks) the directed link from → to. Cutting both
// directions of every link between two node sets partitions the network.
// Links with an endpoint outside [0, N) carry no traffic and are ignored.
func (n *Network) SetCut(from, to int, cut bool) {
	if from < 0 || from >= n.cfg.N || to < 0 || to >= n.cfg.N {
		return
	}
	n.updateCuts(func(c []bool) { c[from*n.cfg.N+to] = cut })
}

// Isolate cuts all links to and from node id (both directions).
func (n *Network) Isolate(id int, isolated bool) {
	if id < 0 || id >= n.cfg.N {
		return
	}
	n.updateCuts(func(c []bool) {
		for k := 0; k < n.cfg.N; k++ {
			if k != id {
				c[id*n.cfg.N+k] = isolated
				c[k*n.cfg.N+id] = isolated
			}
		}
	})
}

// updateCuts publishes a copy of the cut matrix with set applied.
func (n *Network) updateCuts(set func(c []bool)) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	c := make([]bool, n.cfg.N*n.cfg.N)
	if cur := n.cuts.Load(); cur != nil {
		copy(c, *cur)
	}
	set(c)
	for _, b := range c {
		if b {
			n.cuts.Store(&c)
			return
		}
	}
	n.cuts.Store(nil)
}

// Close shuts the network down and unblocks all receivers. It returns
// promptly regardless of MaxDelay: delayed packets still pending are
// discarded, exactly as a closed network would have discarded them on
// arrival.
func (n *Network) Close() {
	if n.closed.Swap(true) {
		return
	}
	n.done.Fire()
	n.loopWg.Wait()
	for _, q := range n.inboxes {
		q.Close()
	}
}

var (
	_ Transport  = (*Network)(nil)
	_ ManySender = (*Network)(nil)
)
