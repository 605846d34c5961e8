// Package bounded implements §5 of the paper: the bounded-counter
// variation of the self-stabilizing snapshot object. It wraps an
// Algorithm 1 or Algorithm 3 node (packages nonblocking and deltasnap)
// with:
//
//   - overflow detection — a watcher notices any operation index reaching
//     MAXINT (configurable, so tests can exercise wraparound cheaply);
//   - operation disabling — new write/snapshot invocations are deferred
//     (or aborted, per configuration) while a reset runs, and the node
//     drains its in-flight operation before declaring itself frozen;
//   - index gossip and global reset — the consensus-based procedure in
//     package reset converges all registers, then collapses every index to
//     its initial value while preserving register values;
//   - epoch fencing — every data message carries the configuration epoch,
//     and stale-epoch messages are discarded, so pre-reset indices can
//     never re-poison post-reset state.
package bounded

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/reset"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Inner is the surface of a kernel-backed self-stabilizing algorithm. The
// paper's Algorithm 1 (package nonblocking) and Algorithm 3 (package
// deltasnap) both get it from their embedded kernel.Shell, which documents
// the methods, plus their own Corrupt. A bounded Node embeds the Inner it
// wraps, so it is an Inner too.
type Inner interface {
	Start()
	Close()
	Runtime() *node.Runtime
	Write(types.Value) error
	Snapshot() (types.RegVector, error)
	// The §5 hooks: overflow detection, MAXIDX gossip, global reset.
	MaxIndex() int64
	RegSnapshot() types.RegVector
	MergeReg(types.RegVector)
	InstallReset(types.RegVector)
	// Fault injection, invariants and restart recovery.
	RestartDetectable()
	AdoptSNS(int64)
	Corrupt(*rand.Rand)
	CorruptAckTable(*rand.Rand)
	LocalInvariantHolds() bool
	StateSummary() kernel.View
}

// DefaultMaxInt is the production overflow threshold. Tests override it.
const DefaultMaxInt = int64(1) << 62

// Config parameterises one bounded node.
type Config struct {
	// MaxInt is the overflow threshold (default DefaultMaxInt).
	MaxInt int64
	// AbortDuringReset makes operations invoked during a reset fail with
	// node.ErrAborted instead of blocking until the reset completes. The
	// paper's criteria explicitly permit aborting a bounded number of
	// operations during the seldom global reset.
	AbortDuringReset bool
	// Runtime tuning forwarded to the inner node.
	Runtime node.Options
}

// Node is a bounded-counter self-stabilizing snapshot node. It provides
// the wrapped algorithm's surface, with Write, Snapshot and the lifecycle
// gated by the reset machinery.
type Node struct {
	Inner
	eng   *reset.Engine
	ft    *fencedTransport
	cfg   Config
	id, n int

	clk simclock.Clock

	gateMu   sync.Mutex
	gateEv   simclock.Event // fired+replaced on every gate state change
	closed   bool           // admission gate
	inflight int

	resets   atomic.Int64
	deferred atomic.Int64
	aborted  atomic.Int64

	evMu   sync.Mutex
	events []CnsEvent

	stopEv simclock.Event
	wg     *simclock.Group
}

// CnsEvent is one consensus life-cycle observation (trigger, propose,
// decide, commit), stamped with node identity and virtual-clock time.
// Chaos campaigns aggregate these across the cluster and feed them to the
// history checker's consensus invariants.
type CnsEvent struct {
	reset.Event
	Node int
	At   time.Time
}

// maxEvents bounds the per-node event buffer: a transient-fault storm that
// forges endless reset traffic must not grow memory without bound.
const maxEvents = 1 << 14

// New creates a bounded node wrapping Algorithm 1 (the paper's primary §5
// target) with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	b := newShell(id, tr, cfg)
	b.Inner = nonblocking.New(id, b.ft, nonblocking.Config{
		SelfStabilizing: true,
		Runtime:         cfg.Runtime,
	})
	return b
}

// NewDelta creates a bounded node wrapping Algorithm 3 — the other half of
// §5's "bounded variations on Algorithms 1 and 3". delta is the wrapped
// algorithm's δ parameter.
func NewDelta(id int, tr netsim.Transport, delta int64, cfg Config) *Node {
	b := newShell(id, tr, cfg)
	b.Inner = deltasnap.New(id, b.ft, deltasnap.Config{
		Delta:   delta,
		Runtime: cfg.Runtime,
	})
	return b
}

func newShell(id int, tr netsim.Transport, cfg Config) *Node {
	if cfg.MaxInt <= 0 {
		cfg.MaxInt = DefaultMaxInt
	}
	clk := simclock.Or(cfg.Runtime.Clock)
	b := &Node{cfg: cfg, id: id, n: tr.N(), clk: clk, stopEv: clk.NewEvent(), wg: clk.NewGroup()}
	b.gateEv = clk.NewEvent()
	b.eng = reset.NewEngine(id, tr.N())
	b.eng.SetHook(b.recordEvent)
	b.ft = &fencedTransport{Transport: tr, owner: b}
	return b
}

// recordEvent is the reset engine's lifecycle hook. It runs under the
// engine lock, so it only appends to the local buffer.
func (b *Node) recordEvent(ev reset.Event) {
	b.evMu.Lock()
	if len(b.events) < maxEvents {
		b.events = append(b.events, CnsEvent{Event: ev, Node: b.id, At: b.clk.Now()})
	}
	b.evMu.Unlock()
}

// ConsensusEvents returns a copy of the consensus life-cycle events this
// node has recorded since boot.
func (b *Node) ConsensusEvents() []CnsEvent {
	b.evMu.Lock()
	defer b.evMu.Unlock()
	return append([]CnsEvent(nil), b.events...)
}

// Start launches the node's goroutines, including the overflow watcher.
func (b *Node) Start() {
	b.Inner.Start()
	b.wg.Add(1)
	b.clk.Go(fmt.Sprintf("bounded%d-watch", b.id), b.watch)
}

// Close permanently stops the node.
func (b *Node) Close() {
	b.stopEv.Fire()
	b.gateMu.Lock()
	b.notifyGateLocked()
	b.gateMu.Unlock()
	b.Inner.Close()
	b.wg.Wait()
}

// notifyGateLocked wakes every operation parked on the admission gate by
// firing the current generation's event and installing a fresh one.
// Caller holds gateMu.
func (b *Node) notifyGateLocked() {
	b.gateEv.Fire()
	b.gateEv = b.clk.NewEvent()
}

// Epoch returns the current configuration epoch (number of completed
// global resets since boot).
func (b *Node) Epoch() int64 { return b.eng.Epoch() }

// Resets returns how many global resets this node has applied.
func (b *Node) Resets() int64 { return b.resets.Load() }

// DeferredOps returns how many operations were delayed by a reset.
func (b *Node) DeferredOps() int64 { return b.deferred.Load() }

// AbortedOps returns how many operations were aborted by a reset.
func (b *Node) AbortedOps() int64 { return b.aborted.Load() }

// ResetActive reports whether a global reset is currently in progress.
func (b *Node) ResetActive() bool { return b.eng.Active() }

// ResetRejects returns how many hostile reset-plane or consensus messages
// this node's engine has dropped before any state transition.
func (b *Node) ResetRejects() uint64 { return b.eng.Rejects() }

// RestartDetectable performs the paper's detectable restart of the whole
// bounded node: the wrapped algorithm restarts with every variable
// re-initialised, and the reset engine forgets its epoch, frozen evidence,
// and consensus state. A restarted acceptor cannot remember its promises —
// the engine relies on decide-replay from its peers (a majority of which
// stays up by the fault model) to re-learn the current epoch.
func (b *Node) RestartDetectable() {
	b.Inner.RestartDetectable()
	b.eng.Restart()
	b.openGate()
}

// Write performs a write, subject to the reset admission gate.
func (b *Node) Write(v types.Value) error {
	if err := b.enter(); err != nil {
		return err
	}
	defer b.exit()
	return b.Inner.Write(v)
}

// Snapshot performs a snapshot, subject to the reset admission gate.
func (b *Node) Snapshot() (types.RegVector, error) {
	if err := b.enter(); err != nil {
		return nil, err
	}
	defer b.exit()
	return b.Inner.Snapshot()
}

func (b *Node) enter() error {
	b.gateMu.Lock()
	defer b.gateMu.Unlock()
	if b.closed {
		if b.cfg.AbortDuringReset {
			b.aborted.Add(1)
			return node.ErrAborted
		}
		b.deferred.Add(1)
		for b.closed {
			if b.stopEv.Fired() {
				return node.ErrClosed
			}
			ev := b.gateEv
			b.gateMu.Unlock()
			b.clk.Wait(b.stopEv, ev)
			b.gateMu.Lock()
		}
	}
	b.inflight++
	return nil
}

func (b *Node) exit() {
	b.gateMu.Lock()
	b.inflight--
	b.notifyGateLocked()
	b.gateMu.Unlock()
}

// frozen reports whether the node has gated admissions and drained its
// in-flight operations — the precondition for acknowledging a reset
// proposal.
func (b *Node) frozen() bool {
	b.gateMu.Lock()
	defer b.gateMu.Unlock()
	return b.closed && b.inflight == 0
}

// syncGate aligns the admission gate with the reset engine: closed while a
// pre-commit reset phase runs, open otherwise.
func (b *Node) syncGate() {
	if b.eng.Blocking() {
		b.gateMu.Lock()
		b.closed = true
		b.gateMu.Unlock()
	} else {
		b.openGate()
	}
}

func (b *Node) openGate() {
	b.gateMu.Lock()
	b.closed = false
	b.notifyGateLocked()
	b.gateMu.Unlock()
}

// watch is the overflow watcher and reset-protocol driver.
func (b *Node) watch() {
	defer b.wg.Done()
	interval := b.cfg.Runtime.LoopInterval
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	t := b.clk.NewTicker(interval)
	defer t.Stop()
	ws := []simclock.Waitable{b.stopEv, t}
	for {
		if b.clk.Wait(ws...) == 0 {
			return
		}
		if b.Runtime().Crashed() {
			continue
		}
		if !b.eng.Active() && b.MaxIndex() >= b.cfg.MaxInt {
			b.eng.Trigger()
		}
		b.syncGate()
		b.exec(b.eng.OnTick(b.RegSnapshot(), b.frozen()))
	}
}

// handleReset processes one reset-plane message (called from the fenced
// transport on the dispatcher goroutine). A crashed node takes no steps,
// so its reset messages are dropped like any others.
func (b *Node) handleReset(m *wire.Message) {
	if b.Runtime().Crashed() {
		return
	}
	res := b.eng.OnMessage(m, b.RegSnapshot(), b.frozen())
	// Joining a reset gates admissions eagerly so freezing is prompt.
	b.syncGate()
	b.exec(res)
}

// exec applies a reset-engine result: merge registers, transmit outputs,
// and apply a commit.
func (b *Node) exec(res reset.Result) {
	if res.Rejected {
		b.ft.Counters().RecordResetReject()
	}
	if res.MergeReg != nil {
		b.MergeReg(res.MergeReg)
	}
	for _, o := range res.Outputs {
		if o.To == reset.Broadcast {
			for k := 0; k < b.n; k++ {
				if k != b.id {
					b.ft.sendRaw(b.id, k, o.Msg)
				}
			}
		} else {
			b.ft.sendRaw(b.id, o.To, o.Msg)
		}
	}
	if res.Commit {
		// A laggard can learn the decision while it still has operations
		// in flight (it never froze — the decide came via replay). Those
		// operations began under the old epoch; letting them keep
		// retransmitting after the install would stamp pre-reset indices
		// with the new epoch. Abort them before touching the registers.
		if n := b.Runtime().AbortInflightCalls(); n > 0 {
			b.aborted.Add(int64(n))
		}
		b.InstallReset(res.Install)
		b.resets.Add(1)
		b.Runtime().RecordEvent("global-reset", "bounded-counter epoch reset committed")
		b.openGate()
	}
}

// fencedTransport wraps the real transport with epoch stamping/fencing and
// reset-plane interception.
type fencedTransport struct {
	netsim.Transport
	owner *Node
}

// sendRaw bypasses the fence (reset-plane messages carry their own epochs).
func (f *fencedTransport) sendRaw(from, to int, m *wire.Message) {
	f.Transport.Send(from, to, m)
}

// Send stamps data messages with the current epoch and suppresses new
// requests while this node is frozen in a reset (acknowledgments still
// flow so other nodes can drain their in-flight operations).
func (f *fencedTransport) Send(from, to int, m *wire.Message) {
	b := f.owner
	if reset.IsResetType(m.Type) {
		f.Transport.Send(from, to, m)
		return
	}
	if b.eng.Active() && b.frozen() && isRequest(m.Type) {
		return
	}
	m.Epoch = b.eng.Epoch()
	f.Transport.Send(from, to, m)
}

// Recv filters stale-epoch data messages and diverts reset-plane messages
// to the engine.
func (f *fencedTransport) Recv(id int) (*wire.Message, bool) {
	for {
		m, ok := f.Transport.Recv(id)
		if !ok {
			return nil, false
		}
		if reset.IsResetType(m.Type) {
			f.owner.handleReset(m)
			continue
		}
		if cur := f.owner.eng.Epoch(); m.Epoch != cur {
			// Fenced: pre-reset (or post-reset) stray. A *request* below
			// our epoch marks a live laggard that slept through a whole
			// reset — answer with a decide replay so it can catch up; no
			// coordinator re-broadcasts commits in the consensus design.
			if m.Epoch < cur && isRequest(m.Type) {
				if from := int(m.From); from >= 0 && from < f.owner.n && from != f.owner.id {
					if d := f.owner.eng.ReplayFor(m.Epoch); d != nil {
						f.sendRaw(f.owner.id, from, d)
					}
				}
			}
			continue
		}
		return m, true
	}
}

// isRequest reports whether t is a client-initiated request: those are
// suppressed while the node is frozen mid-reset so the cluster quiesces,
// while acknowledgments keep flowing so other nodes can drain.
func isRequest(t wire.Type) bool {
	switch t {
	case wire.TWrite, wire.TSnapshot, wire.TGossip, wire.TSave:
		return true
	}
	return false
}

// Counters exposes the underlying transport's meters.
func (f *fencedTransport) Counters() *metrics.Counters { return f.Transport.Counters() }
