// Package reset implements the global reset procedure of the paper's §5
// bounded-counter transformation: once a node notices an operation index
// at least MAXINT, the system disables new operations, gossips maximal
// indices while nodes freeze, and then agrees — via the self-stabilizing
// multivalued consensus of package consensus (Lundström–Raynal–Schiller
// 2021) — on one frozen register vector, which every node installs with
// all operation indices collapsed to their initial values and register
// values preserved.
//
// There is no coordinator: any node's overflow trigger leads to a
// consensus decision among a live majority, so the reset commits even with
// node 0 (the former coordinator) crashed for the whole episode. Nodes
// that miss the decision — crashed, partitioned, or an entire epoch behind
// — are caught up by decide replay: every committed node answers
// stale-epoch reset traffic with the last decided (epoch, value) pair, so
// adopting a newer epoch is a state transfer, not a protocol stall.
//
// As the paper notes, the procedure may assume execution fairness because
// reaching MAXINT "can only occur due to a transient fault": fairness is
// required only seldom, and a bounded number of operations concurrent with
// the reset may be aborted (§5 explicitly permits this).
//
// The engine is a pure state machine: callers feed it ticks and messages
// and execute the outputs (messages to send, reset to apply). This keeps
// it independently unit-testable without a network. Hostile inputs —
// out-of-range sender ids, malformed vectors, misrouted types — are
// bounds-checked at entry, counted, and dropped, mirroring the
// dispatcher's InvalidTypes/InvalidObjs discipline.
package reset

import (
	"sync"

	"selfstabsnap/internal/consensus"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Broadcast is the Output.To value meaning "send to every other node".
const Broadcast = -1

// Output is one message the caller must transmit.
type Output struct {
	To  int
	Msg *wire.Message
}

// Result is what the caller must do after feeding the engine an event.
type Result struct {
	Outputs []Output
	// Commit instructs the caller to apply the reset now: install Install
	// verbatim with every operation index collapsed to its initial value —
	// the engine has already advanced its epoch.
	Commit bool
	// Install is the consensus-decided register vector to install on
	// Commit. Identical at every committing node by construction.
	Install types.RegVector
	// MergeReg, when non-nil, must be folded into the node's registers (it
	// arrived in a MAXIDX gossip and drives register convergence while
	// nodes freeze).
	MergeReg types.RegVector
	// Rejected marks a hostile input that was counted and dropped.
	Rejected bool
}

func (r *Result) send(to int, m *wire.Message) { r.Outputs = append(r.Outputs, Output{To: to, Msg: m}) }

type phase uint8

const (
	phaseIdle phase = iota
	phaseWrap       // frozen or freezing: gossiping MAXIDX, running consensus
)

// EventKind tags consensus life-cycle events for the invariant checker.
type EventKind uint8

// Event kinds, in protocol order.
const (
	EventTrigger EventKind = iota + 1 // local overflow trigger entered wrap
	EventPropose                      // this node proposed its frozen vector
	EventDecide                       // a decision for Epoch was learned
	EventCommit                       // the reset was applied; Epoch is the new epoch
)

// Event is one consensus life-cycle step; the caller stamps node identity
// and time.
type Event struct {
	Kind   EventKind
	Epoch  int64
	Digest uint64 // consensus.DigestReg of the proposed/decided vector
}

// seenEntry is the latest MAXIDX evidence from one peer: its register
// clock and whether it reported itself frozen. Overwritten unconditionally
// on every TMaxIdx, so a peer that froze, restarted, and resumed
// operations stops counting toward the freeze quorum the moment its next
// gossip arrives with a different clock — frozen evidence is never sticky.
type seenEntry struct {
	vc     types.VectorClock
	frozen bool
	valid  bool
}

// Engine is one node's reset state machine. Any node may trigger, propose,
// and drive an epoch to commit; no identity is distinguished.
type Engine struct {
	id int
	n  int

	mu    sync.Mutex
	phase phase
	epoch int64

	seen     []seenEntry // per-peer MAXIDX evidence for the current epoch
	cns      *consensus.Machine
	proposed bool

	// Decide replay state: the last decided epoch and value, served to any
	// node still working an older epoch.
	lastDecided   types.RegVector
	lastDecidedEp int64
	hasDecided    bool
	rejects       uint64
	hook          func(Event)
}

// NewEngine creates an engine for node id of n.
func NewEngine(id, n int) *Engine {
	return &Engine{id: id, n: n, seen: make([]seenEntry, n)}
}

// SetHook installs a consensus life-cycle observer. The hook runs under
// the engine lock and must not call back into the engine.
func (e *Engine) SetHook(fn func(Event)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = fn
}

func (e *Engine) emitLocked(k EventKind, epoch int64, digest uint64) {
	if e.hook != nil {
		e.hook(Event{Kind: k, Epoch: epoch, Digest: digest})
	}
}

// Epoch returns the current configuration epoch; data messages are fenced
// by it.
func (e *Engine) Epoch() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Active reports whether a reset is in progress at this node.
func (e *Engine) Active() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.phase != phaseIdle
}

// Blocking reports whether new operations must be gated: true while this
// node participates in an uncommitted reset.
func (e *Engine) Blocking() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.phase == phaseWrap
}

// Rejects returns how many hostile reset-plane inputs were dropped
// (engine-level; the consensus instance meters its own).
func (e *Engine) Rejects() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.rejects
	if e.cns != nil {
		r += e.cns.Rejects()
	}
	return r
}

// Trigger starts a reset at this node (overflow observed locally). It is a
// no-op if one is already running.
func (e *Engine) Trigger() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.phase == phaseIdle {
		e.enterWrapLocked()
		e.emitLocked(EventTrigger, e.epoch, 0)
	}
}

func (e *Engine) enterWrapLocked() {
	if e.phase != phaseIdle {
		return
	}
	e.phase = phaseWrap
	e.scrubLocked()
}

// scrubLocked clears all per-epoch soft state: peer evidence, the
// consensus instance, and the proposal flag. Called on wrap entry, on
// commit, and on epoch adoption, so a later instance can never observe
// leftovers from a pre-adoption reset.
func (e *Engine) scrubLocked() {
	for i := range e.seen {
		e.seen[i] = seenEntry{}
	}
	e.cns = nil
	e.proposed = false
}

// Restart clears the engine to its post-boot state (epoch 0, idle). Used
// by the detectable-restart path; the node re-learns the cluster epoch via
// decide replay from any committed peer.
func (e *Engine) Restart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.phase = phaseIdle
	e.epoch = 0
	e.scrubLocked()
	e.lastDecided, e.lastDecidedEp, e.hasDecided = nil, 0, false
}

// adoptLocked jumps to a newer epoch observed on the wire, scrubbing every
// map so stale quorum bookkeeping cannot leak into the adopted epoch.
func (e *Engine) adoptLocked(epoch int64) {
	e.epoch = epoch
	e.phase = phaseIdle
	e.scrubLocked()
}

// frozenQuorumLocked counts nodes currently evidencing frozen state —
// this node per its live flag, peers per their latest MAXIDX — against a
// majority. Proposing on a majority (rather than all n) is what lets the
// reset commit with the former coordinator crashed.
func (e *Engine) frozenQuorumLocked(selfFrozen bool) bool {
	count := 0
	if selfFrozen {
		count++
	}
	for j, s := range e.seen {
		if j != e.id && s.valid && s.frozen {
			count++
		}
	}
	return count >= e.n/2+1
}

// absorbLocked folds a consensus-machine result into an engine result.
func (e *Engine) absorbLocked(cr consensus.Result, res *Result) {
	for _, o := range cr.Outputs {
		res.send(o.To, o.Msg)
	}
	if cr.Decided {
		e.decideLocked(e.epoch, cr.Value, res)
	}
}

// decideLocked records a decision for epoch and commits: the caller
// installs the decided vector, and this node moves to epoch+1. Multi-epoch
// catch-up takes the same path with a later epoch.
func (e *Engine) decideLocked(epoch int64, v types.RegVector, res *Result) {
	d := consensus.DigestReg(v)
	e.lastDecided, e.lastDecidedEp, e.hasDecided = v, epoch, true
	e.emitLocked(EventDecide, epoch, d)
	e.epoch = epoch + 1
	e.phase = phaseIdle
	e.scrubLocked()
	res.Commit = true
	res.Install = v
	e.emitLocked(EventCommit, e.epoch, d)
}

// replayLocked answers stale-epoch traffic with the last decided value so
// the laggard can install it and jump epochs — the coordinator-free
// replacement for the old DONE-collection phase. floor is the lowest
// decided epoch that would actually teach the sender something new;
// replaying below it would ping-pong decides between two up-to-date nodes
// forever.
func (e *Engine) replayLocked(to int, floor int64, res *Result) {
	if e.hasDecided && e.lastDecidedEp >= floor {
		res.send(to, &wire.Message{
			Type: wire.TCnsDecide, Epoch: e.lastDecidedEp, TS: 1,
			Reg: e.lastDecided.Share(),
		})
	}
}

// ReplayFor returns a decide-replay message for a peer evidently still
// working at staleEpoch (it sent a data-plane request stamped with it), or
// nil when this engine knows no decision that would teach the peer
// anything. The fenced transport uses it so a node that slept through a
// whole reset — crashed from before the freeze until after every peer
// committed and went idle — still learns the decided epoch from its first
// retransmitted request, with no coordinator re-broadcasting commits.
func (e *Engine) ReplayFor(staleEpoch int64) *wire.Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasDecided || e.lastDecidedEp < staleEpoch {
		return nil
	}
	return &wire.Message{
		Type: wire.TCnsDecide, Epoch: e.lastDecidedEp, TS: 1,
		Reg: e.lastDecided.Share(),
	}
}

// OnTick drives gossip, proposal, and consensus timers. reg is the node's
// current register vector (already merged with everything received so
// far); frozen reports whether the node has drained its in-flight
// operations.
func (e *Engine) OnTick(reg types.RegVector, frozen bool) Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res Result
	if e.phase != phaseWrap {
		return res
	}
	e.seen[e.id] = seenEntry{vc: reg.VC(), frozen: frozen, valid: true}
	fr := int64(0)
	if frozen {
		fr = 1
	}
	// reg is already a shared-structure snapshot (Inner.RegSnapshot): no
	// deep copy on the wrap tick — the PR-3 immutable-payload contract.
	res.send(Broadcast, &wire.Message{Type: wire.TMaxIdx, Epoch: e.epoch, TS: fr, Reg: reg})
	e.maybeProposeLocked(reg, frozen, &res)
	if e.cns != nil {
		e.absorbLocked(e.cns.OnTick(), &res)
	}
	return res
}

func (e *Engine) maybeProposeLocked(reg types.RegVector, frozen bool, res *Result) {
	if e.proposed || !frozen || !e.frozenQuorumLocked(frozen) {
		return
	}
	if e.cns == nil {
		e.cns = consensus.NewMachine(e.id, e.n, e.epoch)
	}
	e.proposed = true
	e.emitLocked(EventPropose, e.epoch, consensus.DigestReg(reg))
	e.absorbLocked(e.cns.Propose(reg), res)
}

// OnMessage processes one reset-plane message. reg and frozen are as in
// OnTick. The caller routes every IsResetType message here. The sender id
// is bounds-checked at entry: a corrupted From outside [0,n) (or forging
// this node's own id) is counted and dropped before it can touch any
// quorum bookkeeping.
func (e *Engine) OnMessage(m *wire.Message, reg types.RegVector, frozen bool) Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res Result
	from := int(m.From)
	if from < 0 || from >= e.n || from == e.id || m.Epoch < 0 {
		return e.rejectLocked(&res)
	}

	switch m.Type {
	case wire.TMaxIdx:
		if len(m.Reg) != e.n {
			return e.rejectLocked(&res)
		}
		switch {
		case m.Epoch == e.epoch:
			e.enterWrapLocked() // overflow noticed elsewhere: join the reset
			e.seen[from] = seenEntry{vc: m.Reg.VC(), frozen: m.TS == 1, valid: true}
			res.MergeReg = m.Reg
			e.maybeProposeLocked(reg, frozen, &res)
		case m.Epoch < e.epoch:
			// The sender missed a decision: replay it.
			e.replayLocked(from, m.Epoch, &res)
		default: // m.Epoch > e.epoch
			// We are behind (corrupted epoch or missed an entire reset):
			// adopt the newer epoch, scrubbed, and join its wrap.
			e.adoptLocked(m.Epoch)
			e.enterWrapLocked()
			e.seen[from] = seenEntry{vc: m.Reg.VC(), frozen: m.TS == 1, valid: true}
			res.MergeReg = m.Reg
		}

	case wire.TCnsDecide:
		if !consensus.ValidShape(m, e.n) {
			return e.rejectLocked(&res)
		}
		if m.Epoch >= e.epoch {
			e.decideLocked(m.Epoch, m.Reg, &res)
		} else {
			// A decide for an epoch we already passed: the sender sits at
			// m.Epoch+1; replay only if we know a decision newer than that
			// (an equal-knowledge exchange must go silent, not echo).
			e.replayLocked(from, m.Epoch+1, &res)
		}

	case wire.TCnsPrep, wire.TCnsProm, wire.TCnsAcc, wire.TCnsAccAck:
		if !consensus.ValidShape(m, e.n) {
			return e.rejectLocked(&res)
		}
		switch {
		case m.Epoch == e.epoch:
			// Consensus traffic for our epoch proves a reset is in
			// progress: freeze and participate (as acceptor at least).
			e.enterWrapLocked()
			if e.cns == nil {
				e.cns = consensus.NewMachine(e.id, e.n, e.epoch)
			}
			cr := e.cns.OnMessage(m)
			if cr.Rejected {
				res.Rejected = true
			}
			e.absorbLocked(cr, &res)
		case m.Epoch < e.epoch:
			e.replayLocked(from, m.Epoch, &res)
		default:
			e.adoptLocked(m.Epoch)
			e.enterWrapLocked()
			e.cns = consensus.NewMachine(e.id, e.n, e.epoch)
			e.absorbLocked(e.cns.OnMessage(m), &res)
		}

	default:
		// Misrouted: hostile, count and drop.
		return e.rejectLocked(&res)
	}
	return res
}

func (e *Engine) rejectLocked(res *Result) Result {
	e.rejects++
	res.Rejected = true
	return *res
}

// DebugState is a snapshot of an engine's internals for diagnostics.
type DebugState struct {
	Phase      uint8
	Epoch      int64
	SeenFrozen int // peers (incl. self slot) currently evidencing frozen
	Proposed   bool
	HasDecided bool
	Rejects    uint64
}

// Debug returns a snapshot of the engine's internals.
func (e *Engine) Debug() DebugState {
	e.mu.Lock()
	defer e.mu.Unlock()
	fr := 0
	for _, s := range e.seen {
		if s.valid && s.frozen {
			fr++
		}
	}
	return DebugState{
		Phase: uint8(e.phase), Epoch: e.epoch, SeenFrozen: fr,
		Proposed: e.proposed, HasDecided: e.hasDecided, Rejects: e.rejects,
	}
}

// IsResetType reports whether t belongs to the reset control plane: MAXIDX
// and the consensus messages.
func IsResetType(t wire.Type) bool {
	return t == wire.TMaxIdx || consensus.IsConsensusType(t)
}
