package kernel

import (
	"math/rand"
	"sync"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Shell is the surface the algorithms share around their State: the quorum
// and parked writes, the WRITE, SNAPSHOT and GOSSIP server, one full
// iteration's cleaning and gossip, and the inspection, fault and §5 reset
// hooks that package bounded and package core drive. Each method takes the
// algorithm's own mutex around one kernel step. An algorithm embeds a
// Shell, so these methods are its own unless it overrides them.
type Shell struct {
	rt *node.ObjView
	g  *Gossip
	mu *sync.Mutex
	k  *State
	// baseline is a Delporte-Gallet algorithm, which Algorithm 1 hardens:
	// no gossip and no ts merge (the paper's boxed lines are off).
	baseline bool
	pending  *pendingWrite // guarded by mu
}

// pendingWrite is a write parked for the do-forever loop.
type pendingWrite struct {
	val  types.Value
	done chan struct{}
	err  error
}

// NewShell binds the algorithm's runtime view, gossip layer, mutex and the
// State that mutex guards.
func NewShell(rt *node.ObjView, g *Gossip, mu *sync.Mutex, k *State, baseline bool) Shell {
	return Shell{rt: rt, g: g, mu: mu, k: k, baseline: baseline}
}

// Start launches the node's goroutines.
func (s *Shell) Start() { s.rt.Start() }

// Close permanently stops the node.
func (s *Shell) Close() { s.rt.Close() }

// Runtime exposes the lifecycle controls (crash/resume) and counters.
func (s *Shell) Runtime() *node.Runtime { return s.rt.Runtime }

// Write is the quorum write (lines 12–16/84): install (v, ts) locally,
// repeat-broadcast WRITE(lReg) until a majority acknowledges a vector
// ⪰ lReg, and merge the replies. v must already be frozen. Algorithm 1's
// client runs it, and so do the loops of Algorithms 2 and 3.
func (s *Shell) Write(v types.Value) error {
	s.mu.Lock()
	lReg := s.k.Write(v)
	s.mu.Unlock()

	recs, err := s.rt.Call(node.CallOpts{
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
	s.Merge(recs)
	return nil
}

// ParkWrite is the client side of the preemptible write of Algorithms 2
// and 3 (lines 43–44/81): park v for the do-forever loop, kick the loop so
// it runs the write now rather than at the next tick, and wait for it. The
// caller serialises its client operations.
func (s *Shell) ParkWrite(v types.Value) error {
	// Clone the caller's value once at the API boundary; it is immutable
	// from here on and the loop installs it without further copying.
	pw := &pendingWrite{val: types.Freeze(v.Clone()), done: make(chan struct{})}
	s.mu.Lock()
	s.pending = pw
	s.mu.Unlock()
	s.rt.Kick()

	err := s.rt.WaitUntil(func() bool {
		select {
		case <-pw.done:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return err
	}
	return pw.err
}

// ServeParked is the loop side (lines 38/79): run the parked write, if
// any, and wake its client.
func (s *Shell) ServeParked() {
	s.mu.Lock()
	pw := s.pending
	s.pending = nil
	s.mu.Unlock()
	if pw != nil {
		pw.err = s.Write(pw.val)
		close(pw.done)
		s.rt.Wake()
	}
}

// Merge is macro merge(Rec) over a quorum call's replies. The baseline
// folds the vectors only.
func (s *Shell) Merge(recs []*wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseline {
		s.k.Fold(recs)
		return
	}
	s.k.Merge(recs)
}

// Tick is one full iteration of the shared do-forever loop (lines 8–11,
// 73–78): clean locally, then gossip. Stale SNAPSHOTack deletion (lines
// 9/74) is structural: quorum-call collectors match the exact in-flight
// ssn and are dismantled when the call returns. The baseline has no loop.
func (s *Shell) Tick() {
	if s.baseline {
		return
	}
	s.mu.Lock()
	r := s.k.Clean()
	out := s.k.Outbox()
	s.mu.Unlock()
	s.g.Repaired(r)
	s.g.Send(out)
}

// HandleMessage is the server side the algorithms share (lines 24–31,
// 98–107). The baseline ignores GOSSIP, which it never sends.
func (s *Shell) HandleMessage(m *wire.Message) {
	switch m.Type {
	case wire.TGossip:
		if s.baseline {
			return
		}
		s.mu.Lock()
		echo, landed := s.k.AdoptGossip(m)
		s.mu.Unlock()
		if landed {
			s.rt.Wake() // a Snapshot is waiting for exactly this
		}
		s.g.Echo(int(m.From), echo)

	case wire.TGossipAck:
		s.g.Record(m)

	case wire.TWrite:
		s.mu.Lock()
		reply := s.k.ServeWrite(m)
		s.mu.Unlock()
		s.rt.Send(int(m.From), reply)

	case wire.TSnapshot:
		s.mu.Lock()
		reply, fwd := s.k.ServeSnapshot(m)
		s.mu.Unlock()
		s.rt.Send(int(m.From), reply)
		if fwd != nil {
			s.rt.Send(int(m.From), fwd)
		}
	}
}

// locked runs f under mu.
func locked[T any](mu *sync.Mutex, f func() T) T {
	mu.Lock()
	defer mu.Unlock()
	return f()
}

// StateSummary returns a consistent copy of the node's state (State.View).
func (s *Shell) StateSummary() View { return locked(s.mu, s.k.View) }

// LocalInvariantHolds runs State.LocalInvariantHolds under the lock.
func (s *Shell) LocalInvariantHolds() bool { return locked(s.mu, s.k.LocalInvariantHolds) }

// MaxIndex runs State.MaxIndex under the lock.
func (s *Shell) MaxIndex() int64 { return locked(s.mu, s.k.MaxIndex) }

// RegSnapshot returns a shared-structure snapshot of the register vector:
// the bounded-counter watcher polls it every tick, so it must not
// deep-copy.
func (s *Shell) RegSnapshot() types.RegVector {
	return locked(s.mu, func() types.RegVector { return s.k.Reg.Share() })
}

// MergeReg runs State.MergeReg under the lock.
func (s *Shell) MergeReg(r types.RegVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k.MergeReg(r)
}

// AdoptSNS runs State.AdoptSNS under the lock.
func (s *Shell) AdoptSNS(sns int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k.AdoptSNS(sns)
}

// InstallReset runs State.InstallReset under the lock and invalidates the
// ack table: acks from before a global reset describe collapsed indices.
func (s *Shell) InstallReset(r types.RegVector) {
	s.mu.Lock()
	s.k.InstallReset(r)
	s.mu.Unlock()
	s.g.Reset()
}

// RestartDetectable performs the paper's detectable restart: the node
// crashes, re-initialises every variable, loses its channel content, and
// resumes. Its past writes survive only in the other nodes' registers and
// flow back by gossip within O(1) cycles.
func (s *Shell) RestartDetectable() {
	s.rt.RecordEvent("detectable-restart", "variables re-initialised, channels drained")
	s.rt.RestartDetectable(func() {
		s.mu.Lock()
		s.k.Reinit()
		s.pending = nil
		s.mu.Unlock()
		s.g.Reset()
	})
}

// CorruptAckTable fills the delta-gossip ack table with arbitrary values.
func (s *Shell) CorruptAckTable(rng *rand.Rand) { s.g.Corrupt(rng) }
