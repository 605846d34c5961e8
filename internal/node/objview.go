package node

import (
	"sync/atomic"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// ObjView is one hosted object's face of a Runtime: the handle AddObject
// returns and the algorithms hold as their runtime. It embeds the Runtime,
// so node-level surface (ID, N, Majority, Counters, lifecycle, …) promotes
// unchanged, and overrides exactly the message-producing methods — Send,
// Broadcast, SendToMany, GossipTo, Call — to stamp the view's object id on
// every outgoing message, plus WaitUntil, which waits on the view's own
// wake-up (Kick, Wake and WaitUntil are per object: one object's client
// neither runs nor wakes another's). Stamping is what keys the
// receiving dispatcher's object table; acks come back carrying the same id
// (servers reply through their own view of the same object), so quorum
// calls match only their object's acks.
//
// In a single-object runtime the view stamps object id 0 onto messages
// whose Obj is already 0 — the wire bytes, and therefore all existing
// traces, are bit-for-bit what they were before multi-object hosting
// existed.
type ObjView struct {
	*Runtime
	obj int32

	kicked atomic.Bool     // Kick marks it; the loop's next iteration clears it
	done   simclock.Signal // Wake sets it; WaitUntil consumes it
}

// Bind attaches alg to opts.Attach when set (joining an existing
// multi-object host runtime as its next object) and otherwise constructs a
// fresh single-object runtime — the one-line constructor every algorithm
// uses, keeping their signatures identical across both deployment shapes.
func Bind(id int, tr netsim.Transport, alg Algorithm, opts Options) *ObjView {
	if host := opts.Attach; host != nil {
		if host.id != id {
			panic("node: Bind attach id mismatch")
		}
		return host.AddObject(alg)
	}
	return NewHost(id, tr, opts).AddObject(alg)
}

// Obj returns the view's object id within its host runtime.
func (v *ObjView) Obj() int { return int(v.obj) }

// stamp writes the view's object id into m's envelope. Arriving messages
// have private envelopes (the transports' copy-on-write contract), so
// stamping a relayed message is as safe as the transport stamping
// From/To/Seq; payload slices are never touched.
func (v *ObjView) stamp(m *wire.Message) *wire.Message {
	if m != nil {
		m.Obj = v.obj
	}
	return m
}

// Kick asks the do-forever loop for an on-demand iteration of this object
// (OnDemand.ServePending) now, instead of leaving the work the caller just
// parked to the next LoopInterval tick. Sticky and coalescing: kicks that
// arrive while the loop is busy cost one iteration when it returns.
func (v *ObjView) Kick() {
	v.kickCount.Add(1)
	v.kicked.Store(true)
	v.kick.Set()
}

// Wake makes this object's blocked WaitUntil re-evaluate its condition
// now. The algorithm calls it after a state change a client may be waiting
// for (a parked write finished, the own task's result landed).
func (v *ObjView) Wake() { v.done.Set() }

// WaitUntil blocks until check() returns true, implementing the
// pseudocode's "wait until" statements. check runs once on entry, then
// after every Wake, and — so that a lost or never-sent wake-up costs at
// most one LoopInterval, never the operation — on a LoopInterval ticker.
// It returns ErrCrashed/ErrClosed if the node fails or shuts down
// meanwhile. check may take the algorithm lock.
func (v *ObjView) WaitUntil(check func() bool) error {
	crashEv, _, err := v.crashSignal()
	if err != nil {
		return err
	}
	t := v.clk.NewTicker(v.opts.LoopInterval)
	defer t.Stop()
	ws := []simclock.Waitable{v.closeEv, crashEv, v.done, t}
	for {
		if check() {
			return nil
		}
		switch v.clk.Wait(ws...) {
		case 0:
			return ErrClosed
		case 1:
			return ErrCrashed
		}
	}
}

// Send transmits m to node `to` on this view's object.
func (v *ObjView) Send(to int, m *wire.Message) {
	v.Runtime.Send(to, v.stamp(m))
}

// Broadcast sends m to every node (including the sender) on this view's
// object.
func (v *ObjView) Broadcast(m *wire.Message) {
	v.Runtime.Broadcast(v.stamp(m))
}

// SendToMany transmits m to every node in to on this view's object.
func (v *ObjView) SendToMany(to []int, m *wire.Message) {
	v.Runtime.SendToMany(to, v.stamp(m))
}

// GossipTo sends build(k) to every peer on this view's object.
func (v *ObjView) GossipTo(build func(k int) *wire.Message) {
	v.Runtime.GossipTo(func(k int) *wire.Message {
		return v.stamp(build(k))
	})
}

// Call performs a quorum call scoped to this view's object: the
// (re)transmitted request is stamped with the object id, and only acks
// carrying the same id are offered to the call's acceptance predicate —
// two objects' concurrent calls never see each other's acks even when the
// algorithms' predicates (ssn matching and the like) would collide.
func (v *ObjView) Call(o CallOpts) ([]*wire.Message, error) {
	build := o.Build
	o.Build = func() *wire.Message {
		return v.stamp(build())
	}
	return v.Runtime.callObj(v.obj, o)
}
