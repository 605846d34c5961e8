package node

import (
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// call is one in-flight quorum interaction: a broadcast retransmitted until
// enough distinct nodes acknowledge.
type call struct {
	id      uint64
	obj     int32 // object the call is scoped to; only same-object acks match
	accept  func(*wire.Message) bool
	mu      chan struct{} // 1-buffered semaphore guarding senders/msgs
	senders map[int32]struct{}
	msgs    []*wire.Message
	notify  simclock.Signal
}

func (c *call) offer(m *wire.Message) {
	if m.Obj != c.obj || !c.accept(m) {
		return
	}
	c.mu <- struct{}{}
	if _, dup := c.senders[m.From]; !dup {
		c.senders[m.From] = struct{}{}
		// Shallow clone: one arriving message may be accepted by several
		// concurrent calls (and is also handed to the algorithm's handler).
		// Each call gets a private envelope, but the payload slices — the
		// O(n·ν) Reg vector of an ack — are shared: arriving messages are
		// immutable by the transport contract, and the algorithms' merge
		// paths only read Rec payloads (adopting entries by reference).
		c.msgs = append(c.msgs, m.ShallowClone())
		c.notify.Set()
	}
	<-c.mu
}

func (c *call) snapshot() (int, []*wire.Message) {
	c.mu <- struct{}{}
	n := len(c.senders)
	msgs := make([]*wire.Message, len(c.msgs))
	copy(msgs, c.msgs)
	<-c.mu
	return n, msgs
}

// offer routes an arriving message to every registered call; each call's
// acceptance predicate decides whether the message is one of its acks.
// The active-call list is maintained copy-on-write by Call (calls register
// and deregister rarely — once per quorum operation), so the dispatcher
// reads it with one atomic load and zero allocation per arriving message.
func (r *Runtime) offer(m *wire.Message) {
	if calls := r.collector.active.Load(); calls != nil {
		for _, c := range *calls {
			c.offer(m)
		}
	}
}

// rebuildActiveLocked publishes a fresh snapshot of the registered calls.
// Caller holds r.mu.
func (r *Runtime) rebuildActiveLocked() {
	calls := make([]*call, 0, len(r.collector.calls))
	for _, c := range r.collector.calls {
		calls = append(calls, c)
	}
	r.collector.active.Store(&calls)
}

// CallOpts parameterises a quorum call.
type CallOpts struct {
	// Build constructs the request to (re)transmit. It is invoked once per
	// transmission round, so a "repeat broadcast reg" in the pseudocode
	// naturally re-reads current state. Must be safe to call from the
	// caller's goroutine (take the algorithm lock inside if needed).
	Build func() *wire.Message
	// Accept reports whether an arriving message is an acknowledgment of
	// this call. It runs on the dispatcher goroutine and must only rely on
	// data captured immutably when the call began (e.g. an ssn value or a
	// cloned lReg vector).
	Accept func(*wire.Message) bool
	// Quorum is the number of distinct acknowledging nodes required;
	// 0 means a majority (⌊n/2⌋+1).
	Quorum int
	// Stop, if non-nil, is an early-exit condition checked before every
	// transmission round and after every acknowledgment (the
	// "(S∩Δ)=∅ or ..." disjunct of Algorithm 3 line 89). It may take the
	// algorithm lock.
	Stop func() bool
}

// Call performs the paper's "repeat broadcast … until … received from a
// majority" pattern: it broadcasts Build()'s message, retransmits every
// RetxInterval, and returns the set of accepted acknowledgments (one per
// distinct sender — the Rec set merged by the algorithms) once the quorum is
// reached or Stop reports true. It aborts with ErrCrashed/ErrClosed if the
// node fails or shuts down mid-call, and retries across an
// undetectable restart are the caller's responsibility.
//
// Call is scoped to object 0 — the only object a single-object runtime
// has. Multi-object algorithms call through their ObjView, which stamps
// and scopes to its own object id.
func (r *Runtime) Call(o CallOpts) ([]*wire.Message, error) {
	return r.callObj(0, o)
}

func (r *Runtime) callObj(obj int32, o CallOpts) ([]*wire.Message, error) {
	quorum := o.Quorum
	if quorum <= 0 {
		quorum = r.Majority()
	}

	crashEv, _, err := r.crashSignal()
	if err != nil {
		return nil, err
	}

	c := &call{
		obj:     obj,
		accept:  o.Accept,
		mu:      make(chan struct{}, 1),
		senders: make(map[int32]struct{}),
		notify:  r.clk.NewSignal(),
	}
	r.mu.Lock()
	r.collector.next++
	c.id = r.collector.next
	r.collector.calls[c.id] = c
	r.rebuildActiveLocked()
	// Captured under the same lock as registration: an AbortInflightCalls
	// that fires before this point replaces the event first, so this call
	// (which it could not have meant to abort) waits on the fresh one.
	abortEv := r.abortEv
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.collector.calls, c.id)
		r.rebuildActiveLocked()
		r.mu.Unlock()
	}()

	retx := r.clk.NewTicker(r.opts.RetxInterval)
	defer retx.Stop()

	transmit := func() {
		if m := o.Build(); m != nil {
			r.Broadcast(m)
		}
	}

	if o.Stop != nil && o.Stop() {
		_, msgs := c.snapshot()
		return msgs, nil
	}
	transmit()

	ws := []simclock.Waitable{r.closeEv, crashEv, c.notify, retx, abortEv}
	for {
		switch r.clk.Wait(ws...) {
		case 0:
			return nil, ErrClosed
		case 1:
			return nil, ErrCrashed
		case 4:
			return nil, ErrAborted
		case 2:
			n, msgs := c.snapshot()
			if n >= quorum {
				return msgs, nil
			}
			if o.Stop != nil && o.Stop() {
				return msgs, nil
			}
		case 3:
			if o.Stop != nil && o.Stop() {
				_, msgs := c.snapshot()
				return msgs, nil
			}
			transmit()
		}
	}
}

// WaitUntil is ObjView.WaitUntil on object 0 — the only object a
// single-object runtime has.
func (r *Runtime) WaitUntil(check func() bool) error {
	return r.objs[0].view.WaitUntil(check)
}
