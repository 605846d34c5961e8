package node

import (
	"sync"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// call is one in-flight quorum interaction: a broadcast retransmitted until
// enough distinct nodes acknowledge.
type call struct {
	id       uint64
	obj      int32 // object the call is scoped to; only same-object acks match
	accept   func(*wire.Message) bool
	quorum   int
	wakeEach bool // CallOpts.Stop is set: it is re-checked after every ack
	notify   simclock.Signal

	mu      sync.Mutex // guards the fields below
	senders []bool     // indexed by node id; len is the cluster size
	msgs    []*wire.Message
	taken   bool // the caller holds its Rec set; later acks are dropped
}

func newCall(obj int32, n, quorum int, accept func(*wire.Message) bool, wakeEach bool, notify simclock.Signal) *call {
	return &call{
		obj:      obj,
		accept:   accept,
		quorum:   quorum,
		wakeEach: wakeEach,
		notify:   notify,
		senders:  make([]bool, n),
		msgs:     make([]*wire.Message, 0, n),
	}
}

// offer keeps m if it is an ack from a node not yet counted, and wakes the
// caller when the quorum is reached (or on every kept ack when Stop must be
// re-checked). A From outside [0, n) names no node and is not counted.
func (c *call) offer(m *wire.Message) {
	if m.Obj != c.obj || !c.accept(m) {
		return
	}
	c.mu.Lock()
	if c.taken || m.From < 0 || int(m.From) >= len(c.senders) || c.senders[m.From] {
		c.mu.Unlock()
		return
	}
	c.senders[m.From] = true
	// Shallow clone: one arriving message may be accepted by several
	// concurrent calls (and is also handed to the algorithm's handler).
	// Each call gets a private envelope, but the payload slices — the
	// O(n·ν) Reg vector of an ack — are shared: arriving messages are
	// immutable by the transport contract, and the algorithms' merge
	// paths only read Rec payloads (adopting entries by reference).
	c.msgs = append(c.msgs, m.ShallowClone())
	wake := c.wakeEach || len(c.msgs) == c.quorum
	c.mu.Unlock()
	if wake {
		c.notify.Set()
	}
}

// kept returns the number of acks kept so far, one per distinct sender.
func (c *call) kept() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// take ends the collection and returns the first k kept acks (all of them
// if k < 0) as the Rec set. Nothing is appended to it afterwards, so the
// caller owns the slice.
func (c *call) take(k int) []*wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taken = true
	if k < 0 || k > len(c.msgs) {
		k = len(c.msgs)
	}
	return c.msgs[:k]
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
// The caller wakes once, when the quorum-th distinct sender's ack arrives;
// with Stop set it wakes on every accepted ack instead, to re-check Stop.
// Acks from outside [0, N) are not counted, and acks arriving after Call
// has taken its Rec set are neither copied nor kept.
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

	c := newCall(obj, r.n, quorum, o.Accept, o.Stop != nil, r.clk.NewSignal())
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
		return c.take(-1), nil
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
			// Acks kept while Stop runs are left out of the Rec set.
			k := c.kept()
			if k >= quorum || (o.Stop != nil && o.Stop()) {
				return c.take(k), nil
			}
		case 3:
			if o.Stop != nil && o.Stop() {
				return c.take(-1), nil
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
