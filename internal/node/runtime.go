// Package node provides the per-node runtime every algorithm in this
// repository is built on. It realises the paper's execution model (§2):
//
//   - a do-forever loop whose body the algorithm supplies. It is
//     event-driven: a full iteration (Tick) runs every LoopInterval, and a
//     client operation that parks work for the loop kicks it (ObjView.Kick)
//     so that an on-demand iteration (OnDemand.ServePending) picks the work
//     up now instead of at the next tick. Asynchronous cycles carry no
//     wall-clock duration in the paper, so both are legal steps; only the
//     full iterations gossip and count as cycles (LoopCount), and the
//     ticker is always served first, so LoopInterval bounds the gap
//     between two of them however busy the clients keep the loop;
//   - message arrival events dispatched to the algorithm's handler
//     (HandleMessage), one at a time per node, mirroring the paper's atomic
//     steps;
//   - the quorum service the paper assumes ("deals with packet loss,
//     reordering, and duplication"): Call retransmits a request until a
//     majority of distinct nodes acknowledge it, or an algorithm-supplied
//     early-exit condition holds;
//   - crash, resume (undetectable restart) and detectable-restart
//     lifecycle transitions used by the failure experiments.
//
// Threading model: one dispatcher goroutine per node delivers messages, one
// loop goroutine runs every iteration (full and on-demand alike, so an
// algorithm's Tick and ServePending never overlap), and client operations
// run on their callers' goroutines, blocking in WaitUntil until the
// algorithm signals their completion (ObjView.Wake). Algorithms guard their
// state with their own mutex; the runtime never holds it. Ack acceptance
// predicates run on the dispatcher goroutine and must only touch data
// captured immutably at call time.
//
// A Runtime can host many independent algorithm instances — one snapshot
// object each — multiplexed over the one transport and dispatcher (see
// objview.go): messages carry a wire-level object id, and the dispatcher
// indexes the object table with it (bounds-guarded: a corrupted id is
// metered and dropped, never indexed). The objects share one FIFO inbox,
// so a hot object's backlog delays a cold object's messages, bounded only
// by the inbox's drop-oldest capacity. Single-object runtimes are the
// len(objs)==1 special case of the same code path, with every message
// carrying object id 0.
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Lifecycle and operation errors.
var (
	ErrCrashed = errors.New("node: node is crashed")
	ErrClosed  = errors.New("node: runtime closed")
	ErrAborted = errors.New("node: operation aborted")
)

// Algorithm is the behaviour a protocol plugs into a Runtime.
type Algorithm interface {
	// HandleMessage processes one arriving message (server side and ack
	// routing). It must not block indefinitely.
	HandleMessage(m *wire.Message)
	// Tick executes one full iteration of the do-forever loop.
	Tick()
}

// OnDemand is implemented by algorithms whose client operations park work
// for the do-forever loop (Algorithms 2 and 3: the pending write and the
// snapshot tasks). After ObjView.Kick the loop calls ServePending at once,
// on the loop goroutine, instead of leaving the work to the next Tick.
type OnDemand interface {
	// ServePending runs the part of the loop body that executes parked
	// client work, and nothing paced by LoopInterval: no gossip, no
	// retransmission, no cleaning. Tick must serve the same work itself.
	ServePending()
}

// Options tunes a Runtime. The zero value gets sensible defaults.
type Options struct {
	// LoopInterval is the period of the full do-forever iterations
	// (default 2ms): it paces gossip and the cycle count, and bounds how
	// long a blocked client goes without re-checking its wait condition
	// should a wake-up be lost. It does not delay client work, which the
	// loop serves on demand (see OnDemand).
	LoopInterval time.Duration
	// RetxInterval is the retransmission period of unacknowledged quorum
	// calls (default 5ms).
	RetxInterval time.Duration
	// Clock drives the do-forever loop, retransmission and every blocking
	// wait. nil means the real clock; pass the cluster's *simclock.Virtual
	// to run the node as deterministic scheduler tasks.
	Clock simclock.Clock
	// Journal, when non-nil, receives self-stabilization events the
	// algorithm reports via RecordEvent (corruption detections, resets,
	// detectable restarts) for the /statusz observability endpoint.
	Journal *obs.Journal
	// Attach, when non-nil, makes Bind join this existing host runtime as
	// its next object instead of constructing a fresh single-object
	// runtime; the host's tuning fields govern and the rest of this
	// Options value is ignored. This is how core builds K-object nodes
	// without changing any algorithm constructor's signature.
	Attach *Runtime
}

// MaxObjects bounds how many algorithm instances one Runtime may host. It
// also bounds the object-id range the dispatcher will accept off the wire.
const MaxObjects = 4096

func (o Options) withDefaults() Options {
	if o.LoopInterval <= 0 {
		o.LoopInterval = 2 * time.Millisecond
	}
	if o.RetxInterval <= 0 {
		o.RetxInterval = 5 * time.Millisecond
	}
	o.Clock = simclock.Or(o.Clock)
	return o
}

// Runtime is the per-node execution engine.
type Runtime struct {
	id   int
	n    int
	tr   netsim.Transport
	opts Options

	// objs is the object table: one hosted algorithm instance per object
	// id. Built by AddObject before Start, immutable afterwards — the
	// dispatcher and loop goroutines read it without synchronisation.
	objs    []objSlot
	started atomic.Bool

	clk simclock.Clock
	ctr *metrics.Counters

	// crashed is read on every dispatched message and every send, so it
	// is an atomic rather than a field under mu; mu still serialises the
	// lifecycle transitions (Crash/Resume/Close) that write it.
	crashed atomic.Bool

	mu        sync.Mutex
	closed    bool
	crashGen  uint64         // incremented on every crash, for call abortion
	crashEv   simclock.Event // fired on crash; replaced on resume
	abortEv   simclock.Event // fired by AbortInflightCalls; then replaced
	closeEv   simclock.Event
	wg        *simclock.Group
	collector struct {
		next  uint64
		calls map[uint64]*call
		// active is a copy-on-write snapshot of calls' values, rebuilt on
		// (rare) register/deregister so the dispatcher's offer path reads
		// the list with one atomic load and no per-message allocation.
		active atomic.Pointer[[]*call]
	}

	kick          simclock.Signal // set by ObjView.Kick: run an on-demand iteration now
	loopCount     atomic.Int64    // full iterations
	lastTick      atomic.Int64    // clock nanos at the end of the latest full iteration
	kickCount     atomic.Int64    // ObjView.Kick calls
	onDemandCount atomic.Int64    // on-demand iterations that served an object

	// Broadcast fast path, resolved once at construction: the transport's
	// optional SendMany implementation (nil if absent) and the precomputed
	// recipient sets, so the hot path allocates neither.
	many   netsim.ManySender
	allTo  []int // 0..n-1: broadcast includes the sender
	peerTo []int // 0..n-1 minus self: gossip excludes the sender
}

// objSlot is one hosted object: its algorithm, the algorithm's optional
// OnDemand, resolved once at registration, and the view that carries the
// object's wake-up state.
type objSlot struct {
	alg      Algorithm
	onDemand OnDemand
	view     *ObjView
}

// NewRuntime creates a runtime for node id over tr running alg as object 0.
// Start must be called before messages flow. Further objects may be
// multiplexed onto the same runtime with AddObject before Start.
func NewRuntime(id int, tr netsim.Transport, alg Algorithm, opts Options) *Runtime {
	r := NewHost(id, tr, opts)
	if alg != nil {
		r.AddObject(alg)
	}
	return r
}

// NewHost creates a runtime with an empty object table. At least one
// algorithm must be attached with AddObject before Start.
func NewHost(id int, tr netsim.Transport, opts Options) *Runtime {
	opts = opts.withDefaults()
	opts.Attach = nil
	r := &Runtime{
		id:      id,
		n:       tr.N(),
		tr:      tr,
		opts:    opts,
		clk:     opts.Clock,
		ctr:     tr.Counters(),
		crashEv: opts.Clock.NewEvent(),
		abortEv: opts.Clock.NewEvent(),
		closeEv: opts.Clock.NewEvent(),
		wg:      opts.Clock.NewGroup(),
		kick:    opts.Clock.NewSignal(),
	}
	r.collector.calls = make(map[uint64]*call)
	r.many, _ = tr.(netsim.ManySender)
	r.allTo = make([]int, r.n)
	r.peerTo = make([]int, 0, r.n-1)
	for k := 0; k < r.n; k++ {
		r.allTo[k] = k
		if k != id {
			r.peerTo = append(r.peerTo, k)
		}
	}
	return r
}

// AddObject registers alg as the runtime's next object and returns the
// per-object view the algorithm sends and calls through. Must be called
// before Start; the object table is immutable once the dispatchers run.
func (r *Runtime) AddObject(alg Algorithm) *ObjView {
	if r.started.Load() {
		panic("node: AddObject after Start")
	}
	if len(r.objs) >= MaxObjects {
		panic(fmt.Sprintf("node: more than MaxObjects=%d objects", MaxObjects))
	}
	onDemand, _ := alg.(OnDemand)
	v := &ObjView{Runtime: r, obj: int32(len(r.objs)), done: r.clk.NewSignal()}
	r.objs = append(r.objs, objSlot{alg: alg, onDemand: onDemand, view: v})
	return v
}

// Objects returns the number of hosted algorithm instances.
func (r *Runtime) Objects() int { return len(r.objs) }

// slot bounds-checks m's object id against the object table. A transient
// fault may corrupt the id arbitrarily (the codec only rejects negative
// ids, since it cannot know the table size); an out-of-range id is metered
// as an invalid object and the message dropped — never indexed.
func (r *Runtime) slot(m *wire.Message) *objSlot {
	if o := int(m.Obj); o >= 0 && o < len(r.objs) {
		return &r.objs[o]
	}
	r.ctr.RecordInvalidObj()
	return nil
}

// ID returns this node's identifier.
func (r *Runtime) ID() int { return r.id }

// Counters exposes the transport's meters, so algorithms can account
// protocol-level decisions (delta vs full gossip) in the same place the
// transport meters the resulting traffic.
func (r *Runtime) Counters() *metrics.Counters { return r.tr.Counters() }

// N returns the cluster size.
func (r *Runtime) N() int { return r.n }

// Majority returns the quorum size ⌊n/2⌋+1.
func (r *Runtime) Majority() int { return r.n/2 + 1 }

// LoopCount returns the number of completed full do-forever iterations —
// the ones that clean, gossip and recur every LoopInterval; recovery
// experiments use it to measure asynchronous cycles. On-demand iterations
// are not counted: they do a subset of a full iteration's work, so counting
// them would only shorten the cycle.
func (r *Runtime) LoopCount() int64 { return r.loopCount.Load() }

// LoopKicks returns how many times a client operation kicked the loop.
func (r *Runtime) LoopKicks() int64 { return r.kickCount.Load() }

// OnDemandIterations returns how many on-demand iterations served at least
// one kicked object. It trails LoopKicks by the kicks a full iteration
// served first and by those that coalesced into one wake-up.
func (r *Runtime) OnDemandIterations() int64 { return r.onDemandCount.Load() }

// LastTick returns when the latest full do-forever iteration completed (the
// zero time before the first one) — the liveness signal /statusz reports.
func (r *Runtime) LastTick() time.Time {
	ns := r.lastTick.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// RecordEvent appends a self-stabilization event (a corruption detection,
// a reset, a detectable restart) to the configured journal. Safe to call
// with no journal configured; safe from any goroutine.
func (r *Runtime) RecordEvent(kind, detail string) {
	r.opts.Journal.Record(r.clk.Now(), r.id, kind, detail)
}

// Start launches the dispatcher and do-forever goroutines. Start is
// idempotent: a multi-object runtime is started through whichever hosted
// algorithm's Start runs first, and the rest are no-ops.
func (r *Runtime) Start() {
	if r.started.Swap(true) {
		return
	}
	if len(r.objs) == 0 {
		panic("node: Start with no objects attached")
	}
	r.wg.Add(2)
	r.clk.Go(fmt.Sprintf("node%d-dispatch", r.id), r.dispatch)
	r.clk.Go(fmt.Sprintf("node%d-loop", r.id), r.loop)
}

// Close permanently stops the runtime and waits for its goroutines. The
// transport must be closed separately (it is shared).
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.closeEv.Fire()
	if !r.crashed.Load() {
		r.crashed.Store(true)
		r.crashEv.Fire()
	}
	r.mu.Unlock()
	r.tr.CloseEndpoint(r.id) // unblock the dispatcher's Recv
	r.wg.Wait()
}

func (r *Runtime) dispatch() {
	defer r.wg.Done()
	for {
		m, ok := r.tr.Recv(r.id)
		if !ok {
			return
		}
		if r.closeEv.Fired() {
			return
		}
		if r.Crashed() {
			continue // a crashed node takes no steps; arriving messages are lost
		}
		slot := r.slot(m)
		if slot == nil {
			continue // corrupted object id: metered, dropped
		}
		slot.alg.HandleMessage(m)
		r.offer(m)
	}
}

func (r *Runtime) loop() {
	defer r.wg.Done()
	t := r.clk.NewTicker(r.opts.LoopInterval)
	defer t.Stop()
	ws := []simclock.Waitable{r.closeEv, t, r.kick}
	for {
		ready := r.clk.Wait(ws...)
		if ready == 0 {
			return
		}
		// The ticker goes first whenever both are ready (the real clock's
		// Wait picks among ready waitables at random), so clients that keep
		// the loop kicked cannot starve the full iteration.
		full := ready == 1 || r.clk.Poll(t)
		if r.Crashed() {
			continue
		}
		// A full iteration advances every hosted object: the paper's loop,
		// sequentially multiplexed (single-object runtimes take the
		// identical code path over a one-entry table); Tick serves parked
		// work too, so it absorbs a kick. An on-demand iteration runs only
		// the objects that were kicked, and only the work their clients
		// parked.
		served := false
		for i := range r.objs {
			s := &r.objs[i]
			kicked := s.view.kicked.Swap(false)
			switch {
			case full:
				s.alg.Tick()
			case kicked && s.onDemand != nil:
				s.onDemand.ServePending()
				served = true
			}
		}
		switch {
		case full:
			r.loopCount.Add(1)
			r.lastTick.Store(r.clk.Now().UnixNano())
		case served:
			r.onDemandCount.Add(1)
		}
	}
}

// Crashed reports whether the node is currently failed. Lock-free: it is
// on the per-message dispatch path and the per-send path.
func (r *Runtime) Crashed() bool { return r.crashed.Load() }

// Crash fails the node: it stops taking steps and every in-flight quorum
// call aborts with ErrCrashed. Messages arriving while crashed are lost.
func (r *Runtime) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed.Load() || r.closed {
		return
	}
	r.crashed.Store(true)
	r.crashGen++
	r.crashEv.Fire()
}

// AbortInflightCalls aborts every quorum call currently blocked in Call
// with ErrAborted, without crashing the node. The bounded-counter global
// reset uses it at commit time: an operation that began under the old
// epoch must not keep retransmitting under the new one, where the fenced
// transport would stamp its pre-reset indices with the fresh epoch and
// re-poison the collapsed state. Returns how many calls were aborted.
func (r *Runtime) AbortInflightCalls() int {
	r.mu.Lock()
	n := len(r.collector.calls)
	r.abortEv.Fire()
	r.abortEv = r.clk.NewEvent()
	r.mu.Unlock()
	return n
}

// Resume lets a crashed node take steps again without restarting its
// program — the paper's "undetectable restart". State is preserved.
func (r *Runtime) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.crashed.Load() || r.closed {
		return
	}
	r.crashEv = r.clk.NewEvent()
	r.crashed.Store(false)
}

// InboxDrainer is implemented by transports whose per-node channel content
// can be discarded (the in-memory simulator). A detectable restart loses
// the node's channel content along with its state.
type InboxDrainer interface {
	DrainInbox(id int)
}

// RestartDetectable performs the paper's "detectable restart": the node
// restarts its program with all variables re-initialised. reset must
// reinstall the algorithm's initial state (it runs while the node is
// still crashed, so no step can observe a half-reset state); queued
// channel content is discarded where the transport supports it.
func (r *Runtime) RestartDetectable(reset func()) {
	r.Crash() // no-op if already crashed
	if d, ok := r.tr.(InboxDrainer); ok {
		d.DrainInbox(r.id)
	}
	reset()
	r.Resume()
}

// crashSignal returns the event fired at the next crash, plus the current
// crash generation.
func (r *Runtime) crashSignal() (simclock.Event, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClosed
	}
	if r.crashed.Load() {
		return nil, 0, ErrCrashed
	}
	return r.crashEv, r.crashGen, nil
}

// Send transmits m to node `to` (metering and adversary handled by the
// transport). Sends from a crashed node are suppressed.
func (r *Runtime) Send(to int, m *wire.Message) {
	if r.Crashed() {
		return
	}
	r.tr.Send(r.id, to, m)
}

// Broadcast sends a fresh copy of m to every node, including the sender
// itself, as in the paper's "broadcast" which the sending node also
// receives. On transports implementing netsim.ManySender the payload is
// copied (or marshalled) once and fanned out, instead of once per node.
func (r *Runtime) Broadcast(m *wire.Message) {
	if r.Crashed() {
		return
	}
	if r.many != nil {
		r.many.SendMany(r.id, r.allTo, m)
		return
	}
	for k := 0; k < r.n; k++ {
		r.tr.Send(r.id, k, m)
	}
}

// SendToMany transmits m to every node in to, using the transport's
// fan-out fast path when available. Equivalent to calling Send per
// recipient; used by layers (e.g. the reliable-broadcast relay) that fan
// the same message out to an explicit recipient set.
func (r *Runtime) SendToMany(to []int, m *wire.Message) {
	if r.Crashed() {
		return
	}
	if r.many != nil {
		r.many.SendMany(r.id, to, m)
		return
	}
	for _, k := range to {
		r.tr.Send(r.id, k, m)
	}
}

// GossipTo sends build(k) to every node k except the sender (Algorithm 1
// line 11). Builders commonly return the same *wire.Message for every
// peer (state gossip reflects the sender's state, not the recipient); when
// the transport supports fan-out, maximal runs of consecutive identical
// pointers are detected and sent marshal-once. Per-recipient messages are
// sent individually, as before.
func (r *Runtime) GossipTo(build func(k int) *wire.Message) {
	if r.Crashed() {
		return
	}
	if r.many == nil {
		for _, k := range r.peerTo {
			if m := build(k); m != nil {
				r.tr.Send(r.id, k, m)
			}
		}
		return
	}
	// Group consecutive peers whose builder returned the same pointer.
	var run []int // borrowed scratch; SendMany does not retain it
	var cur *wire.Message
	flush := func() {
		if cur == nil {
			return
		}
		if len(run) == 1 {
			r.tr.Send(r.id, run[0], cur)
		} else {
			r.many.SendMany(r.id, run, cur)
		}
		run, cur = run[:0], nil
	}
	for _, k := range r.peerTo {
		m := build(k)
		if m == nil {
			flush()
			continue
		}
		if m != cur {
			flush()
			cur = m
		}
		run = append(run, k)
	}
	flush()
}
