package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/wire"
)

// Spans are recorded from outside the program, around the calls the node
// runtime makes into its transport and the calls the clients make into the
// algorithm:
//
//	op      one client Write/Snapshot (root span)
//	send    one Send/SendMany call
//	handle  from Recv returning message m to the next Recv call at the same
//	        node: dispatcher + handler busy time for m
//
// A send stamps wire.Message.Tag (unused by Algorithms 1 and 3) with its
// span id, so the handle span of every delivery names the send that caused
// it, even when the network reorders. Sends and handles join an op by node
// and time: one op is in flight per node, requests leave the client's node
// and acks are handled there.
//
// Each node keeps one log per span kind, so a span records neither its kind
// nor its node.
type span struct {
	start int64     // ns since the tracer's epoch
	dur   uint32    // ns, saturating at ~4.29 s
	id    uint32    // send: own id; handle: id of the causing send
	aux   uint32    // send: low bits of SSN (tells a new round from a retransmission); op: opKind
	to    uint32    // send: recipient bitmask (n ≤ 32)
	typ   wire.Type // send, handle: the message's type
}

// maxSpansPerLog bounds memory: a traced window ends early when one node's
// log fills (32 B per span, 3 logs per node).
const maxSpansPerLog = 1 << 20

type nodeTrace struct {
	mu    sync.Mutex // sends and ops are appended by client, dispatcher and loop goroutines
	sends []span
	ops   []span

	// Touched only by the node's dispatcher goroutine (DispatchShards=1).
	handles    []span
	cur        span
	inHandle   bool
	recvWaitNs int64
}

type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	full   atomic.Bool
	nextID atomic.Uint32
	// Window bounds in ns since epoch, both math.MaxInt64 until set, so
	// nothing falls inside a window that has not started.
	begin, end atomic.Int64
	nodes      []nodeTrace
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), nodes: make([]nodeTrace, clusterSize)}
	t.begin.Store(math.MaxInt64)
	t.end.Store(math.MaxInt64)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) start() {
	t.begin.Store(t.now())
	t.on.Store(true)
}

func (t *tracer) stop() {
	t.on.Store(false)
	t.end.Store(t.now())
}

// clip cuts [from, to] to the traced window. The dispatcher-side intervals
// (handle, recv_wait) are clipped rather than dropped, and the one open
// when the window ends is closed when the node stops, so per node they add
// up to the window exactly.
func (t *tracer) clip(from, to int64) (int64, int64, bool) {
	if b := t.begin.Load(); from < b {
		from = b
	}
	if e := t.end.Load(); to > e {
		to = e
	}
	return from, to, to > from
}

func clampDur(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

func (t *tracer) appendSpan(log *[]span, s span) {
	if len(*log) >= maxSpansPerLog {
		t.full.Store(true)
		return
	}
	*log = append(*log, s)
}

// recordOp adds the root span of one client operation.
func (t *tracer) recordOp(nodeID int, kind opKind, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{start: int64(start.Sub(t.epoch)), dur: clampDur(int64(end.Sub(start))), aux: uint32(kind)}
	nt := &t.nodes[nodeID]
	nt.mu.Lock()
	t.appendSpan(&nt.ops, s)
	nt.mu.Unlock()
}

// tracedTransport decorates a netsim.Transport with span recording. It
// forwards the optional interfaces node.Runtime type-asserts for
// (netsim.ManySender, node.InboxDrainer), so the runtime takes the same
// code paths with and without it.
type tracedTransport struct {
	inner netsim.Transport
	tr    *tracer
}

func newTracedTransport(inner netsim.Transport, tr *tracer) netsim.Transport {
	t := &tracedTransport{inner: inner, tr: tr}
	if many, ok := inner.(netsim.ManySender); ok {
		return &tracedManyTransport{t, many}
	}
	return t
}

// tracedManyTransport adds SendMany only when the inner transport has it.
type tracedManyTransport struct {
	*tracedTransport
	many netsim.ManySender
}

func (t *tracedTransport) N() int                      { return t.inner.N() }
func (t *tracedTransport) Counters() *metrics.Counters { return t.inner.Counters() }
func (t *tracedTransport) CloseEndpoint(id int)        { t.inner.CloseEndpoint(id) }
func (t *tracedTransport) Close()                      { t.inner.Close() }

func (t *tracedTransport) DrainInbox(id int) {
	if d, ok := t.inner.(node.InboxDrainer); ok {
		d.DrainInbox(id)
	}
}

func (t *tracedTransport) Send(from, to int, m *wire.Message) {
	if !t.tr.on.Load() {
		t.inner.Send(from, to, m)
		return
	}
	id := t.tr.nextID.Add(1)
	m.Tag = uint64(id)
	start := t.tr.now()
	t.inner.Send(from, to, m)
	t.tr.recordSend(from, 1<<uint(to), m, id, start)
}

func (t *tracedManyTransport) SendMany(from int, to []int, m *wire.Message) {
	if !t.tr.on.Load() {
		t.many.SendMany(from, to, m)
		return
	}
	id := t.tr.nextID.Add(1)
	m.Tag = uint64(id)
	var mask uint32
	for _, k := range to {
		mask |= 1 << uint(k)
	}
	start := t.tr.now()
	t.many.SendMany(from, to, m)
	t.tr.recordSend(from, mask, m, id, start)
}

func (t *tracer) recordSend(from int, mask uint32, m *wire.Message, id uint32, start int64) {
	s := span{start: start, dur: clampDur(t.now() - start), id: id, aux: uint32(m.SSN), to: mask, typ: m.Type}
	nt := &t.nodes[from]
	nt.mu.Lock()
	t.appendSpan(&nt.sends, s)
	nt.mu.Unlock()
}

func (t *tracedTransport) Recv(id int) (*wire.Message, bool) {
	tr := t.tr
	nt := &tr.nodes[id]
	call := tr.now()
	if nt.inHandle {
		nt.inHandle = false
		if from, to, ok := tr.clip(nt.cur.start, call); ok {
			s := nt.cur
			s.start, s.dur = from, clampDur(to-from)
			tr.appendSpan(&nt.handles, s)
		}
	}
	m, ok := t.inner.Recv(id)
	ret := tr.now()
	if from, to, ok := tr.clip(call, ret); ok {
		nt.recvWaitNs += to - from
	}
	if ok {
		nt.cur = span{start: ret, id: uint32(m.Tag), typ: m.Type}
		nt.inHandle = true
	}
	return m, ok
}

// Message classes by who sends them and from which goroutine.
func isRequest(t wire.Type) bool {
	return t == wire.TWrite || t == wire.TSnapshot || t == wire.TSave
}

func isAck(t wire.Type) bool {
	return t == wire.TWriteAck || t == wire.TSnapshotAck || t == wire.TSaveAck
}

func isGossip(t wire.Type) bool { return t == wire.TGossip || t == wire.TGossipAck }

// traceStats is what the spans of one traced window add up to.
type traceStats struct {
	window      time.Duration
	ops         int
	opNs        int64   // Σ op spans
	sendNs      int64   // Σ request + ack send spans
	handleNs    int64   // Σ request + ack handle spans minus the ack sends nested in them
	gossipNs    int64   // Σ gossip handle spans + gossip sends from the tick
	recvWaitNs  []int64 // per node: time blocked in Recv
	handleAllNs []int64 // per node: Σ handle spans of every type
	sojournNs   []int64 // send-call start → Recv return, per delivery
	waitNs      int64   // Σ op spans − work on their blocking path
	retx        int     // request broadcasts repeating the previous one of the same op
	snapOps     int
	snapRounds  int // distinct SNAPSHOT rounds inside snapshot ops
	truncated   bool
}

// analyze joins the recorded spans. Call only after the cluster is closed:
// the dispatcher-owned logs are read without locks.
func (t *tracer) analyze() traceStats {
	st := traceStats{
		window:      time.Duration(t.end.Load() - t.begin.Load()),
		recvWaitNs:  make([]int64, len(t.nodes)),
		handleAllNs: make([]int64, len(t.nodes)),
		truncated:   t.full.Load(),
	}
	// Send ids are dense (1..nextID), so the handle span of the delivery of
	// send id at node k is found through a flat index, not a map: with
	// millions of spans a map costs more memory than the spans themselves.
	n := len(t.nodes)
	byDelivery := make([]int32, (int(t.nextID.Load())+1)*n) // 1 + index into nodes[k].handles
	handled := func(id uint32, k int) *span {
		if j := byDelivery[int(id)*n+k]; j > 0 {
			return &t.nodes[k].handles[j-1]
		}
		return nil
	}
	for i := range t.nodes {
		nt := &t.nodes[i]
		st.recvWaitNs[i] = nt.recvWaitNs
		for j := range nt.handles {
			h := &nt.handles[j]
			st.handleAllNs[i] += int64(h.dur)
			switch {
			case isGossip(h.typ):
				st.gossipNs += int64(h.dur)
			case isRequest(h.typ) || isAck(h.typ):
				st.handleNs += int64(h.dur)
			}
			if h.id != 0 && int(h.id)*n+i < len(byDelivery) {
				byDelivery[int(h.id)*n+i] = int32(j + 1)
			}
		}
	}
	for i := range t.nodes {
		nt := &t.nodes[i]
		sort.Slice(nt.sends, func(a, b int) bool { return nt.sends[a].start < nt.sends[b].start })
		sort.Slice(nt.ops, func(a, b int) bool { return nt.ops[a].start < nt.ops[b].start })
		for j := range nt.sends {
			s := &nt.sends[j]
			switch {
			case s.typ == wire.TGossip:
				st.gossipNs += int64(s.dur) // sent by the tick, outside any handle span
			case isAck(s.typ):
				st.sendNs += int64(s.dur)
				st.handleNs -= int64(s.dur) // nested in the request's handle span
			case isRequest(s.typ):
				st.sendNs += int64(s.dur)
			}
			for k := 0; k < n; k++ {
				if s.to&(1<<uint(k)) == 0 {
					continue
				}
				if h := handled(s.id, k); h != nil && h.start >= s.start {
					st.sojournNs = append(st.sojournNs, h.start-s.start)
				}
			}
		}

		// Sweep the node's ops in time order, attributing to each the
		// request sends that left this node and the acks handled here
		// while it was in flight.
		si, hi := 0, 0
		for j := range nt.ops {
			op := &nt.ops[j]
			opEnd := op.start + int64(op.dur)
			st.ops++
			st.opNs += int64(op.dur)
			work := int64(0)
			var prevTyp wire.Type
			var prevAux uint32
			rounds := 0
			for si < len(nt.sends) && nt.sends[si].start < op.start {
				si++
			}
			for ; si < len(nt.sends) && nt.sends[si].start < opEnd; si++ {
				s := &nt.sends[si]
				if !isRequest(s.typ) {
					continue
				}
				if s.typ == prevTyp && s.aux == prevAux {
					st.retx++
				} else if s.typ == wire.TSnapshot {
					rounds++
				}
				prevTyp, prevAux = s.typ, s.aux
				work += int64(s.dur)
				// Servers handle the request in parallel; their mean
				// stands for the quorum-completing one.
				var served, servers int64
				for k := 0; k < n; k++ {
					if h := handled(s.id, k); h != nil {
						served += int64(h.dur)
						servers++
					}
				}
				if servers > 0 {
					work += served / servers
				}
			}
			for hi < len(nt.handles) && nt.handles[hi].start < op.start {
				hi++
			}
			for ; hi < len(nt.handles) && nt.handles[hi].start < opEnd; hi++ {
				if isAck(nt.handles[hi].typ) {
					work += int64(nt.handles[hi].dur)
				}
			}
			st.waitNs += int64(op.dur) - work
			if opKind(op.aux) == opSnap {
				st.snapOps++
				st.snapRounds += rounds
			}
		}
	}
	return st
}
