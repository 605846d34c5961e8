package rbcast

import (
	"sync"
	"testing"

	"selfstabsnap/internal/wire"
)

// harness wires n RB endpoints through a synchronous in-memory fabric with
// optional per-link drop control.
type harness struct {
	mu        sync.Mutex
	rbs       []*RB
	delivered [][]*wire.Message
	dropFrom  map[int]bool // drop everything sent BY this node
	inflight  []queued
	draining  bool
}

type queued struct {
	from, to int
	m        *wire.Message
}

func newHarness(n int) *harness {
	h := &harness{delivered: make([][]*wire.Message, n), dropFrom: map[int]bool{}}
	for i := 0; i < n; i++ {
		i := i
		send := func(to int, m *wire.Message) { h.enqueue(i, to, m) }
		deliver := func(inner *wire.Message) {
			h.mu.Lock()
			h.delivered[i] = append(h.delivered[i], inner.Clone())
			h.mu.Unlock()
		}
		h.rbs = append(h.rbs, New(i, n, send, deliver))
	}
	return h
}

// enqueue then drain iteratively (avoids unbounded recursion through relays).
func (h *harness) enqueue(from, to int, m *wire.Message) {
	h.mu.Lock()
	if h.dropFrom[from] {
		h.mu.Unlock()
		return
	}
	c := m.Clone()
	c.From, c.To = int32(from), int32(to)
	h.inflight = append(h.inflight, queued{from, to, c})
	if h.draining {
		h.mu.Unlock()
		return
	}
	h.draining = true
	h.mu.Unlock()
	for {
		h.mu.Lock()
		if len(h.inflight) == 0 {
			h.draining = false
			h.mu.Unlock()
			return
		}
		q := h.inflight[0]
		h.inflight = h.inflight[1:]
		h.mu.Unlock()
		h.rbs[q.to].Handle(q.m)
	}
}

func (h *harness) deliveredCount(node int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.delivered[node])
}

func TestBroadcastReachesAll(t *testing.T) {
	h := newHarness(4)
	h.rbs[0].Broadcast(&wire.Message{Type: wire.TSnap, Src: 0, TaskSN: 1})
	for i := 0; i < 4; i++ {
		if got := h.deliveredCount(i); got != 1 {
			t.Errorf("node %d delivered %d, want 1", i, got)
		}
	}
}

func TestAtMostOnceDelivery(t *testing.T) {
	h := newHarness(3)
	h.rbs[0].Broadcast(&wire.Message{Type: wire.TSnap, Src: 0, TaskSN: 1})
	// Re-inject a duplicate of the envelope manually.
	env := &wire.Message{Type: wire.TRBCast, Src: 0, Tag: 1, From: 0, To: 1,
		Inner: &wire.Message{Type: wire.TSnap, Src: 0, TaskSN: 1}}
	h.rbs[1].Handle(env)
	h.rbs[1].Handle(env)
	if got := h.deliveredCount(1); got != 1 {
		t.Errorf("node 1 delivered %d, want exactly 1", got)
	}
}

func TestRelaySurvivesOriginatorSilence(t *testing.T) {
	h := newHarness(4)
	// Node 3 never hears from node 0 directly: drop everything 0 sends
	// after the first copy reaches node 1 only. Simulate by manual feeding.
	inner := &wire.Message{Type: wire.TEnd, Src: 0, TaskSN: 9}
	env := &wire.Message{Type: wire.TRBCast, Src: 0, Tag: 5, From: 0, To: 1, Inner: inner}
	h.rbs[1].Handle(env) // only node 1 receives the original
	// Relaying from node 1 must have delivered to 2 and 3.
	for _, i := range []int{1, 2, 3} {
		if got := h.deliveredCount(i); got != 1 {
			t.Errorf("node %d delivered %d, want 1 (relay failed)", i, got)
		}
	}
}

func TestTickRetransmitsUntilAcked(t *testing.T) {
	h := newHarness(3)
	h.dropFrom[0] = true // node 0's sends are black-holed
	h.rbs[0].Broadcast(&wire.Message{Type: wire.TSnap, Src: 0, TaskSN: 2})
	if h.deliveredCount(1) != 0 {
		t.Fatal("message leaked through black hole")
	}
	if h.rbs[0].PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", h.rbs[0].PendingLen())
	}
	h.mu.Lock()
	h.dropFrom[0] = false
	h.mu.Unlock()
	h.rbs[0].Tick() // retransmission round
	for i := 0; i < 3; i++ {
		if got := h.deliveredCount(i); got != 1 {
			t.Errorf("node %d delivered %d after retx, want 1", i, got)
		}
	}
	// All acks should have arrived synchronously: pending cleared.
	if h.rbs[0].PendingLen() != 0 {
		t.Errorf("pending = %d after full ack, want 0", h.rbs[0].PendingLen())
	}
}

func TestRetxGivesUpAfterCap(t *testing.T) {
	h := newHarness(3)
	h.dropFrom[0] = true
	h.rbs[0].Broadcast(&wire.Message{Type: wire.TSnap, Src: 0, TaskSN: 3})
	for i := 0; i < maxRetxRounds+2; i++ {
		h.rbs[0].Tick()
	}
	if h.rbs[0].PendingLen() != 0 {
		t.Errorf("pending never garbage-collected: %d", h.rbs[0].PendingLen())
	}
}

func TestHandleIgnoresForeignTypes(t *testing.T) {
	h := newHarness(2)
	if h.rbs[0].Handle(&wire.Message{Type: wire.TWrite}) {
		t.Error("claimed a WRITE message")
	}
	if !h.rbs[0].Handle(&wire.Message{Type: wire.TRBCast}) { // corrupt: no inner
		t.Error("must claim (and drop) corrupt RBCast")
	}
	if h.deliveredCount(0) != 0 {
		t.Error("corrupt envelope delivered")
	}
}

func TestConcurrentBroadcasters(t *testing.T) {
	h := newHarness(5)
	for src := 0; src < 5; src++ {
		h.rbs[src].Broadcast(&wire.Message{Type: wire.TSnap, Src: int32(src), TaskSN: 1})
	}
	for i := 0; i < 5; i++ {
		if got := h.deliveredCount(i); got != 5 {
			t.Errorf("node %d delivered %d, want 5", i, got)
		}
	}
}

// TestResendsNeverWriteTheStoredEnvelope drives the three goroutines that
// re-send a pending broadcast — the client (Broadcast), the do-forever loop
// (Tick) and the dispatcher (Handle's relay) — at once, through senders
// that write to the message they are handed the way node.ObjView stamps its
// object id. Under -race it fails if any two sends share an envelope.
func TestResendsNeverWriteTheStoredEnvelope(t *testing.T) {
	stamp := func(m *wire.Message) { m.Obj = 1 }
	rb := New(0, 3, func(to int, m *wire.Message) { stamp(m) }, func(*wire.Message) {})
	rb.UseFanout(func(to []int, m *wire.Message) { stamp(m) })

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rb.Broadcast(&wire.Message{Type: wire.TSnap, TaskSN: int64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rb.Tick()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rb.Handle(&wire.Message{
				Type: wire.TRBCast, From: 1, Src: 1, Tag: uint64(i + 1),
				Inner: &wire.Message{Type: wire.TSnap, Src: 1, TaskSN: int64(i)},
			})
		}
	}()
	wg.Wait()
}
