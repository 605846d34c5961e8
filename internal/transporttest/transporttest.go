// Package transporttest asserts that every netsim.Transport implementation
// exhibits the *same* channel semantics. The in-memory simulator and the
// TCP transport both run this conformance suite, so the two backends cannot
// silently diverge again. It covers:
//
//   - overload: a bounded per-node inbox that loses the oldest queued
//     message when full (the paper's §2 bounded-capacity lossy channels),
//     with every loss metered as an eviction — whether the flood arrives
//     via Send or via the SendMany fast path;
//   - fan-out equivalence: SendMany(from, to, m) delivers and meters
//     exactly like a Send loop over to;
//   - copy-on-write safety: recipients of one fan-out may read their
//     deliveries concurrently, and the sender may keep evolving its message
//     between fan-outs — replacing scalars in place and payload slices
//     wholesale, never writing through a sent slice — without data races
//     (run these suites under -race).
package transporttest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// OverloadDropOldest floods the link from→to with 3× the inbox capacity
// while nothing drains the receiver, then asserts drop-oldest semantics:
//
//   - the sender is never blocked (the flood itself completes);
//   - exactly total−capacity evictions are metered on the receiver's
//     counters;
//   - the surviving messages are precisely the *newest* capacity ones, in
//     send order.
//
// sender is the transport Send is invoked on; receiver is the transport
// whose Recv and Counters observe node `to` (the same object for the
// simulator, the remote endpoint for TCP).
func OverloadDropOldest(t *testing.T, sender, receiver netsim.Transport, from, to, capacity int) {
	t.Helper()
	total := capacity * 3

	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for i := 0; i < total; i++ {
			sender.Send(from, to, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
		}
	}()
	select {
	case <-flooded:
	case <-time.After(10 * time.Second):
		t.Fatal("conformance: sender blocked by an undrained receiver (backpressure, not loss)")
	}

	// Delivery may be asynchronous (TCP read loop): wait for the expected
	// eviction count to settle.
	wantEvicted := int64(total - capacity)
	deadline := time.Now().Add(5 * time.Second)
	for receiver.Counters().Evictions() < wantEvicted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := receiver.Counters().Evictions(); got != wantEvicted {
		t.Fatalf("conformance: evictions = %d, want %d (total %d, capacity %d)", got, wantEvicted, total, capacity)
	}

	// The survivors must be exactly the newest `capacity` messages, FIFO.
	for i := total - capacity; i < total; i++ {
		m, ok := recvTimeout(t, receiver, to)
		if !ok {
			t.Fatalf("conformance: inbox exhausted at SNS %d", i)
		}
		if m.SNS != int64(i) {
			t.Fatalf("conformance: survivor SNS = %d, want %d (drop-oldest violated)", m.SNS, i)
		}
	}
}

// OverloadDropOldestMany is OverloadDropOldest with the flood issued
// through the SendMany fast path: overload behaviour must not depend on
// which send entry point filled the channel.
func OverloadDropOldestMany(t *testing.T, sender, receiver netsim.Transport, from, to, capacity int) {
	t.Helper()
	many, ok := sender.(netsim.ManySender)
	if !ok {
		t.Fatalf("conformance: transport %T does not implement netsim.ManySender", sender)
	}
	total := capacity * 3

	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		dst := []int{to}
		for i := 0; i < total; i++ {
			many.SendMany(from, dst, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
		}
	}()
	select {
	case <-flooded:
	case <-time.After(10 * time.Second):
		t.Fatal("conformance: SendMany blocked by an undrained receiver (backpressure, not loss)")
	}

	wantEvicted := int64(total - capacity)
	deadline := time.Now().Add(5 * time.Second)
	for receiver.Counters().Evictions() < wantEvicted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := receiver.Counters().Evictions(); got != wantEvicted {
		t.Fatalf("conformance: SendMany evictions = %d, want %d (total %d, capacity %d)", got, wantEvicted, total, capacity)
	}
	for i := total - capacity; i < total; i++ {
		m, ok := recvTimeout(t, receiver, to)
		if !ok {
			t.Fatalf("conformance: inbox exhausted at SNS %d", i)
		}
		if m.SNS != int64(i) {
			t.Fatalf("conformance: survivor SNS = %d, want %d (drop-oldest violated)", m.SNS, i)
		}
	}
}

// samplePayload builds a broadcast-shaped message: a RegVector payload plus
// auxiliary slices, exercising every field the fan-out fast paths share.
func samplePayload(n int) *wire.Message {
	reg := make(types.RegVector, n)
	for i := range reg {
		reg[i] = types.TSValue{TS: int64(i + 1), Val: types.Value(fmt.Sprintf("value-%d", i))}
	}
	return &wire.Message{
		Type:  wire.TSnapshot,
		SSN:   7,
		Reg:   reg,
		Tasks: []wire.TaskInfo{{Node: 3, SNS: 1}, {Node: 4, SNS: 1}, {Node: 5}},
	}
}

// SendManyEquivalence asserts the ManySender contract: SendMany(from, to, m)
// must deliver to every recipient, and meter on the sender's counters,
// exactly as the equivalent Send loop — one metered send of the same byte
// size per (from, to) pair, each delivery carrying the full payload with a
// correctly stamped envelope. endpoint(k) must return the transport whose
// Recv observes node k (the same object for the simulator, node k's
// endpoint for TCP). See meteredLegs for elides and the fresh transport
// it requires.
func SendManyEquivalence(t *testing.T, sender netsim.Transport, endpoint func(id int) netsim.Transport, from int, to []int, elides bool) {
	t.Helper()
	payload := samplePayload(len(to))
	meteredLegs(t, sender, endpoint, from, to, payload, elides, func(label string, k int, m *wire.Message) {
		if m.From != int32(from) || m.To != int32(k) {
			t.Fatalf("conformance: %s envelope to node %d = (From %d, To %d), want (%d, %d)", label, k, m.From, m.To, from, k)
		}
		if m.Type != payload.Type || m.SSN != payload.SSN || len(m.Reg) != len(payload.Reg) || len(m.Tasks) != len(payload.Tasks) {
			t.Fatalf("conformance: %s payload mangled at node %d: %+v", label, k, m)
		}
		for i := range payload.Reg {
			if m.Reg[i].TS != payload.Reg[i].TS || string(m.Reg[i].Val) != string(payload.Reg[i].Val) {
				t.Fatalf("conformance: %s register %d mangled at node %d: %v", label, i, k, m.Reg[i])
			}
		}
	})
	SweepFrozen(t)
}

// meteredLegs sends payload to every recipient in three legs — a priming
// Send loop, a Send loop and a SendMany — hands each delivery to verify, and
// asserts that the last two legs meter exactly alike. They start from the
// same codec state: the priming leg left payload as the last register
// vector on every link. Each leg's counters are read once every recipient
// holds its delivery, because a transport may meter a frame until it writes
// it. The priming leg must be the first vector-carrying traffic from the
// sender (a fresh transport); after it, a repeat of payload costs fewer
// bytes on a transport that elides repeated payloads on the wire (elides)
// and the same on one that does not.
func meteredLegs(t *testing.T, sender netsim.Transport, endpoint func(id int) netsim.Transport, from int, to []int, payload *wire.Message, elides bool, verify func(label string, k int, m *wire.Message)) {
	t.Helper()
	many, ok := sender.(netsim.ManySender)
	if !ok {
		t.Fatalf("conformance: transport %T does not implement netsim.ManySender", sender)
	}
	leg := func(label string, send func()) (msgs, bytes int64) {
		before := sender.Counters().Snapshot()
		send()
		for _, k := range to {
			m, ok := recvTimeout(t, endpoint(k), k)
			if !ok {
				t.Fatalf("conformance: %s delivered nothing to node %d", label, k)
			}
			verify(label, k, m)
		}
		delta := sender.Counters().Snapshot().Sub(before)
		return delta.Messages, delta.Bytes
	}
	loop := func() {
		for _, k := range to {
			sender.Send(from, k, payload)
		}
	}

	_, firstBytes := leg("priming Send loop", loop)
	sendMsgs, sendBytes := leg("Send loop", loop)
	manyMsgs, manyBytes := leg("SendMany", func() { many.SendMany(from, to, payload) })
	if manyMsgs != sendMsgs || manyBytes != sendBytes {
		t.Fatalf("conformance: SendMany metered (%d msgs, %d bytes), Send loop metered (%d msgs, %d bytes)",
			manyMsgs, manyBytes, sendMsgs, sendBytes)
	}
	if want := int64(len(to)); sendMsgs != want {
		t.Fatalf("conformance: Send loop metered %d msgs, want one per recipient (%d)", sendMsgs, want)
	}
	if elides && sendBytes >= firstBytes {
		t.Fatalf("conformance: a repeated payload metered %d bytes, its first send %d: no repeat elided", sendBytes, firstBytes)
	}
	if !elides && sendBytes != firstBytes {
		t.Fatalf("conformance: a repeated payload metered %d bytes, its first send %d", sendBytes, firstBytes)
	}
}

// ConcurrentFanout drives `rounds` fan-outs while every recipient
// concurrently receives and reads its deliveries in full, and the sender
// evolves its message between rounds in the copy-on-write style the
// zero-copy contract prescribes: envelope scalars change in place, payload
// slices are replaced with fresh ones, and slice *contents* are never
// written after a send. Run under -race, this enforces the two sharing
// contracts at once: a transport may share payloads across recipients only
// if no delivery path still writes to them, and the caller owns the message
// struct (not the sent slices) the moment a send returns.
func ConcurrentFanout(t *testing.T, sender netsim.Transport, endpoint func(id int) netsim.Transport, from int, to []int, rounds int) {
	t.Helper()
	many, _ := sender.(netsim.ManySender)

	var wg sync.WaitGroup
	for _, k := range to {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ep := endpoint(k)
			var sink int64
			for got := 0; got < rounds; got++ {
				m, ok := ep.Recv(k)
				if !ok {
					t.Errorf("conformance: node %d's endpoint closed after %d/%d deliveries", k, got, rounds)
					return
				}
				// Read every shared field; the race detector flags any
				// writer still touching a delivered payload.
				sink += m.SSN + int64(len(m.Tasks))
				for _, e := range m.Reg {
					sink += e.TS + int64(len(e.Val))
				}
				for _, x := range m.Tasks {
					sink += x.SNS
				}
			}
			_ = sink
		}(k)
	}

	payload := samplePayload(len(to))
	for i := 0; i < rounds; i++ {
		if many != nil && i%2 == 0 {
			many.SendMany(from, to, payload)
		} else {
			for _, k := range to {
				sender.Send(from, k, payload)
			}
		}
		// The send has returned, so the message *struct* is ours again:
		// scalars may change in place, but the sent payload slices are now
		// shared with every in-flight delivery, so they are replaced, never
		// written through. A transport that aliased the struct itself (no
		// private envelope) races on SSN right here.
		payload.SSN++
		reg := append(types.RegVector(nil), payload.Reg...)
		reg[0].TS++
		payload.Reg = reg
		tasks := append([]wire.TaskInfo(nil), payload.Tasks...)
		tasks[0].SNS++
		payload.Tasks = tasks
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("conformance: receivers did not observe all fan-out deliveries")
	}
	SweepFrozen(t)
}

// PerPeerFIFO pins the per-peer frame ordering the runtime's
// atomic-step discipline depends on: `count` sequence-numbered messages
// from one sender must arrive at every recipient exactly once, in send
// order, with no losses on a healthy link — even when the send side
// alternates between Send and the SendMany shared-frame fan-out and the
// transport coalesces the burst into vectored/batched writes. Recipients
// drain concurrently (run under -race: the vectored writer must not
// mutate SendMany-shared frame bytes). endpoint(k) must return the
// transport whose Recv observes node k.
func PerPeerFIFO(t *testing.T, sender netsim.Transport, endpoint func(id int) netsim.Transport, from int, to []int, count int) {
	t.Helper()
	many, _ := sender.(netsim.ManySender)

	var wg sync.WaitGroup
	for _, k := range to {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ep := endpoint(k)
			for i := 0; i < count; i++ {
				m, ok := ep.Recv(k)
				if !ok {
					t.Errorf("conformance: node %d's endpoint closed after %d/%d deliveries", k, i, count)
					return
				}
				if m.SNS != int64(i) {
					t.Errorf("conformance: node %d delivery %d carries SNS %d — per-peer FIFO violated (or a frame was lost on a healthy link)", k, i, m.SNS)
					return
				}
			}
		}(k)
	}

	for i := 0; i < count; i++ {
		m := &wire.Message{Type: wire.TGossip, SNS: int64(i)}
		if many != nil && i%2 == 1 {
			many.SendMany(from, to, m)
		} else {
			for _, k := range to {
				sender.Send(from, k, m)
			}
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("conformance: per-peer FIFO streams did not all arrive (frame lost or reordered)")
	}
	SweepFrozen(t)
}

// MixedObjectTraffic pins the transport's object-id transparency: a
// multi-object runtime multiplexes every object over one link, so frames
// carrying different wire.Message.Obj values share the per-peer channel —
// there is no per-object lane at the transport layer. The leg asserts, with
// the send side alternating between Send and the SendMany shared-frame
// fan-out:
//
//   - per-peer FIFO holds across the *mixed* stream: interleaving objects
//     never reorders one sender's frames;
//   - every delivery round-trips its Obj unmangled (the codec's fixed
//     header carries it; a transport that re-marshals must preserve it);
//   - SendMany with a nonzero Obj delivers and meters exactly like the
//     equivalent Send loop.
//
// endpoint(k) must return the transport whose Recv observes node k. See
// meteredLegs for elides and the fresh transport it requires.
func MixedObjectTraffic(t *testing.T, sender netsim.Transport, endpoint func(id int) netsim.Transport, from int, to []int, count int, elides bool) {
	t.Helper()
	many := sender.(netsim.ManySender) // meteredLegs has checked it

	// Metering equivalence with a nonzero object id.
	payload := samplePayload(len(to))
	payload.Obj = 42
	meteredLegs(t, sender, endpoint, from, to, payload, elides, func(label string, k int, m *wire.Message) {
		if m.Obj != 42 {
			t.Fatalf("conformance: %s mangled Obj at node %d: got %d, want 42", label, k, m.Obj)
		}
	})

	// Per-peer FIFO across an object-interleaved stream.
	objOf := func(i int) int32 {
		return []int32{0, 1, 7, 4095}[i%4]
	}
	var wg sync.WaitGroup
	for _, k := range to {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ep := endpoint(k)
			for i := 0; i < count; i++ {
				m, ok := ep.Recv(k)
				if !ok {
					t.Errorf("conformance: node %d's endpoint closed after %d/%d mixed-object deliveries", k, i, count)
					return
				}
				if m.SNS != int64(i) {
					t.Errorf("conformance: node %d delivery %d carries SNS %d — per-peer FIFO violated by object interleaving", k, i, m.SNS)
					return
				}
				if m.Obj != objOf(i) {
					t.Errorf("conformance: node %d delivery %d carries Obj %d, want %d", k, i, m.Obj, objOf(i))
					return
				}
			}
		}(k)
	}
	for i := 0; i < count; i++ {
		m := &wire.Message{Type: wire.TGossip, SNS: int64(i), Obj: objOf(i)}
		if i%2 == 1 {
			many.SendMany(from, to, m)
		} else {
			for _, k := range to {
				sender.Send(from, k, m)
			}
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("conformance: mixed-object FIFO streams did not all arrive")
	}
	SweepFrozen(t)
}

// SweepFrozen re-verifies every payload the mutcheck registry is tracking
// and fails the test on any in-place mutation. A no-op without the
// `mutcheck` build tag (MutcheckSweep then reports nothing); under the tag
// the conformance suites end with a whole-process alias-safety audit.
func SweepFrozen(t *testing.T) {
	t.Helper()
	for _, v := range types.MutcheckSweep() {
		t.Errorf("conformance: mutcheck violation: %s", v)
	}
}

func recvTimeout(t *testing.T, tr netsim.Transport, id int) (*wire.Message, bool) {
	t.Helper()
	type res struct {
		m  *wire.Message
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		m, ok := tr.Recv(id)
		ch <- res{m, ok}
	}()
	select {
	case r := <-ch:
		return r.m, r.ok
	case <-time.After(5 * time.Second):
		t.Fatal("conformance: recv timeout")
		return nil, false
	}
}
