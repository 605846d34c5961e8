package tcpnet

import (
	"net"
	"testing"
	"time"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

func TestMeshRoundTrip(t *testing.T) {
	m, err := NewMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	msg := &wire.Message{Type: wire.TWrite, Reg: types.RegVector{{TS: 7, Val: types.Value("hello")}}}
	m.Transports[0].Send(0, 1, msg)

	got, ok := recvWithTimeout(t, m.Transports[1], 1)
	if !ok {
		t.Fatal("no delivery")
	}
	if got.Type != wire.TWrite || got.From != 0 || got.To != 1 {
		t.Fatalf("got %+v", got)
	}
	if got.Reg[0].TS != 7 || string(got.Reg[0].Val) != "hello" {
		t.Fatalf("payload corrupted: %v", got.Reg)
	}
}

func TestLoopback(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Transports[0].Send(0, 0, &wire.Message{Type: wire.TGossip, SNS: 5})
	got, ok := recvWithTimeout(t, m.Transports[0], 0)
	if !ok || got.SNS != 5 {
		t.Fatalf("loopback failed: %+v ok=%v", got, ok)
	}
}

func TestSendToDeadPeerCountsAsLoss(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Transports[1].Close()
	time.Sleep(10 * time.Millisecond)
	// Repeated sends: the first may land in a dying socket; eventually the
	// transport registers losses rather than blocking or crashing.
	for i := 0; i < 10; i++ {
		m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TWrite})
		time.Sleep(time.Millisecond)
	}
	if m.Transports[0].Counters().Drops() == 0 {
		t.Error("sends to a dead peer not registered as drops")
	}
}

func TestForeignEndpointRejected(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok := m.Transports[0].Recv(1); ok {
		t.Error("Recv for foreign id must fail")
	}
	// Send with a forged from-id is refused.
	m.Transports[0].Send(1, 0, &wire.Message{Type: wire.TWrite})
	if n := m.Transports[0].Counters().TotalMessages(); n != 0 {
		t.Errorf("forged send metered: %d", n)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := m.Transports[0].Recv(0)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	m.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv returned a message after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
}

func TestManyMessagesOrderedPerLink(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const total = 500
	for i := 0; i < total; i++ {
		m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
	}
	var prev int64 = -1
	for i := 0; i < total; i++ {
		got, ok := recvWithTimeout(t, m.Transports[1], 1)
		if !ok {
			t.Fatalf("lost message %d/%d on loss-free localhost", i, total)
		}
		if got.SNS <= prev {
			t.Fatalf("TCP reordered within one connection: %d after %d", got.SNS, prev)
		}
		prev = got.SNS
	}
}

// TestStalledReceiverDropsNotBlocks: a receiver that never drains its
// inbox must cause drop-oldest evictions at the receiving transport — it
// must NOT exert backpressure that stalls the sender, which would violate
// the paper's bounded-capacity lossy-channel model.
func TestStalledReceiverDropsNotBlocks(t *testing.T) {
	const cap, total = 8, 200
	m, err := NewMeshWithOptions(2, Options{InboxCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for i := 0; i < total; i++ {
			m.Transports[0].Send(0, 1, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
		}
	}()
	select {
	case <-sendDone:
	case <-time.After(10 * time.Second):
		t.Fatal("sender stalled by a receiver that never drains (backpressure instead of loss)")
	}

	// The receiver's read loop keeps draining the socket into the bounded
	// inbox, evicting the oldest entries.
	deadline := time.Now().Add(5 * time.Second)
	rc := m.Transports[1].Counters()
	for rc.Evictions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rc.Evictions() == 0 {
		t.Fatal("no evictions metered at the stalled receiver")
	}
	if got := m.Transports[1].QueueLen(); got > cap {
		t.Errorf("inbox grew past its bound: %d > %d", got, cap)
	}
}

// TestRedialWithBackoffRecovers: sends to a dead peer are dropped (with
// dial attempts rate-limited by backoff), and once the peer comes up a
// redial succeeds and is metered as a reconnect.
func TestRedialWithBackoffRecovers(t *testing.T) {
	// Reserve an address for peer 1 but leave it dead for now.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := ln.Addr().String()
	ln.Close()

	opts := Options{RedialBackoffMin: 5 * time.Millisecond, RedialBackoffMax: 20 * time.Millisecond}
	tr, err := NewWithOptions(0, []string{"127.0.0.1:0", peerAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < 20; i++ {
		tr.Send(0, 1, &wire.Message{Type: wire.TWrite})
	}
	// Send is asynchronous: the writer goroutine drains the outbox, failing
	// each frame against the dead peer, so the drops accrue shortly after
	// the sends return rather than synchronously.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Counters().Drops() != 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.Counters().Drops() != 20 {
		t.Errorf("sends to dead peer: drops = %d, want 20", tr.Counters().Drops())
	}
	if tr.Counters().Reconnects() != 0 {
		t.Errorf("reconnects = %d before peer exists", tr.Counters().Reconnects())
	}

	// Bring the peer up on the reserved address; backoff must expire and a
	// redial deliver traffic.
	peerTr, err := NewWithOptions(1, []string{tr.Addr(), peerAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer peerTr.Close()

	deadline = time.Now().Add(5 * time.Second)
	for tr.Counters().Reconnects() == 0 && time.Now().Before(deadline) {
		tr.Send(0, 1, &wire.Message{Type: wire.TWrite, SSN: 42})
		time.Sleep(2 * time.Millisecond)
	}
	if tr.Counters().Reconnects() == 0 {
		t.Fatal("no reconnect after peer came up")
	}
	got, ok := recvWithTimeout(t, peerTr, 1)
	if !ok || got.SSN != 42 {
		t.Fatalf("recovered link did not deliver: %+v ok=%v", got, ok)
	}
}

// TestWriteFailureMetered: killing an established peer tears its link down
// — by a write that fails, metered as a write failure with its frames as
// drops, or by the link's reader seeing EOF — and every frame sent after
// that is metered as a drop.
func TestWriteFailureMetered(t *testing.T) {
	m, err := NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := m.Transports[0]

	tr.Send(0, 1, &wire.Message{Type: wire.TWrite})
	if _, ok := recvWithTimeout(t, m.Transports[1], 1); !ok {
		t.Fatal("no delivery while peer alive")
	}
	m.Transports[1].Close()

	// Keep sending while the peer dies, so a write may find the dead
	// connection before its reader does.
	deadline := time.Now().Add(5 * time.Second)
	c := tr.Counters()
	for link(tr, 1) != nil {
		if time.Now().After(deadline) {
			t.Fatal("link to a dead peer never torn down")
		}
		tr.Send(0, 1, &wire.Message{Type: wire.TWrite})
		time.Sleep(time.Millisecond)
	}
	if c.WriteFailures() > 0 && c.Drops() == 0 {
		t.Error("write failure not also counted as a loss")
	}

	eventually(t, "outbox drained", func() bool { return tr.peers[1].outbox.Len() == 0 })
	before := c.Drops()
	const after = 20
	for i := 0; i < after; i++ {
		tr.Send(0, 1, &wire.Message{Type: wire.TWrite})
	}
	eventually(t, "every frame sent to the dead peer metered as a drop", func() bool { return c.Drops()-before >= after })
}

func recvWithTimeout(t *testing.T, tr *Transport, id int) (*wire.Message, bool) {
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
		t.Fatal("recv timeout")
		return nil, false
	}
}
