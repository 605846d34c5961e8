package netsim

import (
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/wire"
)

func msg(t wire.Type) *wire.Message { return &wire.Message{Type: t} }

func TestDeliveryBasic(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	n.Send(0, 1, msg(wire.TWrite))
	m, ok := n.Recv(1)
	if !ok || m.Type != wire.TWrite || m.From != 0 || m.To != 1 {
		t.Fatalf("got %+v ok=%v", m, ok)
	}
}

func TestSelfDelivery(t *testing.T) {
	n := New(Config{N: 1, Seed: 1})
	defer n.Close()
	n.Send(0, 0, msg(wire.TGossip))
	if m, ok := n.Recv(0); !ok || m.Type != wire.TGossip {
		t.Fatal("self delivery failed")
	}
}

func TestSendClones(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	orig := &wire.Message{Type: wire.TWrite, SSN: 1}
	n.Send(0, 1, orig)
	orig.SSN = 999 // mutate after send
	got, _ := n.Recv(1)
	if got.SSN != 1 {
		t.Errorf("delivered message aliases sender state: SSN=%d", got.SSN)
	}
}

func TestOutOfRangeAndCut(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	n.Send(0, 7, msg(wire.TWrite))  // dropped silently
	n.Send(0, -1, msg(wire.TWrite)) // dropped silently
	n.SetCut(0, 1, true)
	n.Send(0, 1, msg(wire.TWrite))
	if got := n.Counters().Messages(wire.TWrite); got != 0 {
		t.Errorf("cut link metered %d sends", got)
	}
	n.SetCut(0, 1, false)
	n.Send(0, 1, msg(wire.TWrite))
	if m, ok := n.Recv(1); !ok || m.Type != wire.TWrite {
		t.Fatal("link not restored")
	}
}

func TestIsolate(t *testing.T) {
	n := New(Config{N: 3, Seed: 1})
	defer n.Close()
	n.Isolate(1, true)
	n.Send(0, 1, msg(wire.TWrite))
	n.Send(1, 2, msg(wire.TWrite))
	n.Send(0, 2, msg(wire.TWrite))
	if m, ok := n.Recv(2); !ok || m.From != 0 {
		t.Fatal("unrelated link affected")
	}
	if n.QueueLen(1) != 0 {
		t.Error("isolated node received a message")
	}
	n.Isolate(1, false)
	n.Send(0, 1, msg(wire.TWrite))
	if _, ok := n.Recv(1); !ok {
		t.Fatal("link not restored after isolation")
	}
}

func TestDropAll(t *testing.T) {
	n := New(Config{N: 2, Seed: 3, Adversary: Adversary{DropProb: 1.0}})
	defer n.Close()
	for i := 0; i < 50; i++ {
		n.Send(0, 1, msg(wire.TWrite))
	}
	if n.QueueLen(1) != 0 {
		t.Error("DropProb=1 delivered messages")
	}
	if n.Counters().Drops() != 50 {
		t.Errorf("drops = %d, want 50", n.Counters().Drops())
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{N: 2, Seed: 5, Adversary: Adversary{DupProb: 1.0}})
	defer n.Close()
	n.Send(0, 1, msg(wire.TWrite))
	got := 0
	for {
		deadline := time.After(100 * time.Millisecond)
		done := make(chan bool, 1)
		go func() {
			_, ok := n.Recv(1)
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				got++
				continue
			}
		case <-deadline:
		}
		break
	}
	if got != 2 {
		t.Errorf("DupProb=1 delivered %d copies, want 2", got)
	}
}

func TestDelayReordersAndEventuallyDelivers(t *testing.T) {
	n := New(Config{N: 2, Seed: 9, Adversary: Adversary{MinDelay: 0, MaxDelay: 3 * time.Millisecond}})
	defer n.Close()
	const total = 200
	for i := 0; i < total; i++ {
		n.Send(0, 1, &wire.Message{Type: wire.TWrite, SSN: int64(i)})
	}
	var order []int64
	for i := 0; i < total; i++ {
		m, ok := n.Recv(1)
		if !ok {
			t.Fatalf("only %d/%d delivered", i, total)
		}
		order = append(order, m.SSN)
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("random delays produced perfectly ordered delivery (reordering adversary ineffective)")
	}
}

func TestBoundedInboxDropsOldest(t *testing.T) {
	n := New(Config{N: 2, Seed: 1, InboxCap: 4})
	defer n.Close()
	for i := 0; i < 10; i++ {
		n.Send(0, 1, &wire.Message{Type: wire.TWrite, SSN: int64(i)})
	}
	if got := n.QueueLen(1); got != 4 {
		t.Fatalf("queue len = %d, want cap 4", got)
	}
	m, _ := n.Recv(1)
	if m.SSN != 6 {
		t.Errorf("oldest surviving message SSN=%d, want 6 (drop-oldest)", m.SSN)
	}
}

// TestEvictionsAreMetered: every message lost to bounded-inbox overflow
// must surface in the counters — the paper's bounded-capacity channel loss
// is part of the communication-complexity accounting.
func TestEvictionsAreMetered(t *testing.T) {
	n := New(Config{N: 2, Seed: 1, InboxCap: 4})
	defer n.Close()
	for i := 0; i < 10; i++ {
		n.Send(0, 1, &wire.Message{Type: wire.TWrite, SSN: int64(i)})
	}
	if got := n.Counters().Evictions(); got != 6 {
		t.Errorf("evictions = %d, want 6", got)
	}
	if got := n.Counters().Snapshot().Evictions; got != 6 {
		t.Errorf("snapshot evictions = %d, want 6", got)
	}
	// Evictions are channel-capacity losses, distinct from adversary drops.
	if got := n.Counters().Drops(); got != 0 {
		t.Errorf("drops = %d, want 0 (evictions must not be conflated)", got)
	}
}

// TestClosePromptWithLargeMaxDelay: Close must not stall until pending
// delayed packets would have been delivered (the old per-packet timer
// scheme waited up to MaxDelay).
func TestClosePromptWithLargeMaxDelay(t *testing.T) {
	n := New(Config{N: 2, Seed: 1, Adversary: Adversary{MinDelay: 10 * time.Second, MaxDelay: 20 * time.Second}})
	for i := 0; i < 100; i++ {
		n.Send(0, 1, msg(wire.TWrite))
	}
	if n.pendingLen() == 0 {
		t.Fatal("no pending delayed packets; test exercises nothing")
	}
	start := time.Now()
	n.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with 20s MaxDelay backlog", d)
	}
}

// TestDelayBoundsNormalized: a misconfigured MaxDelay < MinDelay used to be
// silently ignored by Adversary.delay; New must normalize the pair.
func TestDelayBoundsNormalized(t *testing.T) {
	n := New(Config{N: 1, Seed: 1, Adversary: Adversary{MinDelay: 5 * time.Millisecond, MaxDelay: time.Millisecond}})
	defer n.Close()
	a := n.cfg.Adversary
	if a.MinDelay != time.Millisecond || a.MaxDelay != 5*time.Millisecond {
		t.Errorf("bounds not swapped: min=%v max=%v", a.MinDelay, a.MaxDelay)
	}
	n2 := New(Config{N: 1, Seed: 1, Adversary: Adversary{MinDelay: -time.Second, MaxDelay: -time.Millisecond}})
	defer n2.Close()
	a2 := n2.cfg.Adversary
	if a2.MinDelay != 0 || a2.MaxDelay != 0 {
		t.Errorf("negative bounds not clamped: min=%v max=%v", a2.MinDelay, a2.MaxDelay)
	}
}

func TestCounters(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	n.Send(0, 1, msg(wire.TWrite))
	n.Send(0, 1, msg(wire.TGossip))
	n.Send(1, 0, msg(wire.TWriteAck))
	s := n.Counters().Snapshot()
	if s.Messages != 3 {
		t.Errorf("total = %d", s.Messages)
	}
	if s.PerType[wire.TWrite].Messages != 1 || s.PerType[wire.TGossip].Messages != 1 {
		t.Errorf("per-type wrong: %v", s.PerType)
	}
	if s.Bytes <= 0 {
		t.Error("bytes not metered")
	}
}

func TestDrainInbox(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	n.Send(0, 1, msg(wire.TWrite))
	n.Send(0, 1, msg(wire.TWrite))
	n.DrainInbox(1)
	if n.QueueLen(1) != 0 {
		t.Error("drain left messages")
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := n.Recv(1); ok {
			t.Error("Recv returned a message after close")
		}
	}()
	time.Sleep(5 * time.Millisecond)
	n.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
}

func TestCloseEndpointOnly(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	defer n.Close()
	n.CloseEndpoint(1)
	if _, ok := n.Recv(1); ok {
		t.Error("closed endpoint still receives")
	}
	n.Send(0, 0, msg(wire.TWrite))
	if _, ok := n.Recv(0); !ok {
		t.Error("other endpoint affected")
	}
}

func TestConcurrentSendRecv(t *testing.T) {
	n := New(Config{N: 4, Seed: 1, Adversary: Adversary{MaxDelay: time.Millisecond}})
	var wg sync.WaitGroup
	const per = 200
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Send(s, (s+1)%4, msg(wire.TGossip))
			}
		}(s)
	}
	var recvWg sync.WaitGroup
	counts := make([]int, 4)
	for r := 0; r < 4; r++ {
		recvWg.Add(1)
		go func(r int) {
			defer recvWg.Done()
			for {
				if _, ok := n.Recv(r); !ok {
					return
				}
				counts[r]++
			}
		}(r)
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond) // let delayed deliveries land
	n.Close()
	recvWg.Wait()
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total != 4*per {
		t.Errorf("delivered %d, want %d", total, 4*per)
	}
}

// TestCutsChangeUnderConcurrentSendMany: cuts are published copy-on-write
// and read by sends without a lock. Under -race, SetCut and Isolate churn
// while SendMany fans out; a link cut for the whole run still delivers
// nothing, and the churned links deliver once restored.
func TestCutsChangeUnderConcurrentSendMany(t *testing.T) {
	n := New(Config{N: 4, Seed: 1, InboxCap: 1 << 16})
	defer n.Close()
	n.SetCut(0, 1, true)

	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n.SendMany(0, []int{1, 2, 3}, msg(wire.TGossip))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n.SetCut(0, 2, i%2 == 0)
			n.Isolate(3, i%3 == 0)
		}
		n.SetCut(0, 2, false)
		n.Isolate(3, false)
	}()
	wg.Wait()

	if q := n.QueueLen(1); q != 0 {
		t.Fatalf("the cut link 0→1 delivered %d messages", q)
	}
	before2, before3 := n.QueueLen(2), n.QueueLen(3)
	n.SendMany(0, []int{1, 2, 3}, msg(wire.TGossip))
	if n.QueueLen(1) != 0 || n.QueueLen(2) != before2+1 || n.QueueLen(3) != before3+1 {
		t.Errorf("after the churn: queues 1/2/3 = %d/%d/%d, want 0/%d/%d",
			n.QueueLen(1), n.QueueLen(2), n.QueueLen(3), before2+1, before3+1)
	}
}
