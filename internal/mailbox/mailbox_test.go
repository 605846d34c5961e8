package mailbox

import (
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

func msg(ssn int64) *wire.Message { return &wire.Message{Type: wire.TGossip, SSN: ssn} }

func TestFIFO(t *testing.T) {
	q := New[*wire.Message](4)
	for i := int64(0); i < 3; i++ {
		if q.Push(msg(i)) {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	for i := int64(0); i < 3; i++ {
		m, ok := q.Pop()
		if !ok || m.SSN != i {
			t.Fatalf("pop %d = %v ok=%v", i, m, ok)
		}
	}
}

// TestPushSignalsOnlyWhenEmpty: the one consumer parks only on an empty
// queue, so only the Push that makes the queue non-empty signals it; a Push
// onto a non-empty queue, evicting or not, leaves the signal unset.
func TestPushSignalsOnlyWhenEmpty(t *testing.T) {
	clk := simclock.Real()
	q := NewClocked[*wire.Message](clk, 2)
	q.Push(msg(1))
	if !clk.Poll(q.avail) {
		t.Fatal("a Push onto an empty queue did not signal")
	}
	q.Push(msg(2))
	if clk.Poll(q.avail) {
		t.Error("a Push onto a non-empty queue signalled")
	}
	if !q.Push(msg(3)) || clk.Poll(q.avail) {
		t.Error("an evicting Push onto a full queue signalled")
	}
	for q.Len() > 0 {
		q.TryPop()
	}
	if clk.Poll(q.avail) {
		t.Error("draining the queue left the signal set")
	}
	q.Push(msg(4))
	if !clk.Poll(q.avail) {
		t.Fatal("a Push onto a queue drained empty did not signal")
	}
}

func TestDropOldestOnOverflow(t *testing.T) {
	q := New[*wire.Message](3)
	evictions := 0
	for i := int64(0); i < 10; i++ {
		if q.Push(msg(i)) {
			evictions++
		}
	}
	if evictions != 7 {
		t.Errorf("evictions = %d, want 7", evictions)
	}
	if q.Len() != 3 {
		t.Errorf("len = %d, want 3", q.Len())
	}
	for i := int64(7); i < 10; i++ {
		m, ok := q.Pop()
		if !ok || m.SSN != i {
			t.Fatalf("surviving message = %v (ok=%v), want SSN %d", m, ok, i)
		}
	}
}

func TestMinimumCapacity(t *testing.T) {
	q := New[*wire.Message](0)
	if q.Cap() != 1 {
		t.Fatalf("cap = %d, want clamped 1", q.Cap())
	}
	q.Push(msg(1))
	if !q.Push(msg(2)) {
		t.Error("second push into cap-1 queue did not evict")
	}
	if m, _ := q.Pop(); m.SSN != 2 {
		t.Errorf("kept SSN %d, want newest 2", m.SSN)
	}
}

func TestDrain(t *testing.T) {
	q := New[*wire.Message](8)
	q.Push(msg(1))
	q.Push(msg(2))
	q.Drain()
	if q.Len() != 0 {
		t.Error("drain left messages")
	}
	q.Push(msg(3))
	if m, ok := q.Pop(); !ok || m.SSN != 3 {
		t.Error("queue unusable after drain")
	}
}

func TestCloseDrainsThenReportsClosed(t *testing.T) {
	q := New[*wire.Message](8)
	q.Push(msg(1))
	q.Close()
	if m, ok := q.Pop(); !ok || m.SSN != 1 {
		t.Fatal("buffered message lost by close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain of closed queue succeeded")
	}
	if q.Push(msg(2)) {
		t.Error("push to closed queue reported eviction")
	}
	if q.Len() != 0 {
		t.Error("push to closed queue enqueued")
	}
}

func TestCloseUnblocksPop(t *testing.T) {
	q := New[*wire.Message](4)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("blocked pop returned a message after close")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Pop")
	}
}

func TestConcurrentPushPop(t *testing.T) {
	q := New[*wire.Message](64)
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(msg(int64(i)))
			}
		}()
	}
	var got int
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
			got++
		}
	}()
	wg.Wait()
	q.Close()
	rwg.Wait()
	if got == 0 || got > producers*per {
		t.Errorf("drained %d messages, want (0, %d]", got, producers*per)
	}
}

// TestEvictionsCounterExact: the lock-free Evictions counter agrees with
// Push's per-call eviction reports, and survives Drain (it counts losses
// over the queue's lifetime, not its current content).
func TestEvictionsCounterExact(t *testing.T) {
	q := New[*wire.Message](3)
	reported := int64(0)
	for i := int64(0); i < 10; i++ {
		if q.Push(msg(i)) {
			reported++
		}
	}
	if got := q.Evictions(); got != reported || got != 7 {
		t.Errorf("Evictions = %d, Push reported %d, want 7", got, reported)
	}
	q.Drain()
	if got := q.Evictions(); got != 7 {
		t.Errorf("Drain changed Evictions to %d, want 7 (lifetime counter)", got)
	}
	// Closed queues discard without evicting: the counter must not move.
	q.Close()
	q.Push(msg(99))
	if got := q.Evictions(); got != 7 {
		t.Errorf("push-after-close moved Evictions to %d, want 7", got)
	}
}

// TestEvictionMeteringUnderContention is the -race hammer for the
// eviction meter: several producers overflow a small queue while a
// consumer pops concurrently (including blocked receives that wake into
// evicting pushes). It pins two properties no matter the interleaving:
// exact conservation (popped + evicted + still queued == pushed) and
// drop-oldest order (each producer's surviving messages arrive in the
// order it pushed them).
func TestEvictionMeteringUnderContention(t *testing.T) {
	const capacity, producers, per = 8, 4, 2000
	q := New[*wire.Message](capacity)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				// SSN encodes (producer, sequence) so the consumer can check
				// per-producer FIFO order across evictions.
				q.Push(msg(int64(p)*per + i))
			}
		}()
	}

	popped := int64(0)
	lastSeq := make([]int64, producers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			m, ok := q.Pop()
			if !ok {
				return
			}
			popped++
			prod, seq := m.SSN/per, m.SSN%per
			if lastSeq[prod] >= seq {
				t.Errorf("producer %d delivered out of order: seq %d after %d", prod, seq, lastSeq[prod])
				return
			}
			lastSeq[prod] = seq
		}
	}()

	wg.Wait()
	q.Close()
	rwg.Wait()

	// The consumer drains everything buffered at Close, so nothing is left:
	// every pushed message was either delivered or metered as evicted.
	total := int64(producers * per)
	if got := popped + q.Evictions() + int64(q.Len()); got != total {
		t.Errorf("conservation broken: popped %d + evicted %d + queued %d = %d, want %d",
			popped, q.Evictions(), q.Len(), got, total)
	}
	if q.Evictions() == 0 {
		t.Error("hammer never overflowed the queue; shrink capacity or raise per")
	}
}
