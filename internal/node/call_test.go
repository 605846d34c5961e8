package node

import (
	"testing"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// testCall builds an n = 5, quorum 3 call that accepts every message, on
// the real clock.
func testCall(wakeEach bool) (*call, simclock.Clock) {
	clk := simclock.Real()
	return newCall(0, 5, 3, func(*wire.Message) bool { return true }, wakeEach, clk.NewSignal()), clk
}

func ack(from int32) *wire.Message { return &wire.Message{Type: wire.TWriteAck, From: from} }

// TestCallWakesOnceAtQuorum: without Stop the caller can do nothing before
// the quorum, so the first two acks of a quorum-3 call leave it asleep and
// the third wakes it; acks past the quorum do not wake it again.
func TestCallWakesOnceAtQuorum(t *testing.T) {
	c, clk := testCall(false)
	c.offer(ack(0))
	c.offer(ack(1))
	if clk.Poll(c.notify) {
		t.Fatal("two acks of a quorum-3 call woke the caller")
	}
	c.offer(ack(2))
	if !clk.Poll(c.notify) {
		t.Fatal("the third ack did not wake the caller")
	}
	c.offer(ack(3))
	if clk.Poll(c.notify) {
		t.Error("an ack past the quorum woke the caller again")
	}
	if got := c.kept(); got != 4 {
		t.Errorf("kept %d acks, want 4", got)
	}
}

// TestCallWakesPerAckWithStop: Stop is re-checked after every accepted ack,
// so each one wakes the caller.
func TestCallWakesPerAckWithStop(t *testing.T) {
	c, clk := testCall(true)
	for from := int32(0); from < 5; from++ {
		c.offer(ack(from))
		if !clk.Poll(c.notify) {
			t.Fatalf("ack %d did not wake a caller with Stop set", from)
		}
	}
}

// TestCallDropsAcksAfterTake: once the caller holds its Rec set, a late ack
// is not kept.
func TestCallDropsAcksAfterTake(t *testing.T) {
	c, _ := testCall(false)
	for from := int32(0); from < 3; from++ {
		c.offer(ack(from))
	}
	recs := c.take(-1)
	c.offer(ack(3))
	c.offer(ack(4))
	if len(recs) != 3 || c.kept() != 3 {
		t.Errorf("Rec set %d, kept %d after two late acks; want 3 and 3", len(recs), c.kept())
	}
}

// TestCallCountsOnlyDistinctMembers: a duplicate From counts once, and a
// From outside [0, n) names no node and does not count at all.
func TestCallCountsOnlyDistinctMembers(t *testing.T) {
	c, clk := testCall(false)
	for _, from := range []int32{1, 1, -1, 5, 1 << 30} {
		c.offer(ack(from))
	}
	if got := c.kept(); got != 1 {
		t.Fatalf("kept %d acks, want 1 (one distinct member)", got)
	}
	c.offer(ack(4))
	if clk.Poll(c.notify) {
		t.Fatal("two distinct members plus duplicates and strangers reached quorum 3")
	}
	c.offer(ack(0))
	if !clk.Poll(c.notify) {
		t.Fatal("the third distinct member did not wake the caller")
	}
	for _, m := range c.take(-1) {
		if m.From < 0 || m.From >= 5 {
			t.Errorf("Rec set holds an ack from %d", m.From)
		}
	}
}
