package netsim

import (
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// lossy is a profile that deterministically kills every transmission.
func lossy() LinkProfile { return LinkProfile{Adversary: Adversary{DropProb: 1}} }

// TestLinkMatrixSelfLink: a node's send to itself crosses the [i][i] entry
// of the matrix — a lossy self-link kills self-delivery while the node's
// other links stay perfect, and vice versa.
func TestLinkMatrixSelfLink(t *testing.T) {
	m := NewLinkMatrix(2)
	m[0][0] = lossy()
	n := New(Config{N: 2, Seed: 1, Links: m})
	defer n.Close()
	n.Send(0, 0, msg(wire.TGossip))
	if got := n.Counters().Drops(); got != 1 {
		t.Errorf("lossy self-link dropped %d of 1 sends", got)
	}
	n.Send(0, 1, msg(wire.TWrite)) // same sender, perfect cross link
	if got, ok := n.Recv(1); !ok || got.Type != wire.TWrite {
		t.Fatal("perfect [0][1] link did not deliver")
	}
	if n.Counters().Drops() != 1 {
		t.Errorf("cross link shared the self-link's profile: drops = %d", n.Counters().Drops())
	}
}

// TestLinkMatrixPartialFallback: links the matrix does not cover — short
// rows, short matrix, out-of-range ids — use the global Adversary, so a
// small matrix overlays special links on an otherwise uniform network.
func TestLinkMatrixPartialFallback(t *testing.T) {
	m := LinkMatrix{{{}, {}}, {{}, {}}} // 2×2 matrix, perfect links
	n := New(Config{N: 3, Seed: 1, Adversary: Adversary{DropProb: 1}, Links: m})
	defer n.Close()

	n.Send(0, 1, msg(wire.TWrite)) // covered: perfect
	if got, ok := n.Recv(1); !ok || got.Type != wire.TWrite {
		t.Fatal("matrix-covered link fell back to the lossy global adversary")
	}
	n.Send(0, 2, msg(wire.TWrite)) // row 0 is short: global adversary
	n.Send(2, 0, msg(wire.TWrite)) // row 2 missing: global adversary
	if got := n.Counters().Drops(); got != 2 {
		t.Errorf("uncovered links dropped %d of 2 sends under DropProb=1", got)
	}

	// At itself: the documented coverage predicate.
	if _, ok := m.At(0, 2); ok {
		t.Error("short row reported covered")
	}
	if _, ok := m.At(2, 0); ok {
		t.Error("missing row reported covered")
	}
	if _, ok := m.At(-1, 0); ok {
		t.Error("negative id reported covered")
	}
	if _, ok := m.At(0, 1); !ok {
		t.Error("in-range entry reported uncovered")
	}
}

// TestLinkMatrixNormalized: per-link Min>Max delay pairs are swapped and
// negative bandwidth clamped at construction, mirroring the global
// adversary's normalization (TestDelayBoundsNormalized).
func TestLinkMatrixNormalized(t *testing.T) {
	m := NewLinkMatrix(2)
	m[0][1] = LinkProfile{
		Adversary:    Adversary{MinDelay: 5 * time.Millisecond, MaxDelay: time.Millisecond},
		BandwidthBps: -7,
	}
	n := New(Config{N: 2, Seed: 1, Links: m})
	defer n.Close()
	p, ok := n.topo.Load().links.At(0, 1)
	if !ok {
		t.Fatal("installed link not covered")
	}
	if p.MinDelay != time.Millisecond || p.MaxDelay != 5*time.Millisecond {
		t.Errorf("bounds not swapped: min=%v max=%v", p.MinDelay, p.MaxDelay)
	}
	if p.BandwidthBps != 0 {
		t.Errorf("negative bandwidth not clamped: %d", p.BandwidthBps)
	}
	// The caller's matrix must not have been mutated in place.
	if m[0][1].MinDelay != 5*time.Millisecond {
		t.Error("normalization mutated the caller's matrix")
	}
}

// TestSendManyMatrixPerRecipient: SendMany draws each recipient's fate on
// its own directed link — a lossy link to one recipient must not affect the
// others sharing the broadcast.
func TestSendManyMatrixPerRecipient(t *testing.T) {
	m := NewLinkMatrix(4)
	m[0][2] = lossy()
	n := New(Config{N: 4, Seed: 1, Links: m})
	defer n.Close()
	n.SendMany(0, []int{1, 2, 3}, msg(wire.TGossip))
	for _, to := range []int{1, 3} {
		if got, ok := n.Recv(to); !ok || got.Type != wire.TGossip {
			t.Fatalf("recipient %d lost the broadcast to a sibling's lossy link", to)
		}
	}
	if got := n.Counters().Drops(); got != 1 {
		t.Errorf("drops = %d, want exactly the lossy recipient", got)
	}
	// Metering counts one send per recipient, drop or not.
	if got := n.Counters().Messages(wire.TGossip); got != 3 {
		t.Errorf("sends metered = %d, want 3", got)
	}
}

// TestLinkMatrixBandwidthDelay: a finite BandwidthBps adds a size-
// proportional serialization delay — the packet sits in the delivery queue
// rather than arriving instantly.
func TestLinkMatrixBandwidthDelay(t *testing.T) {
	m := NewLinkMatrix(2)
	m[0][1] = LinkProfile{BandwidthBps: 1} // ~seconds per byte
	n := New(Config{N: 2, Seed: 1, Links: m})
	defer n.Close()
	n.Send(0, 1, msg(wire.TWrite))
	if n.pendingLen() == 0 && n.QueueLen(1) == 0 {
		t.Error("bandwidth-bound packet neither pending nor queued")
	}
	if n.QueueLen(1) != 0 {
		t.Error("serialization delay not applied: packet delivered instantly")
	}
}

// delivery is one arrival seen by deliveryLog.
type delivery struct {
	to  int
	ssn int64
	at  time.Time
}

// deliveryLog is a TraceHook recording every arrival in order.
type deliveryLog struct {
	mu  sync.Mutex
	got []delivery
}

func (l *deliveryLog) OnSend(int, int, *wire.Message, time.Time) {}

func (l *deliveryLog) OnDeliver(_, to int, m *wire.Message, at time.Time) {
	l.mu.Lock()
	l.got = append(l.got, delivery{to, m.SSN, at})
	l.mu.Unlock()
}

// runResult is what seededRun observed: drop and dup counts and the
// delivery sequence.
type runResult struct {
	drops, dups int64
	got         []delivery
}

// seededRun builds a network from cfg under a virtual clock, lets reshape
// adjust it, sends the same 300 messages from node 0 round-robin to every
// node, and waits out every delay.
func seededRun(t *testing.T, cfg Config, reshape func(*Network)) (r runResult) {
	t.Helper()
	v := simclock.NewVirtual()
	log := &deliveryLog{}
	v.Run("test", func() {
		cfg.Clock, cfg.Trace = v, log
		n := New(cfg)
		defer n.Close()
		if reshape != nil {
			reshape(n)
		}
		for i := 0; i < 300; i++ {
			n.Send(0, i%cfg.N, &wire.Message{Type: wire.TWrite, SSN: int64(i)})
		}
		v.Sleep(time.Minute)
		r.drops, r.dups = n.Counters().Drops(), n.Counters().Dups()
	})
	if r.drops == 0 || r.dups == 0 {
		t.Fatalf("adversary inactive: drops=%d dups=%d", r.drops, r.dups)
	}
	r.got = log.got
	return r
}

// sameRun fails unless two seededRun results are identical.
func sameRun(t *testing.T, what string, a, b runResult) {
	t.Helper()
	if a.drops != b.drops || a.dups != b.dups {
		t.Fatalf("%s: drops/dups (%d,%d) vs (%d,%d)", what, a.drops, a.dups, b.drops, b.dups)
	}
	if len(a.got) != len(b.got) {
		t.Fatalf("%s: %d deliveries vs %d", what, len(a.got), len(b.got))
	}
	for i := range a.got {
		if a.got[i] != b.got[i] {
			t.Fatalf("%s: delivery %d differs: %+v vs %+v", what, i, a.got[i], b.got[i])
		}
	}
}

var hostile = Adversary{DropProb: 0.2, DupProb: 0.2, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// TestSlowNodeFactorRoundTrip: slowing a node down and healing it again
// (factor ≤ 1 clamps to full speed, out-of-range ids are ignored) leaves a
// network that draws the same drops, dups and delivery order as one that
// was never slowed, so a healed cluster's digests match a never-slowed one.
func TestSlowNodeFactorRoundTrip(t *testing.T) {
	cfg := Config{N: 3, Seed: 1, Adversary: hostile}
	never := seededRun(t, cfg, nil)
	healed := seededRun(t, cfg, func(n *Network) {
		n.SetNodeSlowdown(1, 4)
		n.SetNodeSlowdown(1, 0.25)
		n.SetNodeSlowdown(7, 5)
		if n.topo.Load().slow != nil {
			t.Error("all-ones slowdown kept a factor table")
		}
	})
	sameRun(t, "healed vs never slowed", never, healed)

	// Still slowed, the same draws arrive later: the heal is what restored
	// the timing, not a slowdown that never took effect.
	slowed := seededRun(t, cfg, func(n *Network) { n.SetNodeSlowdown(1, 4) }).got
	if len(slowed) != len(never.got) || slowed[len(slowed)-1].at.Equal(never.got[len(never.got)-1].at) {
		t.Error("a slowed node's traffic arrived on the unslowed schedule")
	}
}

// TestUniformAdversaryIsUniformMatrix: a global Adversary and a LinkMatrix
// whose every entry is that adversary are the same network — same RNG
// draws, so the same drops, dups and delivery sequence for a seed.
func TestUniformAdversaryIsUniformMatrix(t *testing.T) {
	const n = 3
	m := NewLinkMatrix(n)
	for i := range m {
		for j := range m[i] {
			m[i][j] = LinkProfile{Adversary: hostile}
		}
	}
	sameRun(t, "Adversary vs uniform Links",
		seededRun(t, Config{N: n, Seed: 42, Adversary: hostile}, nil),
		seededRun(t, Config{N: n, Seed: 42, Links: m}, nil))
}
