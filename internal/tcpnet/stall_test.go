package tcpnet

import (
	"testing"
	"time"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestStalledPeerDoesNotBlockSend: a peer that accepts connections but
// never reads eventually zero-windows the TCP connection, blocking the
// writer goroutine in conn.Write. Send and SendMany must stay prompt
// regardless — frames pile into the bounded outbox and the overflow
// surfaces as sender-side evictions, never as caller latency. This is the
// regression test for the old synchronous send path, where every caller
// paid up to WriteTimeout for a stalled peer.
func TestStalledPeerDoesNotBlockSend(t *testing.T) {
	tr, err := NewWithOptions(0, []string{"127.0.0.1:0", stalledListener(t)}, Options{OutboxCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// ~64 KiB per frame: enough volume to fill the socket buffers and jam
	// the writer in conn.Write long before the sends are done.
	big := &wire.Message{Type: wire.TWrite, Reg: types.RegVector{{TS: 1, Val: make(types.Value, 64<<10)}}}
	const sends = 200
	start := time.Now()
	for i := 0; i < sends; i++ {
		if i%2 == 0 {
			tr.Send(0, 1, big)
		} else {
			tr.SendMany(0, []int{1}, big)
		}
	}
	// Aggregate bound, not per-send: a single send can eat a scheduler
	// hiccup or GC pause on a loaded CI machine, which used to flake a
	// <10ms worst-case assertion. The regression this guards — the old
	// synchronous path paying up to WriteTimeout per send to a stalled
	// peer — would cost hundreds of seconds across 200 sends, so a whole-
	// loop budget separates the two behaviours just as sharply without
	// depending on any single iteration's latency.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("%d sends to a stalled peer took %v, want ≪2s total (outbox must absorb the stall)", sends, elapsed)
	}
	if tr.Counters().Evictions() == 0 {
		t.Error("stalled peer produced no sender-side outbox evictions")
	}
	if got := tr.Counters().TotalMessages(); got != sends {
		t.Errorf("metered %d sends, want %d (metering happens at serialization, not delivery)", got, sends)
	}
}
