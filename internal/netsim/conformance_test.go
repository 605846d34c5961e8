package netsim_test

import (
	"testing"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/transporttest"
)

// TestOverloadConformance runs the shared drop-oldest overload suite
// against the in-memory simulator; internal/tcpnet runs the identical
// suite, guaranteeing both backends agree on the model's channel loss.
func TestOverloadConformance(t *testing.T) {
	const capacity = 16
	n := netsim.New(netsim.Config{N: 2, Seed: 1, InboxCap: capacity})
	defer n.Close()
	transporttest.OverloadDropOldest(t, n, n, 0, 1, capacity)
}

// TestOverloadConformanceSendMany asserts overload behaviour is identical
// when the channel is filled through the SendMany fast path.
func TestOverloadConformanceSendMany(t *testing.T) {
	const capacity = 16
	n := netsim.New(netsim.Config{N: 2, Seed: 1, InboxCap: capacity})
	defer n.Close()
	transporttest.OverloadDropOldestMany(t, n, n, 0, 1, capacity)
}

// TestSendManyEquivalenceConformance asserts SendMany ≡ a Send loop on the
// simulator: same deliveries, same envelopes, same metering.
func TestSendManyEquivalenceConformance(t *testing.T) {
	n := netsim.New(netsim.Config{N: 5, Seed: 1})
	defer n.Close()
	self := func(int) netsim.Transport { return n }
	// Broadcast shape: the sender is among the recipients.
	transporttest.SendManyEquivalence(t, n, self, 0, []int{0, 1, 2, 3, 4}, false)
}

// TestPerPeerFIFOConformance pins per-peer delivery ordering on the
// simulator — the discipline the dispatcher's per-sender FIFO relies on.
func TestPerPeerFIFOConformance(t *testing.T) {
	n := netsim.New(netsim.Config{N: 4, Seed: 1, InboxCap: 4096})
	defer n.Close()
	self := func(int) netsim.Transport { return n }
	transporttest.PerPeerFIFO(t, n, self, 0, []int{1, 2, 3}, 500)
}

// TestMixedObjectConformance pins object-id transparency on the simulator:
// frames of distinct objects share one per-peer channel with FIFO intact,
// Obj round-trips unmangled, and SendMany meters like a Send loop for
// nonzero object ids.
func TestMixedObjectConformance(t *testing.T) {
	n := netsim.New(netsim.Config{N: 4, Seed: 1, InboxCap: 4096})
	defer n.Close()
	self := func(int) netsim.Transport { return n }
	transporttest.MixedObjectTraffic(t, n, self, 0, []int{1, 2, 3}, 500, false)
}

// TestConcurrentFanoutConformance exercises the copy-on-write sharing of
// broadcast fan-out under the race detector: all recipients read their
// deliveries while the sender keeps broadcasting and mutating its message.
func TestConcurrentFanoutConformance(t *testing.T) {
	n := netsim.New(netsim.Config{N: 4, Seed: 1, InboxCap: 4096})
	defer n.Close()
	self := func(int) netsim.Transport { return n }
	transporttest.ConcurrentFanout(t, n, self, 0, []int{0, 1, 2, 3}, 200)
}
