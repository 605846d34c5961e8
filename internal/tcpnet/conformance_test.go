package tcpnet

import (
	"testing"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/transporttest"
)

// The TCP transport must satisfy the same interfaces the simulator does,
// including the broadcast fan-out fast path.
var (
	_ netsim.Transport  = (*Transport)(nil)
	_ netsim.ManySender = (*Transport)(nil)
)

// TestOverloadConformance runs the shared drop-oldest overload suite
// against real sockets; internal/netsim runs the identical suite,
// guaranteeing both backends agree on the model's channel loss.
func TestOverloadConformance(t *testing.T) {
	const capacity = 16
	m, err := NewMeshWithOptions(2, Options{InboxCap: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	transporttest.OverloadDropOldest(t, m.Transports[0], m.Transports[1], 0, 1, capacity)
}

// TestOverloadConformanceSendMany asserts overload behaviour is identical
// when the channel is filled through the marshal-once SendMany path.
func TestOverloadConformanceSendMany(t *testing.T) {
	const capacity = 16
	m, err := NewMeshWithOptions(2, Options{InboxCap: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	transporttest.OverloadDropOldestMany(t, m.Transports[0], m.Transports[1], 0, 1, capacity)
}

// TestSendManyEquivalenceConformance asserts SendMany ≡ a Send loop over
// real sockets: same deliveries, same envelopes (the receiver stamps To,
// so the shared frame is invisible), same metering.
func TestSendManyEquivalenceConformance(t *testing.T) {
	m, err := NewMesh(5)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	endpoint := func(k int) netsim.Transport { return m.Transports[k] }
	// Broadcast shape: the sender is among the recipients (loopback).
	transporttest.SendManyEquivalence(t, m.Transports[0], endpoint, 0, []int{0, 1, 2, 3, 4}, true)
}

// TestPerPeerFIFOConformance pins per-peer frame ordering through the
// vectored/batched write path: bursts that coalesce into one writev (and
// SendMany frames shared across outboxes) must still arrive exactly once,
// in send order, per peer.
func TestPerPeerFIFOConformance(t *testing.T) {
	m, err := NewMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	endpoint := func(k int) netsim.Transport { return m.Transports[k] }
	transporttest.PerPeerFIFO(t, m.Transports[0], endpoint, 0, []int{1, 2, 3}, 500)
}

// TestPerPeerFIFOConformanceUnbatched re-runs the FIFO suite with
// WriteBatch=1 (the frame-at-a-time writer), pinning that batching is a
// pure coalescing optimisation with no ordering effect.
func TestPerPeerFIFOConformanceUnbatched(t *testing.T) {
	m, err := NewMeshWithOptions(4, Options{WriteBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	endpoint := func(k int) netsim.Transport { return m.Transports[k] }
	transporttest.PerPeerFIFO(t, m.Transports[0], endpoint, 0, []int{1, 2, 3}, 500)
}

// TestMixedObjectConformance pins object-id transparency over real
// sockets: interleaved objects share each TCP stream with per-peer FIFO
// intact through the vectored writer, the codec round-trips Obj, and
// SendMany's shared frames meter like a Send loop for nonzero object ids.
func TestMixedObjectConformance(t *testing.T) {
	m, err := NewMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	endpoint := func(k int) netsim.Transport { return m.Transports[k] }
	transporttest.MixedObjectTraffic(t, m.Transports[0], endpoint, 0, []int{1, 2, 3}, 500, true)
}

// TestConcurrentFanoutConformance exercises frame sharing across per-peer
// outboxes under the race detector: all recipients read their deliveries
// while the sender keeps broadcasting and mutating its message.
func TestConcurrentFanoutConformance(t *testing.T) {
	m, err := NewMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	endpoint := func(k int) netsim.Transport { return m.Transports[k] }
	transporttest.ConcurrentFanout(t, m.Transports[0], endpoint, 0, []int{0, 1, 2, 3}, 200)
}
