package node_test

import (
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/wire"
)

// dispatchCountAlg counts deliveries.
type dispatchCountAlg struct {
	handled atomic.Int64
}

func (a *dispatchCountAlg) HandleMessage(*wire.Message) { a.handled.Add(1) }
func (a *dispatchCountAlg) Tick()                       {}

// BenchmarkDispatch: four senders flood one receiver end-to-end through
// netsim, and ns/op is the per-message dispatch cost — inbox hop,
// receive, handler, quorum-call offer. Flow control caps in-flight
// messages well under the inbox capacity so drop-oldest never fires and
// every sent message is eventually counted.
func BenchmarkDispatch(b *testing.B) {
	const n = 5
	net := netsim.New(netsim.Config{N: n, Seed: 1})
	defer net.Close()
	recv := &dispatchCountAlg{}
	rts := make([]*node.Runtime, n)
	for i := 0; i < n; i++ {
		alg := node.Algorithm(&dispatchCountAlg{})
		if i == 0 {
			alg = recv
		}
		rts[i] = node.NewRuntime(i, net, alg, node.Options{})
		rts[i].Start()
		defer rts[i].Close()
	}
	m := &wire.Message{Type: wire.TGossip, SSN: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-recv.handled.Load() > 2048 {
			time.Sleep(10 * time.Microsecond)
		}
		rts[1+i%(n-1)].Send(0, m)
	}
	for recv.handled.Load() < int64(b.N) {
		time.Sleep(10 * time.Microsecond)
	}
}
