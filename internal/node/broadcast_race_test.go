package node_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// readingAlg reads every shared payload field of each delivery, so the race
// detector catches any transport that still writes to a message after
// handing it to the dispatcher.
type readingAlg struct{ sink atomic.Int64 }

func (a *readingAlg) HandleMessage(m *wire.Message) {
	s := m.SSN + int64(len(m.Tasks))
	for _, e := range m.Reg {
		s += e.TS + int64(len(e.Val))
	}
	for _, x := range m.Tasks {
		s += x.SNS
	}
	a.sink.Add(s)
}

func (a *readingAlg) Tick() {}

// TestBroadcastConcurrentWithHandlerReads fires Broadcast and GossipTo from
// concurrent goroutines — evolving each goroutine's message copy-on-write
// between casts (scalars may change in place, slices are replaced, never
// written through) — while every node's dispatcher reads the deliveries.
// Run under -race this pins the zero-copy fan-out contract end to end on
// both transports.
func TestBroadcastConcurrentWithHandlerReads(t *testing.T) {
	const n, rounds = 4, 100
	drive := func(t *testing.T, transports func(k int) netsim.Transport) {
		rts := make([]*node.Runtime, n)
		for k := 0; k < n; k++ {
			rts[k] = node.NewRuntime(k, transports(k), &readingAlg{}, node.Options{})
			rts[k].Start()
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := &wire.Message{
					Type:  wire.TSnapshot,
					SSN:   int64(g),
					Reg:   types.RegVector{{TS: 1, Val: types.Value("payload")}},
					Tasks: []wire.TaskInfo{{Node: 1, SNS: 2}, {Node: 3}},
				}
				for i := 0; i < rounds; i++ {
					if g == 0 {
						rts[0].Broadcast(m)
					} else {
						rts[1].GossipTo(func(int) *wire.Message { return m })
					}
					// The struct is ours again the moment the cast returns,
					// but delivered payload slices are shared: evolve them
					// copy-on-write, never in place.
					m.SSN += 2
					reg := append(types.RegVector(nil), m.Reg...)
					reg[0].TS++
					m.Reg = reg
					tasks := append([]wire.TaskInfo(nil), m.Tasks...)
					tasks[0].SNS++
					m.Tasks = tasks
				}
			}(g)
		}
		wg.Wait()
	}

	t.Run("netsim", func(t *testing.T) {
		net := netsim.New(netsim.Config{N: n, Seed: 1})
		defer net.Close()
		drive(t, func(int) netsim.Transport { return net })
	})
	t.Run("tcpnet", func(t *testing.T) {
		mesh, err := tcpnet.NewMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		drive(t, func(k int) netsim.Transport { return mesh.Transports[k] })
	})
}
