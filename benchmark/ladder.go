package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"selfstabsnap/internal/mailbox"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// The ladder times isolated real-clock calls into each module's public
// functions. The message shape is what a write moves: a WRITE carrying a
// 5-entry register vector of 1024-byte values.
const ladderValueSize = 1024

// ladderRungs is how many timed rungs runLadder has; a run's ladder time
// is split evenly between them.
const ladderRungs = 13

func ladderMessage(typ wire.Type) *wire.Message {
	pay := newPayloads(1, ladderValueSize)
	reg := types.NewRegVector(clusterSize)
	for k := range reg {
		reg[k] = types.TSValue{TS: int64(k + 1), Val: pay.value(k, uint64(k+1))}
	}
	return &wire.Message{Type: typ, Reg: reg}
}

// timeOp reports the median over batches of the mean ns per call of f,
// spending about budget in total. batch calls of f are timed together so
// the clock reads do not count.
func timeOp(budget time.Duration, batch int, f func()) float64 {
	const batches = 15
	per := budget / batches
	var means []float64
	for b := 0; b < batches; b++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < per {
			for i := 0; i < batch; i++ {
				f()
			}
			calls += batch
		}
		means = append(means, float64(time.Since(start))/float64(calls))
	}
	sort.Float64s(means)
	return means[len(means)/2]
}

var ladderSink int

// echoAlg answers every WRITE with a WRITEack of the same shape: the
// runtime and the transport do their work, the algorithm does none.
type echoAlg struct {
	rt    *node.Runtime
	reply *wire.Message
}

func (e *echoAlg) HandleMessage(m *wire.Message) {
	if m.Type == wire.TWrite {
		reply := e.reply.ShallowClone()
		reply.SSN = m.SSN
		e.rt.Send(int(m.From), reply)
	}
}

func (e *echoAlg) Tick() {}

// callRTT times Runtime.Call from node 0 to a majority of echo handlers.
func callRTT(budget time.Duration, transports []netsim.Transport) float64 {
	// The do-forever loop is idle here; a long interval keeps it out of the way.
	opts := node.Options{LoopInterval: time.Second, RetxInterval: 50 * time.Millisecond}
	var hosts []*node.Runtime
	for i, tr := range transports {
		alg := &echoAlg{reply: ladderMessage(wire.TWriteAck)}
		rt := node.NewHost(i, tr, opts)
		alg.rt = rt
		rt.AddObject(alg)
		rt.Start()
		hosts = append(hosts, rt)
	}
	req := ladderMessage(wire.TWrite)
	ns := timeOp(budget, 1, func() {
		// A fresh SSN per call keeps the late acks of the previous call,
		// which a majority did not wait for, out of this one's quorum.
		req.SSN++
		ssn := req.SSN
		_, err := hosts[0].Call(node.CallOpts{
			Build:  func() *wire.Message { return req.ShallowClone() },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == ssn },
		})
		if err != nil {
			panic(fmt.Sprintf("ladder: echo call: %v", err))
		}
	})
	for _, rt := range hosts {
		rt.Close()
	}
	return ns
}

// drainers keeps every node's inbox empty and lets a caller wait until a
// given number of messages has arrived in total.
type drainers struct {
	mu   sync.Mutex
	cond *sync.Cond
	got  int
	wg   sync.WaitGroup
}

func startDrainers(transports []netsim.Transport) *drainers {
	d := &drainers{}
	d.cond = sync.NewCond(&d.mu)
	for i, tr := range transports {
		d.wg.Add(1)
		go func(i int, tr netsim.Transport) {
			defer d.wg.Done()
			for {
				if _, ok := tr.Recv(i); !ok {
					return
				}
				d.mu.Lock()
				d.got++
				d.mu.Unlock()
				d.cond.Broadcast()
			}
		}(i, tr)
	}
	return d
}

func (d *drainers) await(total int) {
	d.mu.Lock()
	for d.got < total {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// runLadder measures every rung; budget is the time spent per rung.
func runLadder(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	msg := ladderMessage(wire.TWrite)

	var frame []byte
	out["wire.marshal_ns"] = timeOp(budget, 16, func() { frame = wire.Marshal(msg) })
	out["wire.frame_bytes"] = float64(len(frame))
	if len(frame) != msg.Size() {
		return nil, fmt.Errorf("ladder: frame of %d bytes, Size() says %d", len(frame), msg.Size())
	}
	var unmarshalErr error
	out["wire.unmarshal_ns"] = timeOp(budget, 16, func() {
		if _, err := wire.Unmarshal(frame); err != nil {
			unmarshalErr = err
		}
	})
	if unmarshalErr != nil {
		return nil, fmt.Errorf("ladder: unmarshal: %w", unmarshalErr)
	}

	out["types.share_ns"] = timeOp(budget, 64, func() { ladderSink += len(msg.Reg.Share()) })
	// Each merge adopts exactly one newer entry, as a server's does when a
	// fresh write arrives.
	incoming := ladderMessage(wire.TWrite).Reg
	local := types.NewRegVector(clusterSize)
	ts := int64(10)
	out["types.merge_ns"] = timeOp(budget, 64, func() {
		ts++
		incoming[int(ts)%clusterSize].TS = ts
		local.MergeFrom(incoming)
	})

	q := mailbox.New[*wire.Message](4096)
	out["mailbox.push_pop_ns"] = timeOp(budget, 64, func() {
		q.Push(msg)
		q.Pop()
	})
	// Hand-off: Push wakes a consumer blocked in Pop in another goroutine;
	// half a ping-pong round trip is one hand-off.
	ping, pong := mailbox.New[*wire.Message](4), mailbox.New[*wire.Message](4)
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			m, ok := ping.Pop()
			if !ok {
				return
			}
			pong.Push(m)
		}
	}()
	out["mailbox.handoff_ns"] = timeOp(budget, 1, func() {
		ping.Push(msg)
		pong.Pop()
	}) / 2
	ping.Close()
	echo.Wait()

	// netsim: zero-delay delivery is synchronous, so a hop is Send + Recv
	// in one goroutine (clone, inbox push, pop) and carries no hand-off.
	sim := netsim.New(netsim.Config{N: clusterSize, Seed: 1})
	all := make([]int, clusterSize)
	simTransports := make([]netsim.Transport, clusterSize)
	for i := range all {
		all[i] = i
		simTransports[i] = sim
	}
	out["netsim.hop_ns"] = timeOp(budget, 64, func() {
		sim.Send(0, 1, msg)
		sim.Recv(1)
	})
	out["netsim.sendmany_ns"] = timeOp(budget, 16, func() {
		sim.SendMany(0, all, msg)
		for k := range all {
			sim.Recv(k)
		}
	})
	out["node.call_rtt_ns.sim"] = callRTT(budget, simTransports)
	sim.Close()

	// tcpnet: a hop crosses the outbox, the writer goroutine, the kernel,
	// the reader goroutine and the inbox; SendMany is timed as the caller
	// sees it (marshal once, enqueue), with the deliveries awaited untimed.
	mesh, err := tcpnet.NewMesh(clusterSize)
	if err != nil {
		return nil, fmt.Errorf("ladder: tcp mesh: %w", err)
	}
	tcpTransports := make([]netsim.Transport, clusterSize)
	for i, t := range mesh.Transports {
		tcpTransports[i] = t
	}
	out["tcpnet.hop_ns"] = timeOp(budget, 1, func() {
		tcpTransports[0].Send(0, 1, msg)
		tcpTransports[1].Recv(1)
	})
	dr := startDrainers(tcpTransports)
	sent := 0
	var inCall time.Duration
	calls := 0
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		mesh.Transports[0].SendMany(0, all, msg)
		inCall += time.Since(t0)
		calls++
		sent += clusterSize
		dr.await(sent)
	}
	out["tcpnet.sendmany_ns"] = float64(inCall) / float64(calls)
	mesh.Close()
	dr.wg.Wait()

	mesh, err = tcpnet.NewMesh(clusterSize)
	if err != nil {
		return nil, fmt.Errorf("ladder: tcp mesh: %w", err)
	}
	for i, t := range mesh.Transports {
		tcpTransports[i] = t
	}
	out["node.call_rtt_ns.tcp"] = callRTT(budget, tcpTransports)
	mesh.Close()

	// A fixed integer loop: when this moves between two sets of runs, the
	// machine changed, not the program.
	out["env.spin_ns"] = timeOp(budget, 1, func() {
		x := uint64(88172645463325252)
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ladderSink += int(x & 1)
	})
	return out, nil
}

// ladderBudget lays out where a write's median goes: the echo round trip
// (runtime + transport, no algorithm) plus the algorithm's own vector work
// on the blocking path, and what is left over. It returns the printed
// table and the residue as a share of the write median.
func ladderBudget(l map[string]float64, suffix string, writeP50us float64) (string, float64) {
	rtt := l["node.call_rtt_ns."+suffix]
	// Blocking path of an Algorithm 1 write: the client shares its vector
	// once, each server merges and shares once (in parallel — one counts),
	// the client merges a majority of acks.
	share := 2 * l["types.share_ns"]
	merge := float64(1+clusterSize/2+1) * l["types.merge_ns"]
	sum := rtt + share + merge
	p50 := writeP50us * 1000
	residue := p50 - sum
	ratio := 0.0
	if p50 > 0 {
		ratio = residue / p50
	}
	transport := "netsim"
	if suffix == "tcp" {
		transport = "tcpnet"
	}
	s := fmt.Sprintf("  ladder budget (%s): write_p50 %.0f ns = Σ layers %.0f ns + residue %.0f ns (ratio %.3f)\n", suffix, p50, sum, residue, ratio)
	s += fmt.Sprintf("    node.call_rtt_ns.%-4s %9.0f  echo quorum round trip, of which:\n", suffix, rtt)
	s += fmt.Sprintf("      %s.sendmany_ns  %9.0f  request broadcast\n", transport, l[transport+".sendmany_ns"])
	s += fmt.Sprintf("      %s.hop_ns       %9.0f  ack hop\n", transport, l[transport+".hop_ns"])
	s += fmt.Sprintf("      mailbox.handoff_ns   %9.0f  x2: wake the server dispatcher, wake the client\n", l["mailbox.handoff_ns"])
	if suffix == "tcp" {
		s += fmt.Sprintf("      wire.marshal_ns      %9.0f  x2: request, ack (inside the tcpnet rungs)\n", l["wire.marshal_ns"])
		s += fmt.Sprintf("      wire.unmarshal_ns    %9.0f  x2\n", l["wire.unmarshal_ns"])
	}
	s += fmt.Sprintf("    types.share_ns x2      %9.0f\n", share)
	s += fmt.Sprintf("    types.merge_ns x%d      %9.0f\n", 1+clusterSize/2+1, merge)
	return s, ratio
}
