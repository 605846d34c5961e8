package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Dispatch workload shape. Eight senders flood one receiver so the shard
// keyspace (sender ids) covers every worker at the widest grid point; each
// data message costs dispatchService of modeled handler time, slept on the
// virtual clock, so the measured scaling is a property of the dispatch
// topology alone — not of the host's core count. (This matters doubly
// because CI machines may have a single core: real parallel speedup would
// be unmeasurable there, but virtual-clock sleeps on concurrent shard
// workers overlap regardless of GOMAXPROCS.)
const (
	dispatchSenders      = 8
	dispatchService      = 50 * time.Microsecond
	dispatchInterArrival = 20 * time.Microsecond
)

// dispatchAlg is the synthetic measurement algorithm: every TWrite costs
// dispatchService of virtual handler time and is acknowledged to its
// sender, so the run mixes sharded data traffic with quorum-ack-lane
// traffic. Latency is metered from the sender's virtual send instant
// (stamped in SSN) to handler completion.
type dispatchAlg struct {
	rt      *node.Runtime
	clk     simclock.Clock
	hist    *obs.Histogram
	handled atomic.Int64
	lastNS  atomic.Int64 // virtual completion time of the latest handle
}

func (a *dispatchAlg) HandleMessage(m *wire.Message) {
	if m.Type != wire.TWrite {
		return // an ack reaching an unsharded node's dispatcher: no modeled work
	}
	a.clk.Sleep(dispatchService)
	now := a.clk.Now()
	a.hist.Observe(now.Sub(time.Unix(0, m.SSN)))
	ns := now.UnixNano()
	for {
		cur := a.lastNS.Load()
		if ns <= cur || a.lastNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	a.handled.Add(1)
	a.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteAck, SSN: m.SSN})
}

func (a *dispatchAlg) Tick() {}

// Route shards data by sender — the same per-register discipline the real
// algorithms use (register k is written only by node k) — and steers acks
// onto the collector lane.
func (a *dispatchAlg) Route(m *wire.Message) (node.Lane, int) {
	if m.Type == wire.TWriteAck {
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

// dispatchPoint is one measured grid cell.
type dispatchPoint struct {
	makespan time.Duration
	msgPerS  float64
	p999     time.Duration
}

// runDispatch measures one (shards, msgs-per-sender) cell: senders flood
// node 0 concurrently (as lock-step scheduler tasks), the receiver's shard
// pool drains the backlog, and the cell reports saturated throughput and
// the p99.9 sojourn time. Virtual time makes every number an exact
// deterministic function of the configuration.
func runDispatch(senders, msgs, shards int) dispatchPoint {
	var out dispatchPoint
	v := simclock.NewVirtual()
	v.Run("dispatch", func() {
		n := senders + 1
		net := netsim.New(netsim.Config{
			N: n, Seed: 4200, Clock: v,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
		})
		defer net.Close()

		algs := make([]*dispatchAlg, n)
		rts := make([]*node.Runtime, n)
		for i := 0; i < n; i++ {
			algs[i] = &dispatchAlg{clk: v, hist: &obs.Histogram{}}
			rts[i] = node.NewRuntime(i, net, algs[i], node.Options{
				LoopInterval:   time.Millisecond,
				RetxInterval:   3 * time.Millisecond,
				Clock:          v,
				DispatchShards: shards,
			})
			algs[i].rt = rts[i]
			rts[i].Start()
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		recv := algs[0]
		t0 := v.Now()
		g := v.NewGroup()
		g.Add(senders)
		for s := 1; s <= senders; s++ {
			s := s
			v.Go(fmt.Sprintf("sender%d", s), func() {
				defer g.Done()
				for i := 0; i < msgs; i++ {
					rts[s].Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
					v.Sleep(dispatchInterArrival)
				}
			})
		}
		g.Wait()

		total := int64(senders * msgs)
		for recv.handled.Load() < total && v.Since(t0) < 30*time.Second {
			v.Sleep(100 * time.Microsecond)
		}
		done := recv.handled.Load()
		out.makespan = time.Duration(recv.lastNS.Load() - t0.UnixNano())
		if out.makespan > 0 {
			out.msgPerS = float64(done) / out.makespan.Seconds()
		}
		out.p999 = recv.hist.Snapshot().QuantilePermille(999)
	})
	return out
}

// RunDispatch measures the sharded-dispatch tentpole: with the per-message
// handler cost serialized on one dispatcher (shards=1, the classic
// topology), saturated throughput is 1/dispatchService; a pool of k shard
// workers overlaps k handlers, so throughput scales ≈k× until the shard
// keyspace (8 senders) is exhausted, and the p99.9 sojourn time collapses
// with the backlog.
func RunDispatch() []*Table {
	t := &Table{
		ID:      "dispatch",
		Title:   "sharded dispatch: mixed-workload throughput and tail latency vs shard count",
		Headers: []string{"shards", "senders", "msgs/sender", "makespan", "msg/s", "p99.9", "speedup"},
	}
	const msgs = 300
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		r := runDispatch(dispatchSenders, msgs, shards)
		if base == 0 {
			base = r.msgPerS
		}
		t.AddRow(fmt.Sprint(shards), fmt.Sprint(dispatchSenders), fmt.Sprint(msgs),
			d2(r.makespan), f1(r.msgPerS), d2(r.p999), f1(r.msgPerS/base)+"x")
	}
	t.AddNote("virtual clock: handler cost is %v of modeled (slept) time per message, so scaling is machine-independent and deterministic per build", dispatchService)
	t.AddNote("acks ride the dedicated collector lane under sharding (batched, no handler cost); data shards by sender = per-register FIFO")
	return []*Table{t}
}
