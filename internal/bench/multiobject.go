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

// Multi-object workload shape. The dispatch experiment's eight senders and
// 50µs modeled handler cost carry over unchanged (see dispatch.go for why
// virtual-clock sleeps make the scaling machine-independent); here every
// node hosts many objects over its one shared transport, so the measured
// quantity is the tentpole claim of multi-object hosting — aggregate
// throughput across objects scales with the shard pool, and a saturated
// hot object cannot ruin a cold object's tail latency.
const (
	moSenders = 8
	moService = 50 * time.Microsecond

	// Isolation cell: cold traffic arrives at a modest per-sender pace
	// while (in the hot scenario) every sender simultaneously floods
	// object 0 far beyond service capacity.
	moColdInterArrival = 400 * time.Microsecond
	moHotInterArrival  = 10 * time.Microsecond
)

// moAlg is the per-object synthetic measurement algorithm: one instance is
// attached per (node, object) via node.Bind, so the receiver's object
// table, the per-object fair lanes and the (object, sender) shard hashing
// are all exercised exactly as a real multi-object deployment would.
// Counters are shared across one node's instances (the experiment reports
// per-node aggregates); the latency histogram is per instance group, which
// is how the isolation cell separates cold-object sojourn times from the
// hot object's.
type moAlg struct {
	rt      *node.ObjView
	clk     simclock.Clock
	hist    *obs.Histogram
	handled *atomic.Int64 // node aggregate across objects
	cold    *atomic.Int64 // non-nil on cold objects: isolation completion counter
	lastNS  *atomic.Int64 // virtual completion time of the node's latest handle
}

func (a *moAlg) HandleMessage(m *wire.Message) {
	if m.Type != wire.TWrite {
		return
	}
	a.clk.Sleep(moService)
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
	if a.cold != nil {
		a.cold.Add(1)
	}
	a.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteAck, SSN: m.SSN})
}

func (a *moAlg) Tick() {}

// Route mirrors the real algorithms' discipline: data shards by sender
// (register k is written only by node k), acks ride the collector lane.
// The runtime mixes the object id in on top, decorrelating objects.
func (a *moAlg) Route(m *wire.Message) (node.Lane, int) {
	if m.Type == wire.TWriteAck {
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

// moNode builds one node hosting `objects` instances over a single shared
// runtime: object 0 through node.Bind's fresh-runtime path, the rest
// attached to it. hist selects each object's latency sink.
func moNode(v *simclock.Virtual, net netsim.Transport, id, objects, shards int,
	hist func(obj int) *obs.Histogram, cold *atomic.Int64) ([]*moAlg, *node.Runtime) {
	shared := &struct {
		handled atomic.Int64
		lastNS  atomic.Int64
	}{}
	algs := make([]*moAlg, objects)
	var host *node.Runtime
	for o := 0; o < objects; o++ {
		a := &moAlg{
			clk:     v,
			hist:    hist(o),
			handled: &shared.handled,
			lastNS:  &shared.lastNS,
		}
		if o > 0 && cold != nil {
			a.cold = cold
		}
		opt := node.Options{
			LoopInterval:   time.Millisecond,
			RetxInterval:   3 * time.Millisecond,
			Clock:          v,
			DispatchShards: shards,
		}
		if o > 0 {
			opt.Attach = host
		}
		view := node.Bind(id, net, a, opt)
		a.rt = view
		if o == 0 {
			host = view.Runtime
		}
		algs[o] = a
	}
	host.Start()
	return algs, host
}

// moPoint is one measured scaling cell.
type moPoint struct {
	makespan time.Duration
	msgPerS  float64
	p999     time.Duration
}

// runMultiObject measures one (shards, objects, msgs-per-sender) scaling
// cell: every sender sprays its messages round-robin over all of node 0's
// objects, so the aggregate stream exercises objects×senders distinct
// (object, sender) shard keys. Deterministic per configuration, exactly
// like runDispatch.
func runMultiObject(senders, objects, msgs, shards int) moPoint {
	var out moPoint
	v := simclock.NewVirtual()
	v.Run("multiobject", func() {
		n := senders + 1
		net := netsim.New(netsim.Config{
			N: n, Seed: 4200, Clock: v,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
		})
		defer net.Close()

		agg := &obs.Histogram{}
		recvAlgs, recvRT := moNode(v, net, 0, objects, shards, func(int) *obs.Histogram { return agg }, nil)
		senderViews := make([][]*moAlg, n)
		rts := []*node.Runtime{recvRT}
		for s := 1; s <= senders; s++ {
			algs, rt := moNode(v, net, s, objects, shards, func(int) *obs.Histogram { return &obs.Histogram{} }, nil)
			senderViews[s] = algs
			rts = append(rts, rt)
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		t0 := v.Now()
		g := v.NewGroup()
		g.Add(senders)
		for s := 1; s <= senders; s++ {
			s := s
			v.Go(fmt.Sprintf("mo-sender%d", s), func() {
				defer g.Done()
				for i := 0; i < msgs; i++ {
					// Round-robin with a per-sender offset: objects see an
					// even aggregate mix without synchronized bursts.
					obj := (i + s) % objects
					senderViews[s][obj].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
					v.Sleep(dispatchInterArrival)
				}
			})
		}
		g.Wait()

		total := int64(senders * msgs)
		for recvAlgs[0].handled.Load() < total && v.Since(t0) < 30*time.Second {
			v.Sleep(100 * time.Microsecond)
		}
		done := recvAlgs[0].handled.Load()
		out.makespan = time.Duration(recvAlgs[0].lastNS.Load() - t0.UnixNano())
		if out.makespan > 0 {
			out.msgPerS = float64(done) / out.makespan.Seconds()
		}
		out.p999 = agg.Snapshot().QuantilePermille(999)
	})
	return out
}

// runMultiObjectIsolation measures cold-object tail latency with and
// without a saturated hot object sharing the node: every sender trickles
// coldMsgs messages to one cold object, and in the hot scenario
// additionally floods object 0 at ~40× service capacity. The per-object
// fair lanes bound how far the hot backlog can push a cold message back —
// one hot message per round-robin turn — so cold p99 must stay within a
// small factor of the quiet baseline.
func runMultiObjectIsolation(objects, coldMsgs, hotMsgs, shards int) (p99 time.Duration, coldDone int64) {
	v := simclock.NewVirtual()
	v.Run("multiobject-iso", func() {
		n := moSenders + 1
		net := netsim.New(netsim.Config{
			N: n, Seed: 4201, Clock: v,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
		})
		defer net.Close()

		coldHist, hotHist := &obs.Histogram{}, &obs.Histogram{}
		var cold atomic.Int64
		pick := func(o int) *obs.Histogram {
			if o == 0 {
				return hotHist
			}
			return coldHist
		}
		_, recvRT := moNode(v, net, 0, objects, shards, pick, &cold)
		senderViews := make([][]*moAlg, n)
		rts := []*node.Runtime{recvRT}
		for s := 1; s <= moSenders; s++ {
			algs, rt := moNode(v, net, s, objects, shards, func(int) *obs.Histogram { return &obs.Histogram{} }, nil)
			senderViews[s] = algs
			rts = append(rts, rt)
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		t0 := v.Now()
		g := v.NewGroup()
		for s := 1; s <= moSenders; s++ {
			s := s
			coldObj := 1 + (s-1)%(objects-1)
			g.Add(1)
			v.Go(fmt.Sprintf("mo-cold%d", s), func() {
				defer g.Done()
				for i := 0; i < coldMsgs; i++ {
					senderViews[s][coldObj].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
					v.Sleep(moColdInterArrival)
				}
			})
			if hotMsgs > 0 {
				g.Add(1)
				v.Go(fmt.Sprintf("mo-hot%d", s), func() {
					defer g.Done()
					for i := 0; i < hotMsgs; i++ {
						senderViews[s][0].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
						v.Sleep(moHotInterArrival)
					}
				})
			}
		}
		g.Wait()

		want := int64(moSenders * coldMsgs)
		for cold.Load() < want && v.Since(t0) < 30*time.Second {
			v.Sleep(100 * time.Microsecond)
		}
		p99 = coldHist.Snapshot().QuantilePermille(990)
		coldDone = cold.Load()
	})
	return p99, coldDone
}

// RunMultiObject measures the multi-object hosting tentpole: one table
// sweeps shard counts at a fixed 64-object mix (aggregate throughput must
// scale with the pool, as for single-object dispatch), and one contrasts
// cold-object p99 with and without a saturated hot neighbour (the
// per-object fair lanes must keep the degradation small).
func RunMultiObject() []*Table {
	scaling := &Table{
		ID:      "multiobject-scaling",
		Title:   "multi-object hosting: aggregate throughput vs shard count at a 64-object mix",
		Headers: []string{"shards", "objects", "senders", "msgs/sender", "makespan", "msg/s", "p99.9", "speedup"},
	}
	const objects, msgs = 64, 300
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		r := runMultiObject(moSenders, objects, msgs, shards)
		if base == 0 {
			base = r.msgPerS
		}
		scaling.AddRow(fmt.Sprint(shards), fmt.Sprint(objects), fmt.Sprint(moSenders), fmt.Sprint(msgs),
			d2(r.makespan), f1(r.msgPerS), d2(r.p999), f1(r.msgPerS/base)+"x")
	}
	scaling.AddNote("virtual clock: %v of modeled handler time per message; all objects multiplex one transport and one shard pool per node", moService)
	scaling.AddNote("shard key mixes (object, sender), so 64 objects × 8 senders cover any pool width; object 0 with shards=1 is the exact classic single-dispatcher path")

	iso := &Table{
		ID:      "multiobject-isolation",
		Title:   "hot-object isolation: cold-object p99 with and without a saturated neighbour",
		Headers: []string{"scenario", "objects", "shards", "cold ops", "cold p99", "degradation"},
	}
	const isoObjects, coldMsgs, hotMsgs = 16, 100, 800
	quietP99, quietOps := runMultiObjectIsolation(isoObjects, coldMsgs, 0, 4)
	hotP99, hotOps := runMultiObjectIsolation(isoObjects, coldMsgs, hotMsgs, 4)
	degr := float64(hotP99) / float64(quietP99)
	iso.AddRow("quiet", fmt.Sprint(isoObjects), "4", fmt.Sprint(quietOps), d2(quietP99), "1.0x")
	iso.AddRow("hot object 0 saturated", fmt.Sprint(isoObjects), "4", fmt.Sprint(hotOps), d2(hotP99), f1(degr)+"x")
	iso.AddNote("hot scenario: every sender floods object 0 at ~%d%% of one worker's service capacity on top of the cold trickle", int(100*float64(moService)/float64(moHotInterArrival)*float64(moSenders)))
	iso.AddNote("per-object fair lanes bound the interference: a cold message waits at most one hot message per backlogged object per round-robin turn, never the hot queue depth")
	return []*Table{scaling, iso}
}
