package bench

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/trace"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// RunE1 reproduces Figure 1: the message flows of a write→snapshot→write
// workload under Delporte-Gallet's Algorithm 1 (upper drawing) and the
// self-stabilizing variant (lower drawing). The paper's point: the
// operations exchange identical messages; the self-stabilizing version
// only adds gossip that "does not interfere with other messages". Each leg
// runs on a virtual clock, so every count is exact.
func RunE1() []*Table {
	counts := &Table{
		ID:      "E1",
		Title:   "Figure 1 workload (write→snapshot→write, n=4): messages by type",
		Headers: []string{"algorithm", "WRITE", "WRITEack", "SNAPSHOT", "SNAPSHOTack", "GOSSIP/cycle"},
	}
	var figures []*Table

	for _, alg := range []core.Algorithm{core.NonBlockingDG, core.NonBlockingSS} {
		simulate("E1", func(v *simclock.Virtual) {
			rec := trace.NewRecorderClocked(v)
			rec.SetFilter(wire.TWrite, wire.TWriteAck, wire.TSnapshot, wire.TSnapshotAck)
			cfg := fastCfg(v, alg, 4, 101)
			cfg.Trace = rec
			// A fixed link delay gives the space-time diagram a time axis.
			cfg.Adversary = netsim.Adversary{MinDelay: 100 * time.Microsecond, MaxDelay: 100 * time.Microsecond}
			c := mustCluster(cfg)
			defer c.Close()

			// Every link has the same delay, so p0's WRITE reaches p1 before
			// the write returns and p1's snapshot takes one collect in both
			// legs.
			rec.Mark(0, "p0 invokes write(v1)")
			mustDo(c.Write(0, types.Value("v1")))
			rec.Mark(1, "p1 invokes snapshot()")
			mustSnapshot(c, 1)
			rec.Mark(0, "p0 invokes write(v2)")
			mustDo(c.Write(0, types.Value("v2")))
			rec.Mark(0, "workload complete")
			v.Sleep(settle)
			m := c.Metrics()

			counts.AddRow(alg.String(),
				fmt.Sprint(m.PerType[wire.TWrite].Messages),
				fmt.Sprint(m.PerType[wire.TWriteAck].Messages),
				fmt.Sprint(m.PerType[wire.TSnapshot].Messages),
				fmt.Sprint(m.PerType[wire.TSnapshotAck].Messages),
				f1(gossipPerCycle(v, c, 40*time.Millisecond)),
			)

			fig := &Table{
				ID:      "E1-fig",
				Title:   fmt.Sprintf("space-time diagram (%s), operations only", alg),
				Headers: []string{"trace"},
			}
			for _, line := range splitLines(rec.Render(4)) {
				fig.AddRow(line)
			}
			figures = append(figures, fig)
		})
	}
	counts.AddNote("operation message flows are identical across the two variants; the self-stabilizing version adds only O(n²) GOSSIP per asynchronous cycle (paper Fig. 1)")
	return append([]*Table{counts}, figures...)
}

// gossipPerCycle idles c for window of virtual time and returns its gossip
// decisions per cluster cycle, a cycle being one full iteration at every
// node.
func gossipPerCycle(v *simclock.Virtual, c *core.Cluster, window time.Duration) float64 {
	loops0, before := sumLoops(c), c.Metrics()
	v.Sleep(window)
	cycles := float64(sumLoops(c)-loops0) / float64(c.N())
	return float64(c.Metrics().Sub(before).GossipDecisions()) / cycles
}

// RunE2 measures Algorithm 1's communication complexity: O(n) messages of
// O(n·ν) bits per write/snapshot, plus n(n-1) gossip messages of O(ν) bits
// per cycle. It runs on a virtual clock, so every count is exact.
func RunE2() []*Table {
	t := &Table{
		ID:    "E2",
		Title: "Algorithm 1 (self-stabilizing) per-operation communication",
		Keys:  2,
		Headers: []string{"n", "ν(B)", "write msgs/op", "write B/op", "snap msgs/op", "snap B/op",
			"gossip msgs/cycle", "n(n-1)", "gossip B/msg"},
	}
	for _, n := range []int{4, 8, 16} {
		for _, nu := range []int{16, 256} {
			simulate("E2", func(v *simclock.Virtual) {
				c := mustCluster(fastCfg(v, core.NonBlockingSS, n, int64(200+n+nu)))
				defer c.Close()
				// Warm up: every node writes once (so all register entries and
				// gossip payloads carry ν bytes) and a snapshot settles reg.
				for i := 0; i < n; i++ {
					mustDo(c.Write(i, value(nu, byte('A'+i))))
				}
				mustSnapshot(c, 0)
				v.Sleep(settle)

				const k = 10
				before := c.Metrics()
				for i := 0; i < k; i++ {
					mustDo(c.Write(0, value(nu, byte('a'+i))))
				}
				v.Sleep(settle)
				wdiff := c.Metrics().Sub(before)

				before = c.Metrics()
				for i := 0; i < k; i++ {
					mustSnapshot(c, 0)
				}
				v.Sleep(settle)
				sdiff := c.Metrics().Sub(before)

				// Gossip over a measured window: decisions per cycle, and
				// the size of the full send each one stands for.
				before = c.Metrics()
				perCycle := gossipPerCycle(v, c, 60*time.Millisecond)
				gdiff := c.Metrics().Sub(before)

				t.AddRow(
					fmt.Sprint(n), fmt.Sprint(nu),
					f1(float64(wdiff.MessagesOf(wire.TWrite, wire.TWriteAck))/k),
					f1(float64(wdiff.BytesOf(wire.TWrite, wire.TWriteAck))/k),
					f1(float64(sdiff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck))/k),
					f1(float64(sdiff.BytesOf(wire.TSnapshot, wire.TSnapshotAck))/k),
					f1(perCycle), fmt.Sprint(n*(n-1)), fmt.Sprint(gdiff.GossipFullBytes/gdiff.GossipFull),
				)
			})
		}
	}
	t.AddNote("write/snapshot = 2n messages of Θ(n·ν) bytes each direction (O(n) msgs, O(nν) bits); gossip = n(n-1) msgs per cycle of Θ(ν) bytes (the paper's O(n²) gossip of O(ν) bits)")
	t.AddNote("gossip columns: delta gossip's per-peer decisions (full + delta + suppressed) per cycle, and its full-send size")
	return []*Table{t}
}

// RunE3 reproduces the introduction's comparison: stacking Afek et al.'s
// snapshot over ABD registers costs 8n messages and 4 round trips per
// snapshot, versus 2n and 1 for Delporte-Gallet's direct construction.
func RunE3() []*Table {
	t := &Table{
		ID:      "E3",
		Title:   "snapshot cost: stacked ABD+double-collect vs direct (contention-free)",
		Headers: []string{"n", "stacked msgs/op", "8n", "stacked RTs", "direct msgs/op", "2n", "direct RTs", "ratio"},
	}
	for _, n := range []int{4, 8, 16, 32} {
		stacked := snapshotCost(core.StackedABD, n, 301)
		direct := snapshotCost(core.NonBlockingDG, n, 302)
		t.AddRow(
			fmt.Sprint(n),
			f1(stacked.msgs), fmt.Sprint(8*n), f1(stacked.roundTrips),
			f1(direct.msgs), fmt.Sprint(2*n), f1(direct.roundTrips),
			f1(stacked.msgs/direct.msgs),
		)
	}
	t.AddNote("stacked = 8n msgs / 4 RTs (2 collects × query+write-back), direct = 2n msgs / 1 RT — the ×4 the paper's introduction reports")
	return []*Table{t}
}

type opCost struct {
	msgs       float64
	roundTrips float64
}

// settle is the virtual time an experiment waits after its operations
// return at a majority, so that the stragglers' acks are metered with the
// operations they answer.
const settle = 20 * time.Millisecond

func snapshotCost(alg core.Algorithm, n int, seed int64) (cost opCost) {
	simulate("snapshot-cost", func(v *simclock.Virtual) {
		c := mustCluster(fastCfg(v, alg, n, seed))
		defer c.Close()
		mustDo(c.Write(0, value(32, 'x')))
		// Warm-up snapshot so reg is current everywhere that matters.
		mustSnapshot(c, 1)
		v.Sleep(settle)
		const k = 8
		before := c.Metrics()
		for i := 0; i < k; i++ {
			mustSnapshot(c, 1)
		}
		v.Sleep(settle)
		diff := c.Metrics().Sub(before)
		requests := diff.MessagesOf(wire.TSnapshot, wire.TCollect, wire.TWriteBack)
		cost = opCost{
			msgs:       float64(diff.Messages) / k,
			roundTrips: float64(requests) / float64(n) / k,
		}
	})
	return cost
}

// RunE4 reproduces Figure 2 and the Algorithm 2 claims: snapshots always
// terminate, each costing Θ(n²) messages because every node serves the
// task. The last row fits the exponent of SNAPSHOT msgs/op over n.
func RunE4() []*Table {
	t := &Table{
		ID:      "E4",
		Title:   "Algorithm 2 (DG always-terminating): snapshot message cost",
		Headers: []string{"n", "snap msgs/op", "snap msgs/op ÷ n²", "total msgs/op", "storm latency"},
	}
	var ns, snaps []float64
	for _, n := range []int{4, 8, 16} {
		simulate("E4", func(v *simclock.Virtual) {
			cfg := fastCfg(v, core.AlwaysTerminatingDG, n, int64(400+n))
			cfg.Adversary = realisticDelay()
			c := mustCluster(cfg)
			defer c.Close()
			mustDo(c.Write(0, value(16, 'x')))
			v.Sleep(settle)

			const k = 4
			before := c.Metrics()
			for i := 0; i < k; i++ {
				mustSnapshot(c, 1)
			}
			v.Sleep(settle)
			diff := c.Metrics().Sub(before)
			perOp := float64(diff.Messages) / k
			snapOp := float64(diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck)) / k

			// Termination latency while every other node writes continuously.
			stop := storm(v, c, 1, n, 0, nil)
			start := v.Now()
			mustSnapshot(c, 0)
			lat := v.Since(start)
			stop()

			ns, snaps = append(ns, float64(n)), append(snaps, snapOp)
			t.AddRow(fmt.Sprint(n), f1(snapOp), fmt.Sprintf("%.2f", snapOp/float64(n*n)), f1(perOp), d2(lat))
		})
	}
	t.AddRow("fitted exponent", fmt.Sprintf("%.2f", fitExponent(ns, snaps)), "", "", "")
	t.AddNote("every node serves the task, so SNAPSHOT traffic grows as Θ(n²): the fitted exponent is the least-squares slope of log(snap msgs/op) over log n; the total additionally includes the reliable broadcasts of SNAP and END, themselves Θ(n²) with relays; snapshots terminate even under a sustained write storm (Fig. 2 behaviour); latency is virtual time")
	return []*Table{t}
}

// fitExponent is the least-squares slope of log y over log x.
func fitExponent(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	k := float64(len(x))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// storm starts one writer task per node in [from, to) that writes, pausing
// for pause after each write, until the returned stop function is called;
// stop waits for every writer to finish its last write. When ok is non-nil
// it counts the writes that completed.
func storm(v *simclock.Virtual, c *core.Cluster, from, to int, pause time.Duration, ok *atomic.Int64) (stop func()) {
	var done atomic.Bool
	g := v.NewGroup()
	for i := from; i < to; i++ {
		g.Add(1)
		v.Go(fmt.Sprintf("writer%d", i), func() {
			defer g.Done()
			for j := 0; !done.Load(); j++ {
				if c.Write(i, value(8, byte(j))) == nil && ok != nil {
					ok.Add(1)
				}
				if pause > 0 {
					v.Sleep(pause)
				}
			}
		})
	}
	return func() {
		done.Store(true)
		g.Wait()
	}
}

// RunE5 reproduces Figure 3: Algorithm 3 resolves a single snapshot with
// fewer messages than Algorithm 2 (upper drawing), and batches concurrent
// snapshots from all nodes through the many-jobs-stealing scheme (lower
// drawing).
func RunE5() []*Table {
	single := &Table{
		ID:      "E5a",
		Title:   "single snapshot (quiet, n=6): Algorithm 2 vs Algorithm 3",
		Headers: []string{"algorithm", "msgs/op"},
	}
	n := 6
	a2 := snapshotCost(core.AlwaysTerminatingDG, n, 501)
	single.AddRow("DG-alwaysterm (Alg 2)", f1(a2.msgs))
	a3 := deltaSnapshotCost(n, 1<<30, 502)
	single.AddRow("SS-delta, δ large (Alg 3)", f1(a3))
	single.AddNote("Alg 3's solo path costs Θ(n) messages vs Alg 2's Θ(n²) (Fig. 3 upper drawing)")

	concurrent := &Table{
		ID:      "E5b",
		Title:   fmt.Sprintf("all %d nodes snapshot concurrently: total messages and completion time", n),
		Headers: []string{"algorithm", "total msgs", "msgs/op", "completion", "loop intervals"},
	}
	for _, alg := range []core.Algorithm{core.AlwaysTerminatingDG, core.DeltaSS} {
		simulate("E5b", func(v *simclock.Virtual) {
			cfg := fastCfg(v, alg, n, 503)
			cfg.Delta = 0
			cfg.Adversary = realisticDelay()
			c := mustCluster(cfg)
			defer c.Close()
			mustDo(c.Write(0, value(16, 's')))
			v.Sleep(settle)

			before := c.Metrics()
			start := v.Now()
			g := v.NewGroup()
			g.Add(n)
			for i := 0; i < n; i++ {
				v.Go(fmt.Sprintf("snapshot%d", i), func() {
					defer g.Done()
					mustSnapshot(c, i)
				})
			}
			g.Wait()
			took := v.Since(start)
			diff := c.Metrics().Sub(before)
			concurrent.AddRow(alg.String(), fmt.Sprint(diff.Messages), f1(float64(diff.Messages)/float64(n)),
				d2(took), f1(float64(took)/float64(cfg.LoopInterval)))
		})
	}
	concurrent.AddNote("Alg 2 serves tasks one at a time; Alg 3 (δ=0) batches all pending tasks into the same query rounds and one SAVE (Fig. 3 lower drawing: higher throughput, fewer msgs/op)")
	concurrent.AddNote("completion is virtual time from the six invocations to the last return, also given in do-forever loop intervals (1 ms)")
	return []*Table{single, concurrent}
}

// deltaSnapshotCost measures a quiet solo snapshot on Algorithm 3.
func deltaSnapshotCost(n int, delta int64, seed int64) (perOp float64) {
	simulate("delta-snapshot-cost", func(v *simclock.Virtual) {
		cfg := fastCfg(v, core.DeltaSS, n, seed)
		cfg.Delta = delta
		c := mustCluster(cfg)
		defer c.Close()
		mustDo(c.Write(0, value(16, 'x')))
		mustSnapshot(c, 1)
		v.Sleep(settle)
		const k = 8
		before := c.Metrics()
		for i := 0; i < k; i++ {
			mustSnapshot(c, 1)
		}
		v.Sleep(settle)
		diff := c.Metrics().Sub(before)
		ops := diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck, wire.TSave, wire.TSaveAck)
		perOp = float64(ops) / k
	})
	return perOp
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}

func mustSnapshot(c *core.Cluster, id int) {
	if _, err := c.Snapshot(id); err != nil {
		panic(err)
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
