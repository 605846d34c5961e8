package bench

import (
	"fmt"
	"strings"
	"sync"
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
func RunE1(p Params) []*Table {
	counts := &Table{
		ID:      "E1",
		Title:   "Figure 1 workload (write→snapshot→write, n=4): messages by type",
		Headers: []string{"algorithm", "WRITE", "WRITEack", "SNAPSHOT", "SNAPSHOTack", "GOSSIP/cycle"},
	}
	var figures []*Table

	for _, alg := range []core.Algorithm{core.NonBlockingDG, core.NonBlockingSS} {
		v := simclock.NewVirtual()
		v.Run("E1", func() {
			rec := trace.NewRecorderClocked(v)
			rec.SetFilter(wire.TWrite, wire.TWriteAck, wire.TSnapshot, wire.TSnapshotAck)
			cfg := fastCfg(alg, 4, 101)
			cfg.Clock = v
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
			if _, err := c.Snapshot(1); err != nil {
				panic(err)
			}
			rec.Mark(0, "p0 invokes write(v2)")
			mustDo(c.Write(0, types.Value("v2")))
			rec.Mark(0, "workload complete")
			v.Sleep(10 * time.Millisecond) // let straggler acks be metered
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
func RunE2(p Params) []*Table {
	t := &Table{
		ID:    "E2",
		Title: "Algorithm 1 (self-stabilizing) per-operation communication",
		Headers: []string{"n", "ν(B)", "write msgs/op", "write B/op", "snap msgs/op", "snap B/op",
			"gossip msgs/cycle", "n(n-1)", "gossip B/msg"},
	}
	ns := []int{4, 8, 16}
	if p.Quick {
		ns = []int{4, 8}
	}
	for _, n := range ns {
		for _, nu := range []int{16, 256} {
			v := simclock.NewVirtual()
			v.Run("E2", func() {
				cfg := fastCfg(core.NonBlockingSS, n, int64(200+n+nu))
				cfg.Clock = v
				c := mustCluster(cfg)
				defer c.Close()
				// Warm up: every node writes once (so all register entries and
				// gossip payloads carry ν bytes) and a snapshot settles reg.
				for i := 0; i < n; i++ {
					mustDo(c.Write(i, value(nu, byte('A'+i))))
				}
				if _, err := c.Snapshot(0); err != nil {
					panic(err)
				}
				// An operation returns at a majority; each settle lets the
				// stragglers' acks be metered with the operations they answer.
				const settle = 10 * time.Millisecond
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
					if _, err := c.Snapshot(0); err != nil {
						panic(err)
					}
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
// snapshot over ABD registers costs ≈8n messages and 4 round trips per
// snapshot, versus ≈2n and 1 for Delporte-Gallet's direct construction.
func RunE3(p Params) []*Table {
	t := &Table{
		ID:      "E3",
		Title:   "snapshot cost: stacked ABD+double-collect vs direct (contention-free)",
		Headers: []string{"n", "stacked msgs/op", "≈8n", "stacked RTs", "direct msgs/op", "≈2n", "direct RTs", "ratio"},
	}
	ns := []int{4, 8, 16, 32}
	if p.Quick {
		ns = []int{4, 8}
	}
	for _, n := range ns {
		stacked := snapshotCost(core.StackedABD, n, 301)
		direct := snapshotCost(core.NonBlockingDG, n, 302)
		t.AddRow(
			fmt.Sprint(n),
			f1(stacked.msgs), fmt.Sprint(8*n), f1(stacked.roundTrips),
			f1(direct.msgs), fmt.Sprint(2*n), f1(direct.roundTrips),
			f1(stacked.msgs/direct.msgs),
		)
	}
	t.AddNote("stacked ≈ 8n msgs / 4 RTs (2 collects × query+write-back), direct ≈ 2n msgs / 1 RT — the ×4 the paper's introduction reports")
	return []*Table{t}
}

type opCost struct {
	msgs       float64
	roundTrips float64
}

func snapshotCost(alg core.Algorithm, n int, seed int64) opCost {
	c := mustCluster(fastCfg(alg, n, seed))
	defer c.Close()
	mustDo(c.Write(0, value(32, 'x')))
	// Warm-up snapshot so reg is current everywhere that matters.
	if _, err := c.Snapshot(1); err != nil {
		panic(err)
	}
	const k = 8
	before := c.Metrics()
	for i := 0; i < k; i++ {
		if _, err := c.Snapshot(1); err != nil {
			panic(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let straggler acks be metered
	diff := c.Metrics().Sub(before)
	requests := diff.MessagesOf(wire.TSnapshot, wire.TCollect, wire.TWriteBack)
	return opCost{
		msgs:       float64(diff.Messages) / k,
		roundTrips: float64(requests) / float64(n) / k,
	}
}

// RunE4 reproduces Figure 2 and the Algorithm 2 claims: snapshots always
// terminate, each costing O(n²) messages because every node serves the
// task.
func RunE4(p Params) []*Table {
	t := &Table{
		ID:      "E4",
		Title:   "Algorithm 2 (DG always-terminating): snapshot message cost",
		Headers: []string{"n", "snap msgs/op", "snap msgs/op ÷ n²", "total msgs/op", "storm latency"},
	}
	ns := []int{4, 8, 16}
	if p.Quick {
		ns = []int{4, 8}
	}
	for _, n := range ns {
		cfg := fastCfg(core.AlwaysTerminatingDG, n, int64(400+n))
		cfg.Adversary = realisticDelay()
		c := mustCluster(cfg)
		mustDo(c.Write(0, value(16, 'x')))
		time.Sleep(10 * time.Millisecond)

		const k = 4
		before := c.Metrics()
		for i := 0; i < k; i++ {
			if _, err := c.Snapshot(1); err != nil {
				panic(err)
			}
		}
		time.Sleep(20 * time.Millisecond) // straggler acks
		diff := c.Metrics().Sub(before)
		perOp := float64(diff.Messages) / k
		snapOp := float64(diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck)) / k

		// Termination latency while every other node writes continuously.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = c.Write(i, value(8, byte(j)))
				}
			}(i)
		}
		start := time.Now()
		if _, err := c.Snapshot(0); err != nil {
			panic(err)
		}
		lat := time.Since(start)
		close(stop)
		wg.Wait()
		c.Close()

		t.AddRow(fmt.Sprint(n), f1(snapOp), fmt.Sprintf("%.2f", snapOp/float64(n*n)), f1(perOp), d2(lat))
	}
	t.AddNote("every node serves the task, so SNAPSHOT traffic grows as Θ(n²); the total additionally includes the reliable broadcasts of SNAP and END, themselves Θ(n²) with relays; snapshots terminate even under a sustained write storm (Fig. 2 behaviour)")
	return []*Table{t}
}

// RunE5 reproduces Figure 3: Algorithm 3 resolves a single snapshot with
// fewer messages than Algorithm 2 (upper drawing), and batches concurrent
// snapshots from all nodes through the many-jobs-stealing scheme (lower
// drawing).
func RunE5(p Params) []*Table {
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
		Title:   fmt.Sprintf("all %d nodes snapshot concurrently: total messages and wall time", n),
		Headers: []string{"algorithm", "total msgs", "msgs/op", "wall time"},
	}
	for _, alg := range []core.Algorithm{core.AlwaysTerminatingDG, core.DeltaSS} {
		cfg := fastCfg(alg, n, 503)
		cfg.Delta = 0
		cfg.Adversary = realisticDelay()
		c := mustCluster(cfg)
		mustDo(c.Write(0, value(16, 's')))
		time.Sleep(10 * time.Millisecond)

		before := c.Metrics()
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.Snapshot(i); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		diff := c.Metrics().Sub(before)
		c.Close()
		concurrent.AddRow(alg.String(), fmt.Sprint(diff.Messages), f1(float64(diff.Messages)/float64(n)), d2(wall))
	}
	concurrent.AddNote("Alg 2 serves tasks one at a time; Alg 3 (δ=0) batches all pending tasks into the same query rounds and one SAVE (Fig. 3 lower drawing: higher throughput, fewer msgs/op)")
	return []*Table{single, concurrent}
}

// deltaSnapshotCost measures a quiet solo snapshot on Algorithm 3.
func deltaSnapshotCost(n int, delta int64, seed int64) float64 {
	cfg := fastCfg(core.DeltaSS, n, seed)
	cfg.Delta = delta
	c := mustCluster(cfg)
	defer c.Close()
	mustDo(c.Write(0, value(16, 'x')))
	if _, err := c.Snapshot(1); err != nil {
		panic(err)
	}
	const k = 8
	before := c.Metrics()
	for i := 0; i < k; i++ {
		if _, err := c.Snapshot(1); err != nil {
			panic(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	diff := c.Metrics().Sub(before)
	ops := diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck, wire.TSave, wire.TSaveAck)
	return float64(ops) / k
}

func mustDo(err error) {
	if err != nil {
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
