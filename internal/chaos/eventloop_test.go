package chaos

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
)

// The event-driven do-forever loop (DESIGN.md divergence #15), checked on
// the algorithms whose clients park work for the loop: a solo operation
// waits for no tick, and however hard the clients kick, the full
// iterations — the ones that gossip and count as cycles — keep the
// LoopInterval cadence. Virtual time makes every bound exact.

var loopServedAlgorithms = []core.Algorithm{core.DeltaSS, core.AlwaysTerminatingDG}

func eventLoopCluster(t *testing.T, v *simclock.Virtual, cfg core.Config) *core.Cluster {
	t.Helper()
	cfg.N, cfg.Delta, cfg.Seed, cfg.Clock = 5, 2, 21, v
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runtimeOf(c *core.Cluster, id int) *node.Runtime {
	return c.Object(id).(interface{ Runtime() *node.Runtime }).Runtime()
}

// TestVirtualSoloOperationWaitsForNoTick: on a zero-delay network a solo
// write and a solo snapshot, each invoked in the middle of a LoopInterval,
// finish in less than one LoopInterval of virtual time. (Polling for the
// tick and then for the result cost one to two.)
func TestVirtualSoloOperationWaitsForNoTick(t *testing.T) {
	const li = 10 * time.Millisecond
	for _, alg := range loopServedAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			v := simclock.NewVirtual()
			v.Run(t.Name(), func() {
				c := eventLoopCluster(t, v, core.Config{Algorithm: alg, LoopInterval: li, RetxInterval: 5 * li})
				defer c.Close()

				v.Sleep(3*li + li/2)
				start := v.Now()
				if err := c.Write(0, types.Value("solo")); err != nil {
					t.Error(err)
					return
				}
				if took := v.Since(start); took >= li {
					t.Errorf("solo write took %v, want < LoopInterval %v", took, li)
				}

				v.Sleep(3*li + li/2)
				start = v.Now()
				snap, err := c.Snapshot(1)
				if err != nil {
					t.Error(err)
					return
				}
				if took := v.Since(start); took >= li {
					t.Errorf("solo snapshot took %v, want < LoopInterval %v", took, li)
				}
				if string(snap[0].Val) != "solo" {
					t.Errorf("snapshot misses the completed write: %v", snap)
				}
			})
		})
	}
}

// loadedRun drives closed-loop clients at every node (4 writes per
// snapshot, back to back) for span of virtual time over 50 µs links, or
// idles for the same span, and reports per-node full iterations, on-demand
// iterations and the cluster's per-peer gossip decisions (full, delta or
// suppressed: n−1 per node per full iteration, whatever the registers hold,
// so decisions count iterations).
func loadedRun(t *testing.T, alg core.Algorithm, li, span time.Duration, load bool) (cycles, onDemand []int64, gossip int64) {
	t.Helper()
	v := simclock.NewVirtual()
	v.Run(t.Name(), func() {
		c := eventLoopCluster(t, v, core.Config{
			Algorithm: alg, LoopInterval: li, RetxInterval: 5 * li,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 50 * time.Microsecond},
		})
		defer c.Close()

		end := v.Now().Add(span)
		g := v.NewGroup()
		for i := 0; load && i < c.N(); i++ {
			i := i
			g.Add(1)
			v.Go(fmt.Sprintf("client%d", i), func() {
				defer g.Done()
				for op := 0; v.Now().Before(end); op++ {
					var err error
					if op%5 == 4 {
						_, err = c.Snapshot(i)
					} else {
						err = c.Write(i, types.Value(fmt.Sprintf("v%d-%d", i, op)))
					}
					if err != nil {
						t.Errorf("node %d op %d: %v", i, op, err)
						return
					}
				}
			})
		}
		v.Sleep(span)
		cycles = c.LoopCounts()
		gossip = c.Counters().Snapshot().GossipDecisions()
		for i := 0; i < c.N(); i++ {
			onDemand = append(onDemand, runtimeOf(c, i).OnDemandIterations())
		}
		g.Wait()
	})
	return cycles, onDemand, gossip
}

// TestVirtualKickedLoopKeepsItsCadence: under back-to-back operations at
// every node no node's full iteration is starved (LoopCount advances once
// per LoopInterval, give or take one), on-demand iterations are not
// counted as cycles, and — Algorithm 3 — the cluster gossips exactly as
// often as when idle.
func TestVirtualKickedLoopKeepsItsCadence(t *testing.T) {
	const li = time.Millisecond
	const span = 100 * li
	for _, alg := range loopServedAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			cycles, onDemand, gossip := loadedRun(t, alg, li, span, true)
			want := int64(span / li)
			for i := range cycles {
				if cycles[i] < want-1 || cycles[i] > want {
					t.Errorf("node %d: LoopCount = %d after %v at LoopInterval %v, want %d or %d", i, cycles[i], span, li, want-1, want)
				}
				if onDemand[i] < want {
					t.Errorf("node %d: only %d on-demand iterations under back-to-back load", i, onDemand[i])
				}
			}
			if alg != core.DeltaSS {
				return // Algorithm 2 has no gossip
			}
			_, idleOnDemand, idleGossip := loadedRun(t, alg, li, span, false)
			for i, n := range idleOnDemand {
				if n != 0 {
					t.Errorf("idle node %d ran %d on-demand iterations", i, n)
				}
			}
			perTick := int64(len(cycles) * (len(cycles) - 1)) // one tick at every node
			if d := gossip - idleGossip; d < -perTick || d > perTick {
				t.Errorf("gossip decisions in %v: %d under load, %d idle — differ by more than one tick (%d)", span, gossip, idleGossip, perTick)
			}
		})
	}
}
