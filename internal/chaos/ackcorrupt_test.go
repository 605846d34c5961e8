package chaos

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
)

// totalSuppressed is the cluster's count of suppressed gossip sends — the
// observable signature of delta mode being active.
func totalSuppressed(c *core.Cluster) int64 { return c.Counters().GossipSuppressed() }

// TestAckCorruptionConvergesBackToDelta is the nemesis acceptance test for
// the per-peer ack table: trash every node's table mid-run and prove that
// (a) safety is untouched — the table only gates *redundant* gossip, so
// writes, snapshots and the self-stabilization invariants keep holding —
// and (b) the cluster converges back to delta (suppressing) mode within
// O(1) staleness windows, because corrupted entries either expire within
// one window or are overwritten by the next genuine ack.
func TestAckCorruptionConvergesBackToDelta(t *testing.T) {
	for _, alg := range []core.Algorithm{core.NonBlockingSS, core.DeltaSS} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			v := simclock.NewVirtual()
			v.Run("ack-corrupt-convergence", func() {
				cluster, err := core.NewCluster(core.Config{
					N: 5, Algorithm: alg, Delta: 2, Seed: 7,
					LoopInterval: time.Millisecond,
					RetxInterval: 3 * time.Millisecond,
					Clock:        v,
				})
				if err != nil {
					t.Error(err)
					return
				}
				defer cluster.Close()

				// Settle into steady state: one write per node, then idle
				// long enough for acks to be learned and suppression to
				// take over.
				for i := 0; i < cluster.N(); i++ {
					if err := cluster.Write(i, types.Value(fmt.Sprintf("v%d", i))); err != nil {
						t.Error(err)
						return
					}
				}
				v.Sleep(30 * time.Millisecond)
				if totalSuppressed(cluster) == 0 {
					t.Error("cluster never reached suppression steady state")
					return
				}

				// Nemesis: corrupt every node's ack table at once.
				for i := 0; i < cluster.N(); i++ {
					if err := cluster.CorruptAckTable(i); err != nil {
						t.Error(err)
						return
					}
				}

				// Safety survives immediately: the table is advisory, so
				// operations and invariants are unaffected.
				for i := 0; i < cluster.N(); i++ {
					if err := cluster.Write(i, types.Value(fmt.Sprintf("w%d", i))); err != nil {
						t.Errorf("write after corruption: %v", err)
						return
					}
				}
				if _, err := cluster.Snapshot(0); err != nil {
					t.Errorf("snapshot after corruption: %v", err)
					return
				}
				if !cluster.InvariantsHold() {
					t.Error("invariants broken by ack-table corruption")
					return
				}

				// Convergence: within O(1) staleness windows (8 loop ticks
				// per window at LoopInterval=1ms; give a few windows of
				// slack) suppression must resume advancing — i.e. the
				// cluster is back in delta mode, not stuck on full-vector
				// fallback.
				v.Sleep(30 * time.Millisecond)
				mid := totalSuppressed(cluster)
				v.Sleep(30 * time.Millisecond)
				if after := totalSuppressed(cluster); after <= mid {
					t.Errorf("suppression stalled after corruption: %d → %d", mid, after)
				}
			})
		})
	}
}

// TestAckCorruptScheduleLinearizable runs a full chaos schedule with the
// ack-corruption nemesis mixed into crashes and asserts the checked
// history stays linearizable — the corpus-style end-to-end guarantee.
func TestAckCorruptScheduleLinearizable(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: 71,
		Duration:       300 * time.Millisecond,
		CrashRate:      10,
		AckCorruptRate: 50,
		Virtual:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if res.AckCorrupts == 0 {
		t.Fatal("schedule never corrupted an ack table; raise the rate or change the seed")
	}
	if res.Writes == 0 {
		t.Error("no progress under the ack-corruption nemesis")
	}
}
