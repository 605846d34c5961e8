package core

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestGossipByteAccountingReconciles is the delta-gossip audit for the
// simulated transport: every gossip message the algorithms build is
// classified (full fallback or delta) and metered at build time with
// m.Size(), and the transport meters the same messages on the send path —
// so after the cluster quiesces the two books must agree to the byte.
// A SendMany double-count, a missed per-peer build, or a classification
// recorded for a message that was never sent would all break the equality.
func TestGossipByteAccountingReconciles(t *testing.T) {
	for _, alg := range []Algorithm{NonBlockingSS, DeltaSS} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			v := simclock.NewVirtual()
			v.Run("gossip-accounting", func() {
				cluster, err := NewCluster(Config{
					N: 4, Algorithm: alg, Delta: 2, Seed: 11,
					LoopInterval: time.Millisecond,
					RetxInterval: 3 * time.Millisecond,
					Clock:        v,
				})
				if err != nil {
					t.Error(err)
					return
				}
				closed := false
				defer func() {
					if !closed {
						cluster.Close()
					}
				}()

				for i := 0; i < cluster.N(); i++ {
					if err := cluster.Write(i, types.Value(fmt.Sprintf("acct%d", i))); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := cluster.Snapshot(0); err != nil {
					t.Error(err)
					return
				}
				// Idle long enough to cross several staleness windows, so the
				// run contains all three regimes: full (cold tables), delta
				// (fresh acks, advancing state) and suppressed (steady state).
				v.Sleep(60 * time.Millisecond)

				// Quiesce before reading: a tick in flight could have built
				// (and classified) a message not yet metered by the transport.
				closed = true
				cluster.Close()

				c := cluster.Counters()
				snap := c.Snapshot()
				if gotB, wantB := c.Bytes(wire.TGossip), snap.GossipFullBytes+snap.GossipDeltaBytes; gotB != wantB {
					t.Errorf("transport metered %d gossip bytes, algorithms recorded %d (full %d + delta %d)",
						gotB, wantB, snap.GossipFullBytes, snap.GossipDeltaBytes)
				}
				if gotN, wantN := c.Messages(wire.TGossip), snap.GossipFull+snap.GossipDelta; gotN != wantN {
					t.Errorf("transport metered %d gossip messages, algorithms recorded %d (full %d + delta %d)",
						gotN, wantN, snap.GossipFull, snap.GossipDelta)
				}
				if snap.GossipSuppressed == 0 {
					t.Error("idle cluster never suppressed a gossip send; delta mode is not engaging")
				}
			})
		})
	}
}
