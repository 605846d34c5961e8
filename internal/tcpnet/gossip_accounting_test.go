package tcpnet

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestGossipByteAccountingReconcilesOverTCP mirrors the simulator-side
// audit on real sockets: each node's transport counters meter its own
// gossip sends (loopback via Size(), socket sends via frame length, fan-out
// via RecordSendMany), and the algorithm classifies the same messages at
// build time into the same counters — so per node, transport bytes and
// algorithm bytes must reconcile exactly. The fixed-width codec makes
// len(frame)-4 equal m.Size() regardless of From/To stamping, which is
// what lets the equality be exact rather than approximate.
func TestGossipByteAccountingReconcilesOverTCP(t *testing.T) {
	for name, alg := range map[string]core.Algorithm{"nonblocking": core.NonBlockingSS, "deltasnap": core.DeltaSS} {
		t.Run(name, func(t *testing.T) {
			mesh, nodes := startCluster(t, 3, alg)
			for i, nd := range nodes {
				if err := nd.Object(0).Write(types.Value(fmt.Sprintf("tcp-acct-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Let several gossip rounds (and at least one staleness window)
			// elapse so full, delta and suppressed sends all occur.
			time.Sleep(300 * time.Millisecond)
			// Quiesce the algorithms before reading: no tick may be mid-build.
			for _, nd := range nodes {
				nd.Close()
			}

			for i, tr := range mesh.Transports {
				c := tr.Counters()
				snap := c.Snapshot()
				if gotB, wantB := c.Bytes(wire.TGossip), snap.GossipFullBytes+snap.GossipDeltaBytes; gotB != wantB {
					t.Errorf("node %d: transport metered %d gossip bytes, algorithm recorded %d (full %d + delta %d)",
						i, gotB, wantB, snap.GossipFullBytes, snap.GossipDeltaBytes)
				}
				if gotN, wantN := c.Messages(wire.TGossip), snap.GossipFull+snap.GossipDelta; gotN != wantN {
					t.Errorf("node %d: transport metered %d gossip messages, algorithm recorded %d",
						i, gotN, wantN)
				}
			}
		})
	}
}
