package core

import (
	"errors"
	"testing"
	"time"

	"selfstabsnap/internal/types"
)

// TestSkewedRestartRecoversRegister: unlike a plain detectable restart
// (which waits on gossip to re-converge), SkewedRestart's recovery merge is
// synchronous — as soon as the call returns, every entry any peer could
// still surface is back in the restarted node's register.
func TestSkewedRestartRecoversRegister(t *testing.T) {
	for _, alg := range []Algorithm{NonBlockingSS, DeltaSS} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			c, err := NewCluster(Config{N: 4, Algorithm: alg, Delta: 1, Seed: 33})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if err := c.Write(1, types.Value("propagated")); err != nil {
				t.Fatal(err)
			}
			// Wait until a peer can surface the write: only propagated
			// entries are promised to survive the restart.
			deadline := time.Now().Add(5 * time.Second)
			for {
				snap, err := c.Snapshot(0)
				if err != nil {
					t.Fatal(err)
				}
				if string(snap[1].Val) == "propagated" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("write never reached a peer: %v", snap)
				}
				time.Sleep(time.Millisecond)
			}

			if err := c.SkewedRestart(1); err != nil {
				t.Fatal(err)
			}
			// No convergence loop: the recovery merge already ran.
			reg := c.stabilizing(1, 0).StateSummary().Reg
			if string(reg[1].Val) != "propagated" || reg[1].TS != 1 {
				t.Fatalf("recovery merge missed the node's own entry: %v", reg)
			}

			// The next write supersedes, it does not collide.
			if err := c.Write(1, types.Value("after")); err != nil {
				t.Fatal(err)
			}
			snap, err := c.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if string(snap[1].Val) != "after" || snap[1].TS < 2 {
				t.Fatalf("post-restart write did not supersede: %v", snap[1])
			}
		})
	}
}

// TestSkewedRestartAdoptsPeerSNS: Definition 1(iii) requires sns_i to
// dominate every pndTsk_j[i].sns. After the restart reset the recovery must
// raise the node's snapshot sequence number above whatever pending-task
// entries peers still hold for it — otherwise the node's next snapshot
// collides with a stale cached result and can return a regressed vector.
func TestSkewedRestartAdoptsPeerSNS(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(Config{N: 4, Algorithm: DeltaSS, Delta: 1, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(1, types.Value("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(1); err != nil {
		t.Fatal(err)
	}
	// Wait until some peer's pending-task table remembers node 1's task.
	peerMax := func() int64 {
		var m int64
		for j := 0; j < 4; j++ {
			if j == 1 {
				continue
			}
			if pnd := c.stabilizing(j, 0).StateSummary().PndSNS; len(pnd) > 1 && pnd[1] > m {
				m = pnd[1]
			}
		}
		return m
	}
	deadline := time.Now().Add(5 * time.Second)
	for peerMax() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no peer ever learned of node 1's snapshot task")
		}
		time.Sleep(time.Millisecond)
	}

	before := peerMax()
	if err := c.SkewedRestart(1); err != nil {
		t.Fatal(err)
	}
	if sns := c.stabilizing(1, 0).StateSummary().SNS; sns < before {
		t.Fatalf("restarted sns %d below a peer's pending entry %d — next snapshot would collide", sns, before)
	}
}

// TestSkewedRestartUnsupported: algorithms without restart-recovery hooks
// refuse, and node ids are validated.
func TestSkewedRestartUnsupported(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(Config{N: 3, Algorithm: NonBlockingDG})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SkewedRestart(0); err == nil {
		t.Fatal("baseline accepted a skewed restart")
	}
	if err := c.SkewedRestart(-1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("out of range: %v", err)
	}
}

// TestSkewedRestartMultiObject: the restart resets and recovers every
// hosted object, not just the first.
func TestSkewedRestartMultiObject(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(Config{N: 3, Algorithm: DeltaSS, Delta: 1, Seed: 35, Objects: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for o := 0; o < 3; o++ {
		if err := c.WriteObject(1, o, types.Value("obj")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for o := 0; o < 3; o++ {
		for {
			snap, err := c.SnapshotObject(0, o)
			if err != nil {
				t.Fatal(err)
			}
			if string(snap[1].Val) == "obj" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("object %d write never propagated", o)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := c.SkewedRestart(1); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 3; o++ {
		reg := c.stabilizing(1, o).StateSummary().Reg
		if string(reg[1].Val) != "obj" {
			t.Fatalf("object %d not recovered: %v", o, reg)
		}
	}
}
