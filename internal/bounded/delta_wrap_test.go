package bounded

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/types"
)

func newDeltaCluster(t *testing.T, n int, delta, maxInt int64, seed int64) []*Node {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: seed})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewDelta(i, net, delta, Config{MaxInt: maxInt, Runtime: fastOpts()})
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	})
	return nodes
}

// TestDeltaWraparoundViaWrites: Algorithm 3 wrapped in the §5 machinery —
// write-index overflow triggers the global reset, register values survive,
// and both writes and snapshots work afterwards.
func TestDeltaWraparoundViaWrites(t *testing.T) {
	const maxInt = 16
	nodes := newDeltaCluster(t, 3, 2, maxInt, 21)
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, nd := range nodes {
			if nd.Resets() < 1 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reset never completed: resets=%d,%d,%d active=%v",
				nodes[0].Resets(), nodes[1].Resets(), nodes[2].Resets(), nodes[0].ResetActive())
		}
		time.Sleep(time.Millisecond)
	}

	for i, nd := range nodes {
		st := nd.StateSummary()
		if st.TS > 2 || st.SNS != 0 {
			t.Errorf("node %d indices not collapsed: ts=%d sns=%d", i, st.TS, st.SNS)
		}
		if got := string(st.Reg[0].Val); got != fmt.Sprintf("w%d", maxInt-1) {
			t.Errorf("node %d lost register value: %q", i, got)
		}
	}

	// Both operation kinds work in the new epoch.
	if err := nodes[1].Write(types.Value("post")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[2].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[1].Val) != "post" || string(snap[0].Val) != fmt.Sprintf("w%d", maxInt-1) {
		t.Fatalf("post-reset snapshot = %v", snap)
	}
}

// TestDeltaWraparoundViaSnapshots: the distinctive Algorithm 3 overflow
// path — the snapshot-operation index sns crosses MAXINT (ssn crosses it
// even sooner since each snapshot spends ≥1 query round). The reset must
// fire and snapshots must keep terminating afterwards.
func TestDeltaWraparoundViaSnapshots(t *testing.T) {
	const maxInt = 12
	nodes := newDeltaCluster(t, 3, 0, maxInt, 22)
	if err := nodes[0].Write(types.Value("seed")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxInt+2; i++ {
		if _, err := nodes[1].Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Resets() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot-index overflow never triggered a reset (maxidx=%d)",
				nodes[1].MaxIndex())
		}
		time.Sleep(time.Millisecond)
	}
	// Post-reset: the seeded value survived and snapshots still terminate.
	snap, err := nodes[2].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != "seed" {
		t.Fatalf("register value lost across snapshot-driven reset: %v", snap)
	}
}
