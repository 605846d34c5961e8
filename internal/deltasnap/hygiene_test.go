package deltasnap

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/types"
)

// TestVectorClockHygiene exercises line 76: a pndTsk vector clock that is
// not ⪯ the local VC (illogical — clocks are sampled from the monotone
// reg) is reset to ⊥ within one do-forever iteration.
func TestVectorClockHygiene(t *testing.T) {
	nodes, _ := newCluster(t, 3, 4, netsim.Adversary{}, 201)
	nd := nodes[0]

	nd.mu.Lock()
	nd.k.Pnd[1] = kernel.Task{SNS: 1, VC: types.VectorClock{999, 999, 999}} // corrupted: exceeds VC
	nd.mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for {
		nd.mu.Lock()
		cleared := nd.k.Pnd[1].VC == nil
		nd.mu.Unlock()
		if cleared {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("illogical vector clock never cleared (line 76)")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOwnSnsRecovery exercises line 75 + the sns gossip: if a node's own
// sns is corrupted LOW while peers still remember a higher task index for
// it, the node recovers its index within O(1) cycles — Definition 1(iii).
func TestOwnSnsRecovery(t *testing.T) {
	nodes, _ := newCluster(t, 3, 0, netsim.Adversary{}, 202)
	// Establish sns=3 at node 0 via three snapshots.
	for i := 0; i < 3; i++ {
		if _, err := nodes[0].Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Let peers learn pndTsk[0].sns = 3 (they do, via the task protocol).
	time.Sleep(10 * time.Millisecond)

	// Corrupt node 0's own indices low.
	nodes[0].mu.Lock()
	nodes[0].k.SNS = 0
	nodes[0].k.Pnd[0] = kernel.Task{}
	nodes[0].mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := nodes[0].StateSummary()
		if st.SNS >= 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sns stuck at %d, want ≥ 3 (gossip recovery)", st.SNS)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotMonotonicity: successive snapshots from mixed nodes return
// non-decreasing vectors even with interleaved writes — the practical face
// of linearizability.
func TestSnapshotMonotonicity(t *testing.T) {
	nodes, _ := newCluster(t, 4, 2, netsim.Adversary{DupProb: 0.1, MaxDelay: time.Millisecond}, 203)
	var prev types.VectorClock
	for round := 0; round < 8; round++ {
		writer := round % 4
		if err := nodes[writer].Write(types.Value(fmt.Sprintf("r%d", round))); err != nil {
			t.Fatal(err)
		}
		snap, err := nodes[(round+1)%4].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		vc := snap.VC()
		if prev != nil && !prev.LessEq(vc) {
			t.Fatalf("round %d: snapshot regressed: %v then %v", round, prev, vc)
		}
		prev = vc
	}
}

// TestHelpersReleasedAfterTaskResolves: after a snapshot completes, no node
// keeps spinning in baseSnapshot (Δ empties everywhere) — ssn counters
// quiesce.
func TestHelpersReleasedAfterTaskResolves(t *testing.T) {
	nodes, _ := newCluster(t, 4, 0, netsim.Adversary{}, 204)
	if _, err := nodes[0].Snapshot(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let helping settle
	var before [4]int64
	for i, nd := range nodes {
		before[i] = nd.StateSummary().SSN
	}
	time.Sleep(30 * time.Millisecond)
	for i, nd := range nodes {
		if got := nd.StateSummary().SSN; got != before[i] {
			t.Errorf("node %d ssn still advancing after task resolution: %d → %d", i, before[i], got)
		}
	}
}

// TestManySnapshotsManyWriters is a longer soak of the full protocol.
func TestManySnapshotsManyWriters(t *testing.T) {
	const n = 5
	nodes, _ := newCluster(t, n, 3, netsim.Adversary{DropProb: 0.05, MaxDelay: time.Millisecond}, 205)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if err := nodes[i].Write(types.Value(fmt.Sprintf("n%dj%d", i, j))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := nodes[i].Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}(i)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(60 * time.Second):
		t.Fatal("soak did not finish")
	}
	snap, err := nodes[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if snap[i].TS != 6 {
			t.Errorf("snap[%d].TS = %d, want 6", i, snap[i].TS)
		}
	}
}
