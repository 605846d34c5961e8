package bounded

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
)

func fastOpts() node.Options {
	return node.Options{LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond}
}

func newCluster(t *testing.T, n int, maxInt int64, abort bool, seed int64) []*Node {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: seed})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(i, net, Config{MaxInt: maxInt, AbortDuringReset: abort, Runtime: fastOpts()})
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

func TestNormalOperationBelowThreshold(t *testing.T) {
	nodes := newCluster(t, 3, 1000, false, 1)
	for i := 0; i < 10; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].TS != 10 || string(snap[0].Val) != "v9" {
		t.Fatalf("snap = %v", snap)
	}
	if nodes[0].Resets() != 0 {
		t.Errorf("spurious reset below threshold")
	}
}

// TestWraparoundResetsAndPreservesValues is the §5 headline property: once
// an index reaches MAXINT the cluster resets all indices to their initial
// values while keeping every register value, then resumes operations.
func TestWraparoundResetsAndPreservesValues(t *testing.T) {
	const maxInt = 16
	nodes := newCluster(t, 3, maxInt, false, 2)
	// Drive node 0's ts past the threshold.
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].Write(types.Value("other")); err != nil && !errors.Is(err, node.ErrAborted) {
		t.Fatal(err)
	}

	// Wait for every node to apply exactly one reset.
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
			t.Fatalf("reset never completed: resets=%d,%d,%d active=%v,%v,%v",
				nodes[0].Resets(), nodes[1].Resets(), nodes[2].Resets(),
				nodes[0].ResetActive(), nodes[1].ResetActive(), nodes[2].ResetActive())
		}
		time.Sleep(time.Millisecond)
	}

	for i, nd := range nodes {
		if nd.Epoch() != 1 {
			t.Errorf("node %d epoch = %d, want 1", i, nd.Epoch())
		}
		st := nd.StateSummary()
		if st.TS > 2 {
			t.Errorf("node %d ts = %d after reset, want small", i, st.TS)
		}
		if got := string(st.Reg[0].Val); got != fmt.Sprintf("w%d", maxInt-1) {
			t.Errorf("node %d lost register value: %q", i, got)
		}
		if st.Reg[0].TS != 1 {
			t.Errorf("node %d reg[0].TS = %d, want 1", i, st.Reg[0].TS)
		}
	}

	// Operations resume with fresh indices and full semantics.
	if err := nodes[2].Write(types.Value("after")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[2].Val) != "after" {
		t.Errorf("post-reset snapshot = %v", snap)
	}
	if string(snap[0].Val) != fmt.Sprintf("w%d", maxInt-1) {
		t.Errorf("pre-reset value lost from snapshot: %v", snap)
	}
}

// TestOpsDeferredDuringReset: with the default policy, an operation invoked
// mid-reset blocks and completes after the reset.
func TestOpsDeferredDuringReset(t *testing.T) {
	const maxInt = 12
	nodes := newCluster(t, 3, maxInt, false, 3)
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Writes during/after the trigger must still all eventually land.
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = nodes[1].Write(types.Value(fmt.Sprintf("d%d", i)))
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("deferred writes never completed")
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("deferred write %d: %v", i, err)
		}
	}
}

// TestOpsAbortedDuringReset: with AbortDuringReset, operations invoked
// while frozen fail fast with ErrAborted — the paper's permitted bounded
// abort.
func TestOpsAbortedDuringReset(t *testing.T) {
	const maxInt = 12
	nodes := newCluster(t, 3, maxInt, true, 4)
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Poke until we observe the gate closed (reset in progress).
	deadline := time.Now().Add(5 * time.Second)
	aborted := false
	for time.Now().Before(deadline) {
		err := nodes[1].Write(types.Value("y"))
		if errors.Is(err, node.ErrAborted) {
			aborted = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !aborted {
		t.Skip("reset window too short to observe an abort (timing-dependent); covered by TestOpsDeferredDuringReset")
	}
	if nodes[1].AbortedOps() == 0 {
		t.Error("abort not counted")
	}
}

// TestRepeatedWraparounds: the cluster survives several consecutive
// overflow/reset cycles (epoch keeps advancing).
func TestRepeatedWraparounds(t *testing.T) {
	const maxInt = 8
	nodes := newCluster(t, 3, maxInt, false, 5)
	for round := 1; round <= 3; round++ {
		for i := 0; i < maxInt+2; i++ {
			if err := nodes[0].Write(types.Value(fmt.Sprintf("r%dv%d", round, i))); err != nil {
				t.Fatalf("round %d write %d: %v", round, i, err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for nodes[0].Resets() < int64(round) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d reset missing (resets=%d)", round, nodes[0].Resets())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if e := nodes[0].Epoch(); e != 3 {
		t.Errorf("epoch = %d, want 3", e)
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != fmt.Sprintf("r3v%d", maxInt+1) {
		t.Errorf("final value = %v", snap[0])
	}
}
