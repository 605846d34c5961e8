package alwaysterm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

func fastOpts() node.Options {
	return node.Options{LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond}
}

func newCluster(t *testing.T, n int, adv netsim.Adversary, seed int64) ([]*Node, *netsim.Network) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: seed, Adversary: adv})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(i, net, Config{Runtime: fastOpts()})
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	})
	return nodes, net
}

func TestWriteSnapshotBasic(t *testing.T) {
	nodes, _ := newCluster(t, 4, netsim.Adversary{}, 1)
	if err := nodes[0].Write(types.Value("a")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[2].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != "a" || snap[0].TS != 1 {
		t.Fatalf("snap = %v", snap)
	}
}

// TestAlwaysTerminationUnderWriteStorm is the algorithm's raison d'être:
// snapshots terminate despite continuous concurrent writes, because all
// nodes defer writes while jointly serving the oldest snapshot task.
func TestAlwaysTerminationUnderWriteStorm(t *testing.T) {
	const n = 4
	nodes, _ := newCluster(t, n, netsim.Adversary{MaxDelay: time.Millisecond}, 2)
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
				if err := nodes[i].Write(types.Value(fmt.Sprintf("n%dv%d", i, j))); err != nil {
					return
				}
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Snapshot()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("snapshot starved — always-termination broken")
	}
}

// TestSnapshotCostIsQuadratic: every node serves the task, so SNAPSHOT
// traffic comes from many senders — Θ(n²) messages per snapshot overall.
// It runs on a virtual clock, so the count is a deterministic function of
// the seed and is pinned exactly.
func TestSnapshotCostIsQuadratic(t *testing.T) {
	const n = 5
	v := simclock.NewVirtual()
	v.Run("alwaysterm-snapshot-cost", func() {
		net := netsim.New(netsim.Config{N: n, Seed: 3, Adversary: netsim.Adversary{MaxDelay: time.Millisecond}, Clock: v})
		opts := fastOpts()
		opts.Clock = v
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = New(i, net, Config{Runtime: opts})
			nodes[i].Start()
		}
		defer func() {
			for _, nd := range nodes {
				nd.Close()
			}
			net.Close()
		}()
		if err := nodes[1].Write(types.Value("w")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		const settle = 20 * time.Millisecond // stragglers, in virtual time
		v.Sleep(settle)
		before := net.Counters().Snapshot()
		if _, err := nodes[0].Snapshot(); err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		v.Sleep(settle)
		snaps := net.Counters().Snapshot().Sub(before).PerType[wire.TSnapshot].Messages
		// Under this seed's delays four nodes serve the task, one SNAPSHOT
		// round of n messages each; the fifth sees END before its loop
		// reaches the task. 4n is clearly more than one node's worth (2n).
		if want := int64(4 * n); snaps != want {
			t.Errorf("SNAPSHOT messages = %d, want %d (joint serving)", snaps, want)
		}
	})
}

// TestResultRememberedForever: repSnap retains every result (unbounded
// memory — the baseline property Algorithm 3 eliminates).
func TestResultRememberedForever(t *testing.T) {
	nodes, _ := newCluster(t, 3, netsim.Adversary{}, 4)
	for k := 0; k < 4; k++ {
		if _, err := nodes[1].Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for nodes[1].StateSummary().Results < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("repSnap holds %d results, want 4", nodes[1].StateSummary().Results)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTasksServedInGlobalOrder: concurrent snapshot tasks complete in
// (sn, src) order at every node, one at a time.
func TestConcurrentSnapshots(t *testing.T) {
	const n = 5
	nodes, _ := newCluster(t, n, netsim.Adversary{MaxDelay: time.Millisecond}, 5)
	_ = nodes[0].Write(types.Value("x"))
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = nodes[i].Snapshot()
		}(i)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(20 * time.Second):
		t.Fatal("concurrent snapshots hung")
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

func TestWriteWhileCrashedFails(t *testing.T) {
	nodes, _ := newCluster(t, 3, netsim.Adversary{}, 6)
	nodes[0].Runtime().Crash()
	if err := nodes[0].Write(types.Value("x")); err == nil {
		t.Fatal("write on crashed node succeeded")
	}
	nodes[0].Runtime().Resume()
	if err := nodes[0].Write(types.Value("x")); err != nil {
		t.Fatalf("write after resume: %v", err)
	}
}

func TestSurvivesMinorityCrash(t *testing.T) {
	nodes, _ := newCluster(t, 5, netsim.Adversary{}, 7)
	nodes[3].Runtime().Crash()
	nodes[4].Runtime().Crash()
	if err := nodes[0].Write(types.Value("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var snap types.RegVector
	var err error
	go func() { snap, err = nodes[1].Snapshot(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("snapshot hung with minority crashed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != "v" {
		t.Errorf("snap = %v", snap)
	}
}
