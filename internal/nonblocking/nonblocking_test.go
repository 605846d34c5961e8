package nonblocking

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

func fastOpts() node.Options {
	return node.Options{LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond}
}

func newCluster(t *testing.T, n int, selfStab bool, adv netsim.Adversary, seed int64) ([]*Node, *netsim.Network) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: seed, Adversary: adv})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(i, net, Config{SelfStabilizing: selfStab, Runtime: fastOpts()})
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

func TestWriteAdvancesTimestamp(t *testing.T) {
	nodes, _ := newCluster(t, 3, true, netsim.Adversary{}, 1)
	for i := 1; i <= 3; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		st := nodes[0].StateSummary()
		if st.TS != int64(i) || st.Reg[0].TS != int64(i) {
			t.Fatalf("after write %d: ts=%d reg[0].ts=%d", i, st.TS, st.Reg[0].TS)
		}
	}
}

func TestSnapshotSeesMajorityState(t *testing.T) {
	nodes, _ := newCluster(t, 5, true, netsim.Adversary{}, 2)
	if err := nodes[2].Write(types.Value("x")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[4].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[2].Val) != "x" || snap[2].TS != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestGossipRestoresLostOwnEntry checks the self-stabilizing role of the
// GOSSIP(reg[k])→p_k channel: if a node's own register entry is erased by a
// transient fault, peers gossip it back within O(1) cycles.
func TestGossipRestoresLostOwnEntry(t *testing.T) {
	nodes, _ := newCluster(t, 3, true, netsim.Adversary{}, 3)
	if err := nodes[0].Write(types.Value("precious")); err != nil {
		t.Fatal(err)
	}
	// Erase node 0's own entry and its ts (a targeted transient fault).
	nodes[0].mu.Lock()
	nodes[0].k.Reg[0] = types.TSValue{}
	nodes[0].k.TS = 0
	nodes[0].mu.Unlock()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := nodes[0].StateSummary()
		if st.Reg[0].TS == 1 && string(st.Reg[0].Val) == "precious" && st.TS >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("own entry not restored by gossip: %v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBaselineDoesNotRecover pins the contrast: with SelfStabilizing=false
// (the Delporte-Gallet baseline) an erased own entry stays lost until
// overwritten, because there is no gossip.
func TestBaselineDoesNotRecover(t *testing.T) {
	nodes, _ := newCluster(t, 3, false, netsim.Adversary{}, 4)
	if err := nodes[0].Write(types.Value("gone")); err != nil {
		t.Fatal(err)
	}
	nodes[0].mu.Lock()
	nodes[0].k.Reg[0] = types.TSValue{}
	nodes[0].mu.Unlock()
	time.Sleep(50 * time.Millisecond) // dozens of loop intervals
	st := nodes[0].StateSummary()
	if st.Reg[0].TS != 0 {
		t.Fatalf("baseline recovered without gossip?! %v", st.Reg)
	}
}

// TestRecoveryTheorem1 corrupts every node's full state and verifies the
// Theorem 1 invariant (ts_i ≥ reg_i[i].ts and cluster-wide register
// agreement on own entries) is restored within O(1) cycles, after which
// operations linearize normally.
func TestRecoveryTheorem1(t *testing.T) {
	nodes, _ := newCluster(t, 5, true, netsim.Adversary{}, 5)
	for i := 0; i < 5; i++ {
		if err := nodes[i].Write(types.Value(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for _, nd := range nodes {
		nd.Corrupt(rng)
	}

	// Local invariant restored within a bounded number of loop iterations.
	start := nodes[0].Runtime().LoopCount()
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, nd := range nodes {
			if !nd.LocalInvariantHolds() {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("invariant not restored")
		}
		time.Sleep(time.Millisecond)
	}
	cycles := nodes[0].Runtime().LoopCount() - start
	t.Logf("invariant restored within %d loop iterations", cycles)

	// The object remains usable: writes and snapshots terminate and the
	// snapshot reflects the post-recovery writes.
	for i := 0; i < 5; i++ {
		if err := nodes[i].Write(types.Value(fmt.Sprintf("post%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if string(snap[i].Val) != fmt.Sprintf("post%d", i) {
			t.Errorf("snap[%d] = %v after recovery", i, snap[i])
		}
	}
}

// TestMonotoneTimestamps: after corruption, indices never decrease — the
// basis of the paper's recovery argument (Theorem 1 proof, argument 1).
func TestMonotoneTimestamps(t *testing.T) {
	nodes, _ := newCluster(t, 3, true, netsim.Adversary{DupProb: 0.3}, 6)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTS int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := nodes[1].StateSummary()
			if st.TS < lastTS {
				t.Errorf("ts decreased: %d → %d", lastTS, st.TS)
				return
			}
			lastTS = st.TS
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < 20; i++ {
		if err := nodes[1].Write(types.Value("m")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotNonBlockingUnderQuiescence: a snapshot with no concurrent
// writes completes in a single double-collect round (one query round),
// costing Θ(n) SNAPSHOT messages.
func TestSnapshotMessageCost(t *testing.T) {
	nodes, net := newCluster(t, 5, false, netsim.Adversary{}, 7)
	if err := nodes[0].Write(types.Value("w")); err != nil {
		t.Fatal(err)
	}
	// Warm-up: the first snapshot may need two rounds because it also
	// learns the write (prev ≠ reg). The steady-state cost is one round.
	if _, err := nodes[3].Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Snapshot returns at quorum (⌈(n+1)/2⌉ acks); wait out the warm-up
	// round's straggler acks so they are not metered into the window.
	time.Sleep(20 * time.Millisecond)
	before := net.Counters().Snapshot()
	if _, err := nodes[3].Snapshot(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let straggler acks be metered
	diff := net.Counters().Snapshot().Sub(before)
	snaps := diff.PerType[wire.TSnapshot].Messages
	acks := diff.PerType[wire.TSnapshotAck].Messages
	if snaps != 5 {
		t.Errorf("SNAPSHOT messages = %d, want exactly n=5 in a quiet run", snaps)
	}
	if acks != 5 {
		t.Errorf("SNAPSHOTack messages = %d, want n=5", acks)
	}
}

// TestWriteMessageCost: a write costs Θ(n) WRITE messages (one broadcast)
// in a loss-free run.
func TestWriteMessageCost(t *testing.T) {
	nodes, net := newCluster(t, 8, false, netsim.Adversary{}, 8)
	before := net.Counters().Snapshot()
	if err := nodes[0].Write(types.Value("w")); err != nil {
		t.Fatal(err)
	}
	diff := net.Counters().Snapshot().Sub(before)
	if w := diff.PerType[wire.TWrite].Messages; w != 8 {
		t.Errorf("WRITE messages = %d, want n=8", w)
	}
}

// TestCrashedMajorityBlocks: with no live majority, operations cannot
// complete (2f < n is required); after resume they finish.
func TestCrashedMajorityBlocks(t *testing.T) {
	nodes, _ := newCluster(t, 5, true, netsim.Adversary{}, 9)
	for i := 1; i < 4; i++ {
		nodes[i].Runtime().Crash()
	}
	done := make(chan error, 1)
	go func() { done <- nodes[0].Write(types.Value("stuck")) }()
	select {
	case err := <-done:
		t.Fatalf("write completed without a majority: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	nodes[1].Runtime().Resume()
	nodes[2].Runtime().Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still stuck after majority restored")
	}
}

// TestConcurrentWritersAllLand: concurrent writes from every node are all
// visible to a final snapshot, each with its own timestamp (SWMR: no
// writer-writer conflicts).
func TestConcurrentWritersAllLand(t *testing.T) {
	const n = 5
	nodes, _ := newCluster(t, n, true, netsim.Adversary{DropProb: 0.05, DupProb: 0.05, MaxDelay: time.Millisecond}, 10)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := nodes[i].Write(types.Value(fmt.Sprintf("n%dv%d", i, j))); err != nil {
					t.Errorf("node %d write %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	snap, err := nodes[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if snap[i].TS != 10 || string(snap[i].Val) != fmt.Sprintf("n%dv9", i) {
			t.Errorf("snap[%d] = %v, want (n%dv9, 10)", i, snap[i], i)
		}
	}
}

// TestGossipSizeIsConstantInN pins that GOSSIP carries one register entry
// (O(ν) bits), not the whole vector (O(n·ν)).
func TestGossipSizeIsConstantInN(t *testing.T) {
	sizes := map[int]int64{}
	for _, n := range []int{4, 16} {
		net := netsim.New(netsim.Config{N: n, Seed: 11})
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			nodes[i] = New(i, net, Config{SelfStabilizing: true, Runtime: fastOpts()})
			nodes[i].Start()
		}
		_ = nodes[0].Write(types.Value("0123456789abcdef"))
		before := net.Counters().Snapshot()
		time.Sleep(30 * time.Millisecond)
		diff := net.Counters().Snapshot().Sub(before)
		g := diff.PerType[wire.TGossip]
		if g.Messages == 0 {
			t.Fatalf("n=%d: no gossip", n)
		}
		sizes[n] = g.Bytes / g.Messages
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	}
	// Per-message gossip size must not grow with n (allow small slack).
	if sizes[16] > sizes[4]*2 {
		t.Errorf("gossip size grows with n: %v", sizes)
	}
}

// TestWriteAfterLowTSFaultIsNotLost: a transient fault that leaves ts below
// the node's own register index must not make the next write install an
// entry older than the register it replaces. Such a write gathers a quorum
// (every peer's vector already dominates its lReg), returns nil, and is
// then invisible to every snapshot. The write step takes
// ts ← max(ts, reg[i].ts)+1, a no-op in a legal state. The loop interval is
// long so that no tick repairs ts before the write.
func TestWriteAfterLowTSFaultIsNotLost(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 12})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(i, net, Config{SelfStabilizing: true, Runtime: node.Options{LoopInterval: 10 * time.Second}})
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	})
	for i := 0; i < 5; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].mu.Lock()
	nodes[0].k.TS = 0
	nodes[0].mu.Unlock()
	if err := nodes[0].Write(types.Value("x")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].TS != 6 || string(snap[0].Val) != "x" {
		t.Fatalf("write after the fault was lost: node 1 sees %v, want (\"x\",6)", snap[0])
	}
}
