package deltasnap

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
)

func fastOpts() node.Options {
	return node.Options{LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond}
}

func newCluster(t *testing.T, n int, delta int64, adv netsim.Adversary, seed int64) ([]*Node, *netsim.Network) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: seed, Adversary: adv})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(i, net, Config{Delta: delta, Runtime: fastOpts()})
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

func TestWriteThenSnapshot(t *testing.T) {
	for _, delta := range []int64{0, 1, 5, 1 << 30} {
		delta := delta
		t.Run(fmt.Sprintf("delta=%d", delta), func(t *testing.T) {
			t.Parallel()
			nodes, _ := newCluster(t, 4, delta, netsim.Adversary{}, 21+delta)
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
		})
	}
}

// TestAlwaysTerminationUnderWriteStorm is the core liveness property
// (Theorem 3): a snapshot completes even while every node keeps writing
// continuously — the behaviour Algorithm 1 cannot provide.
func TestAlwaysTerminationUnderWriteStorm(t *testing.T) {
	for _, delta := range []int64{0, 3} {
		delta := delta
		t.Run(fmt.Sprintf("delta=%d", delta), func(t *testing.T) {
			t.Parallel()
			const n = 4
			nodes, _ := newCluster(t, n, delta, netsim.Adversary{}, 31+delta)
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
				t.Fatal("snapshot starved under concurrent writes")
			}
		})
	}
}

// TestConcurrentSnapshotsAllNodes reproduces Figure 3's lower drawing: all
// nodes invoke snapshots concurrently; the many-jobs-stealing scheme
// resolves all of them.
func TestConcurrentSnapshotsAllNodes(t *testing.T) {
	const n = 5
	nodes, _ := newCluster(t, n, 0, netsim.Adversary{}, 41)
	if err := nodes[0].Write(types.Value("seed")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	snaps := make([]types.RegVector, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], errs[i] = nodes[i].Snapshot()
		}(i)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(20 * time.Second):
		t.Fatal("concurrent snapshots did not all terminate")
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if string(snaps[i][0].Val) != "seed" {
			t.Errorf("node %d snapshot missing the completed write: %v", i, snaps[i])
		}
	}
	// All returned vectors must be pairwise comparable (linearizable).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vi, vj := snaps[i].VC(), snaps[j].VC()
			if !vi.LessEq(vj) && !vj.LessEq(vi) {
				t.Errorf("incomparable snapshots: %v vs %v", vi, vj)
			}
		}
	}
}

// TestDeltaZeroRecruitsHelpers: with δ=0 every node helps every pending
// task, so a single snapshot generates SNAPSHOT traffic from multiple
// nodes (O(n²) overall).
// TestDeltaLargeSoloSnapshot: with a huge δ and no concurrent writes, the
// initiator works alone: only it broadcasts SNAPSHOT messages, giving the
// O(n) regime.
func TestDeltaMessageRegimes(t *testing.T) {
	run := func(delta int64, seed int64, storm bool) (snapshotSenders map[int32]bool) {
		adv := netsim.Adversary{}
		if storm {
			// Realistic link delay: query rounds span several do-forever
			// iterations, so concurrent writes actually interleave and
			// recruitment becomes observable.
			adv.MinDelay = 500 * time.Microsecond
			adv.MaxDelay = 2 * time.Millisecond
		}
		net := netsim.New(netsim.Config{N: 5, Seed: seed, Adversary: adv})
		var nodes []*Node
		for i := 0; i < 5; i++ {
			nd := New(i, net, Config{Delta: delta, Runtime: fastOpts()})
			nd.Start()
			nodes = append(nodes, nd)
		}
		defer func() {
			for _, nd := range nodes {
				nd.Close()
			}
			net.Close()
		}()
		_ = nodes[1].Write(types.Value("w"))

		// Helpers are identified by ssn movement: ssn only advances inside
		// baseSnapshot query rounds.
		before := make([]int64, 5)
		for i, nd := range nodes {
			before[i] = nd.StateSummary().SSN
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			// Concurrent writes keep rounds non-quiet so helping is visible.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = nodes[1].Write(types.Value(fmt.Sprintf("s%d", j)))
				}
			}()
		}
		if _, err := nodes[0].Snapshot(); err != nil {
			panic(err)
		}
		close(stop)
		wg.Wait()
		senders := map[int32]bool{}
		for i, nd := range nodes {
			if nd.StateSummary().SSN > before[i] {
				senders[int32(i)] = true
			}
		}
		return senders
	}

	solo := run(1<<30, 51, false)
	if len(solo) != 1 || !solo[0] {
		t.Errorf("huge δ, quiet: snapshot helpers = %v, want only the initiator", solo)
	}
	crowd := run(0, 52, true)
	if len(crowd) < 3 {
		t.Errorf("δ=0, write storm: snapshot helpers = %v, want most nodes helping", crowd)
	}
}

// TestRecoveryTheorem2 corrupts all state and verifies Definition 1's
// locally checkable invariants return within O(1) cycles and operations
// work afterwards.
func TestRecoveryTheorem2(t *testing.T) {
	nodes, _ := newCluster(t, 4, 2, netsim.Adversary{}, 61)
	for i := 0; i < 4; i++ {
		if err := nodes[i].Write(types.Value(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, nd := range nodes {
		nd.Corrupt(rng)
	}
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
			t.Fatal("invariants not restored")
		}
		time.Sleep(time.Millisecond)
	}
	// Post-recovery operations terminate and are coherent.
	if err := nodes[2].Write(types.Value("post")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var snap types.RegVector
	var serr error
	go func() { snap, serr = nodes[3].Snapshot(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("post-recovery snapshot hung")
	}
	if serr != nil {
		t.Fatal(serr)
	}
	if string(snap[2].Val) != "post" {
		t.Errorf("post-recovery snapshot = %v", snap)
	}
}

// TestSnapshotUnderAdversary exercises the full protocol over a lossy,
// duplicating, reordering network.
func TestSnapshotUnderAdversary(t *testing.T) {
	nodes, _ := newCluster(t, 5, 2, netsim.Adversary{DropProb: 0.1, DupProb: 0.1, MaxDelay: 2 * time.Millisecond}, 71)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := nodes[i].Write(types.Value(fmt.Sprintf("n%dv%d", i, j))); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	snap, err := nodes[2].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if snap[i].TS != 5 {
			t.Errorf("snap[%d].TS = %d, want 5", i, snap[i].TS)
		}
	}
}

// TestSafeRegisterResultDelivery: the initiator learns the result even if
// it is not in the majority the safeReg write landed on, via the
// result-forwarding in the SNAPSHOT handler (line 107).
func TestResultForwarding(t *testing.T) {
	nodes, _ := newCluster(t, 5, 0, netsim.Adversary{MaxDelay: time.Millisecond}, 81)
	_ = nodes[4].Write(types.Value("x"))
	for i := 0; i < 3; i++ {
		snap, err := nodes[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(snap[4].Val) != "x" {
			t.Errorf("node %d: %v", i, snap)
		}
	}
}

// TestRepeatedSnapshotsAdvanceSNS: each snapshot bumps the operation index
// and reuses the single pndTsk slot (bounded memory, unlike Algorithm 2's
// unbounded repSnap map).
func TestRepeatedSnapshotsAdvanceSNS(t *testing.T) {
	nodes, _ := newCluster(t, 3, 0, netsim.Adversary{}, 91)
	for k := 1; k <= 5; k++ {
		if _, err := nodes[1].Snapshot(); err != nil {
			t.Fatal(err)
		}
		st := nodes[1].StateSummary()
		if st.SNS != int64(k) {
			t.Fatalf("after %d snapshots, sns = %d", k, st.SNS)
		}
		if st.PndSNS[1] != int64(k) || !st.PndDone[1] {
			t.Fatalf("pndTsk[self] = (%d, done=%v), want (%d,true)", st.PndSNS[1], st.PndDone[1], k)
		}
	}
}

// TestWritesProceedBetweenBlockingPeriods: with δ>0, writes keep completing
// while a snapshot is in progress (the paper's guarantee that at least δ
// writes can occur between blocking periods).
func TestWritesProceedDuringSnapshotDeltaLarge(t *testing.T) {
	nodes, _ := newCluster(t, 4, 1<<30, netsim.Adversary{}, 101)
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if nodes[1].Write(types.Value("v")) == nil {
				writes.Add(1)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	base := writes.Load()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if writes.Load()-base < 10 {
		t.Errorf("writes throttled without any snapshot: %d", writes.Load()-base)
	}
}

// TestWriteAfterLowTSFaultIsNotLost: the write a client invokes right after
// a transient fault left ts below reg[i].ts must not be lost. The on-demand
// iteration that serves it runs no cleaning (lines 73–78 recur only every
// LoopInterval), so the write step itself takes ts ← max(ts, reg[i].ts)+1,
// a no-op in a legal state. The loop interval is long so that no tick
// repairs ts first.
func TestWriteAfterLowTSFaultIsNotLost(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 13})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(i, net, Config{Delta: 2, Runtime: node.Options{LoopInterval: 10 * time.Second}})
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
