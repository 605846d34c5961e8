package stacked

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
	t.Cleanup(func() { closeCluster(nodes, net) })
	return nodes, net
}

// newVirtualCluster starts n nodes on v over a zero-delay network. The
// caller runs inside v and closes the cluster with closeCluster.
func newVirtualCluster(v *simclock.Virtual, n int, seed int64) ([]*Node, *netsim.Network) {
	net := netsim.New(netsim.Config{N: n, Seed: seed, Clock: v})
	opts := fastOpts()
	opts.Clock = v
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = New(i, net, Config{Runtime: opts})
		nodes[i].Start()
	}
	return nodes, net
}

func closeCluster(nodes []*Node, net *netsim.Network) {
	for _, nd := range nodes {
		nd.Close()
	}
	net.Close()
}

func TestWriteSnapshotBasic(t *testing.T) {
	nodes, _ := newCluster(t, 5, netsim.Adversary{}, 1)
	if err := nodes[0].Write(types.Value("abd")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[3].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != "abd" || snap[0].TS != 1 {
		t.Fatalf("snap = %v", snap)
	}
}

// TestSnapshotCostIs8n pins the paper's introduction claim: a stacked
// (ABD + double collect) snapshot costs 8n messages and 4 round trips in
// the contention-free case — vs 2n and 1 for the direct construction. It
// runs on a virtual clock, like TestWriteCostIs2n, so the count is exact.
func TestSnapshotCostIs8n(t *testing.T) {
	const n = 6
	v := simclock.NewVirtual()
	v.Run("stacked-snapshot-cost", func() {
		nodes, net := newVirtualCluster(v, n, 2)
		defer closeCluster(nodes, net)
		if err := nodes[0].Write(types.Value("w")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		const settle = 20 * time.Millisecond // straggler acks, in virtual time
		v.Sleep(settle)
		before := net.Counters().Snapshot()
		if _, err := nodes[2].Snapshot(); err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		v.Sleep(settle)
		diff := net.Counters().Snapshot().Sub(before)
		if requests := diff.MessagesOf(wire.TCollect, wire.TWriteBack); requests != int64(4*n) {
			t.Errorf("collect+writeback requests = %d, want 4n=%d (2 collects × 2 phases)", requests, 4*n)
		}
		if total := diff.Messages; total != int64(8*n) {
			t.Errorf("total stacked snapshot messages = %d, want 8n=%d", total, 8*n)
		}
	})
}

func TestWriteCostIs2n(t *testing.T) {
	// Runs on a virtual clock: the straggler-ack settling period below is a
	// virtual sleep, so the test is deterministic and takes no wall time.
	const n = 6
	v := simclock.NewVirtual()
	v.Run("stacked-write-cost", func() {
		nodes, net := newVirtualCluster(v, n, 3)
		defer closeCluster(nodes, net)
		before := net.Counters().Snapshot()
		if err := nodes[1].Write(types.Value("w")); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// The write returns at a majority of acks; give the stragglers' acks
		// a moment (of virtual time) to be metered before diffing.
		v.Sleep(20 * time.Millisecond)
		diff := net.Counters().Snapshot().Sub(before)
		if u := diff.PerType[wire.TUpdate].Messages; u != int64(n) {
			t.Errorf("UPDATE messages = %d, want n=%d", u, n)
		}
		if total := diff.Messages; total != int64(2*n) {
			t.Errorf("total write messages = %d, want 2n=%d", total, 2*n)
		}
	})
}

func TestConcurrentWritersVisible(t *testing.T) {
	const n = 5
	nodes, _ := newCluster(t, n, netsim.Adversary{DropProb: 0.05, MaxDelay: time.Millisecond}, 4)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
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
	snap, err := nodes[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if snap[i].TS != 5 {
			t.Errorf("snap[%d].TS = %d, want 5", i, snap[i].TS)
		}
	}
}

func TestReadWriteBackMakesReadsAtomic(t *testing.T) {
	// Once some snapshot returned a value, every later snapshot must also
	// return it (no new/old inversion) — guaranteed by the write-back phase.
	nodes, _ := newCluster(t, 5, netsim.Adversary{MaxDelay: time.Millisecond}, 5)
	if err := nodes[0].Write(types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	s1, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := nodes[4].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !s1.VC().LessEq(s2.VC()) {
		t.Errorf("snapshot regression: %v then %v", s1.VC(), s2.VC())
	}
}

func TestSurvivesMinorityCrash(t *testing.T) {
	nodes, _ := newCluster(t, 5, netsim.Adversary{}, 6)
	nodes[1].Runtime().Crash()
	nodes[2].Runtime().Crash()
	if err := nodes[0].Write(types.Value("ok")); err != nil {
		t.Fatal(err)
	}
	snap, err := nodes[3].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[0].Val) != "ok" {
		t.Errorf("snap = %v", snap)
	}
}
