package bounded

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestEpochFencingBlocksStaleIndices is the §5 safety property the epoch
// fence exists for: after a global reset has collapsed the indices, a
// stale pre-reset message carrying a huge timestamp must NOT re-poison any
// node's state.
func TestEpochFencingBlocksStaleIndices(t *testing.T) {
	const maxInt = 16
	net := netsim.New(netsim.Config{N: 3, Seed: 8})
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		nodes[i] = New(i, net, Config{MaxInt: maxInt, Runtime: fastOpts()})
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	}()

	// Drive one wraparound.
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Epoch() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("reset never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Forge a "delayed" pre-reset WRITE (epoch 0) carrying enormous
	// timestamps and inject it straight into node 1's inbox, bypassing the
	// sending-side stamping.
	evil := &wire.Message{
		Type:  wire.TWrite,
		Epoch: 0,
		Reg: types.RegVector{
			{TS: 1 << 40, Val: types.Value("poison")},
			{TS: 1 << 40, Val: types.Value("poison")},
			{TS: 1 << 40, Val: types.Value("poison")},
		},
	}
	net.Send(0, 1, evil)
	time.Sleep(20 * time.Millisecond)

	if got := nodes[1].MaxIndex(); got >= maxInt {
		t.Fatalf("stale-epoch message poisoned the state: MaxIndex=%d", got)
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range snap {
		if string(e.Val) == "poison" {
			t.Fatalf("poisoned value surfaced at register %d", k)
		}
	}

	// A current-epoch message, by contrast, is processed normally.
	if err := nodes[2].Write(types.Value("legit")); err != nil {
		t.Fatal(err)
	}
	snap, err = nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[2].Val) != "legit" {
		t.Fatalf("current-epoch traffic over-fenced: %v", snap)
	}
}

// TestResetStatsAccessors covers the inspection surface.
func TestResetStatsAccessors(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 9})
	nd := New(0, net, Config{Runtime: fastOpts()})
	nd.Start()
	defer func() {
		nd.Close()
		net.Close()
	}()
	if nd.Epoch() != 0 || nd.Resets() != 0 || nd.DeferredOps() != 0 || nd.AbortedOps() != 0 {
		t.Error("fresh node has nonzero stats")
	}
	if nd.ResetActive() {
		t.Error("fresh node mid-reset")
	}
	if nd.Runtime() == nil || nd.Inner == nil {
		t.Error("nil accessors")
	}
}

// TestDefaultMaxInt: without an explicit threshold the production default
// applies and ordinary workloads never trigger a reset.
func TestDefaultMaxInt(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 10})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(i, net, Config{Runtime: fastOpts()})
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	}()
	for i := 0; i < 50; i++ {
		if err := nodes[0].Write(types.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[0].Resets() != 0 || nodes[0].ResetActive() {
		t.Error("default threshold triggered a reset on a tiny workload")
	}
}
