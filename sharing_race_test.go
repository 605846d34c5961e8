package selfstabsnap_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/transporttest"
	"selfstabsnap/internal/types"
)

// aliasObject is the slice of the algorithm surface the alias hammer
// drives: client operations plus transient-fault injection.
type aliasObject interface {
	Write(types.Value) error
	Snapshot() (types.RegVector, error)
	Corrupt(rng *rand.Rand)
}

// aliasHammer drives concurrent Write + Snapshot + Corrupt traffic (with
// gossip running underneath at a 1ms loop interval) against nodes whose
// register vectors now share payload structure end to end: local registers,
// quorum-call payloads, server replies, gossip entries and returned
// snapshots may all alias the same byte slices. Run under -race, any code
// path still writing a shared payload in place surfaces as a data race;
// under -tags mutcheck the final sweep re-verifies every tracked payload's
// creation-time fingerprint. An operation a global reset aborted (the
// bounded variants reset on purpose, and a reset aborts what is in flight)
// is not a failure of the hammer.
func aliasHammer(t *testing.T, nodes []aliasObject) {
	t.Helper()
	const writes, snaps = 20, 4
	n := len(nodes)

	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(2)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				v := types.Value(fmt.Sprintf("node-%d-write-%d-%032d", k, i, i))
				if err := nodes[k].Write(v); err != nil && !errors.Is(err, node.ErrAborted) {
					t.Errorf("node %d write %d: %v", k, i, err)
					return
				}
			}
		}(k)
		go func(k int) {
			defer wg.Done()
			var sink int64
			for i := 0; i < snaps; i++ {
				snap, err := nodes[k].Snapshot()
				if errors.Is(err, node.ErrAborted) {
					continue
				}
				if err != nil {
					t.Errorf("node %d snapshot %d: %v", k, i, err)
					return
				}
				// Read every shared byte: the race detector flags any
				// writer still touching a returned snapshot's payloads.
				for _, e := range snap {
					sink += e.TS
					for _, b := range e.Val {
						sink += int64(b)
					}
				}
			}
			_ = sink
		}(k)
	}
	// Transient faults in the middle of the traffic: Corrupt is the one
	// path that must keep deep-copying, since it rewrites state while the
	// old entries may be shared with in-flight messages and snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 5; i++ {
			time.Sleep(20 * time.Millisecond)
			nodes[rng.Intn(n)].Corrupt(rng)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("alias hammer deadlocked")
	}
	transporttest.SweepFrozen(t)
}

// TestSharedStructureAliasSafety hammers the self-stabilizing algorithms
// over both transports. The netsim transport shares payloads via
// copy-on-write ShallowClones (maximum aliasing pressure); tcpnet marshals
// through real sockets on the remote path but shares on loopback.
func TestSharedStructureAliasSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("alias hammer is a -race soak; skipped in -short mode")
	}
	const n = 4

	// The bounded wrappers run with a tiny MAXINT so overflow freezes —
	// and therefore wrap-tick MAXIDX broadcasts, consensus rounds and
	// InstallReset — all fire repeatedly under the hammer. The wrap tick
	// attaches the live shared-structure register snapshot to every
	// broadcast by reference; any code path mutating those payloads in
	// place surfaces as a data race here. Corrupt on a bounded node
	// scrambles the wrapped algorithm's state.
	algorithms := []struct {
		name string
		alg  core.Algorithm
	}{
		{"nonblocking", core.NonBlockingSS},
		{"deltasnap", core.DeltaSS},
		{"bounded", core.BoundedSS},
		{"bounded-delta", core.BoundedDeltaSS},
	}
	for _, alg := range algorithms {
		cfg := core.Config{
			Algorithm: alg.alg, Delta: 1, MaxInt: 6,
			LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond,
		}
		hammer := func(t *testing.T, tr func(k int) netsim.Transport) {
			objs := make([]aliasObject, n)
			for k := range objs {
				nd, err := core.NewNode(k, tr(k), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer nd.Close()
				objs[k] = nd.Object(0).(aliasObject)
			}
			aliasHammer(t, objs)
		}
		t.Run(alg.name+"/netsim", func(t *testing.T) {
			net := netsim.New(netsim.Config{N: n, Seed: 7})
			defer net.Close()
			hammer(t, func(int) netsim.Transport { return net })
		})
		t.Run(alg.name+"/tcpnet", func(t *testing.T) {
			mesh, err := tcpnet.NewMesh(n)
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			hammer(t, func(k int) netsim.Transport { return mesh.Transports[k] })
		})
	}
}
