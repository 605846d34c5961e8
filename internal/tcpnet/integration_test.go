package tcpnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/types"
)

// startCluster assembles an n-node cluster of alg over a loopback mesh
// through core.NewNode, as cmd/tcpnode builds its node; the nodes close
// before the mesh when the test ends.
func startCluster(t *testing.T, n int, alg core.Algorithm) (*Mesh, []*core.Node) {
	t.Helper()
	mesh, err := NewMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mesh.Close)
	cfg := core.Config{Algorithm: alg, Delta: 2, LoopInterval: 5 * time.Millisecond, RetxInterval: 20 * time.Millisecond}
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nd, err := core.NewNode(i, mesh.Transports[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
	}
	return mesh, nodes
}

// TestAlgorithm1OverTCP runs the full self-stabilizing non-blocking
// protocol over real sockets: the Transport abstraction is not just a
// simulator veneer.
func TestAlgorithm1OverTCP(t *testing.T) {
	const n = 4
	_, nodes := startCluster(t, n, core.NonBlockingSS)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if err := nodes[i].Object(0).Write(types.Value(fmt.Sprintf("tcp-n%d-v%d", i, j))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	snap, err := nodes[1].Object(0).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if snap[i].TS != 3 || string(snap[i].Val) != fmt.Sprintf("tcp-n%d-v2", i) {
			t.Errorf("snap[%d] = %v", i, snap[i])
		}
	}
}

// TestAlgorithm3OverTCPWithNodeOutage kills one node's transport mid-run;
// the surviving majority keeps completing operations (TCP send failures
// count as packet loss and retransmission rides over them).
func TestAlgorithm3OverTCPWithNodeOutage(t *testing.T) {
	mesh, nodes := startCluster(t, 5, core.DeltaSS)

	if err := nodes[0].Object(0).Write(types.Value("before-outage")); err != nil {
		t.Fatal(err)
	}

	// Hard-kill node 4: crash the runtime and close its sockets.
	nodes[4].Runtime().Crash()
	mesh.Transports[4].Close()

	if err := nodes[1].Object(0).Write(types.Value("during-outage")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var snap types.RegVector
	var serr error
	go func() { snap, serr = nodes[2].Object(0).Snapshot(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("snapshot hung with one TCP node dead")
	}
	if serr != nil {
		t.Fatal(serr)
	}
	if string(snap[0].Val) != "before-outage" || string(snap[1].Val) != "during-outage" {
		t.Fatalf("snapshot = %v", snap)
	}
}
