// A live cluster over real TCP sockets on localhost: the same algorithm
// code that runs on the in-memory simulator, assembled by the same
// core.NewNode, over actual connections.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const n = 5

	// One TCP transport per node, all listening on ephemeral localhost
	// ports and dialling each other lazily.
	mesh, err := tcpnet.NewMesh(n)
	if err != nil {
		return err
	}
	defer mesh.Close()

	cfg := core.Config{Algorithm: core.DeltaSS, Delta: 4, LoopInterval: 5 * time.Millisecond, RetxInterval: 20 * time.Millisecond}
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nd, err := core.NewNode(i, mesh.Transports[i], cfg)
		if err != nil {
			return err
		}
		defer nd.Close()
		nodes[i] = nd
		fmt.Fprintf(w, "node %d listening on %s\n", i, mesh.Transports[i].Addr())
	}

	// Writes over real sockets.
	for i, nd := range nodes {
		start := time.Now()
		if err := nd.Object(0).Write(types.Value(fmt.Sprintf("tcp-hello-%d", i))); err != nil {
			return fmt.Errorf("write at node %d: %w", i, err)
		}
		fmt.Fprintf(w, "node %d wrote its register over TCP in %v\n", i, time.Since(start).Round(time.Microsecond))
	}

	// An atomic snapshot over real sockets.
	start := time.Now()
	snap, err := nodes[2].Object(0).Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot at node 2: %w", err)
	}
	fmt.Fprintf(w, "\nsnapshot at node 2 in %v:\n", time.Since(start).Round(time.Microsecond))
	for id, e := range snap {
		fmt.Fprintf(w, "  register[%d] = %q (write #%d)\n", id, e.Val, e.TS)
	}

	var total, drops, evictions, reconnects int64
	for _, tr := range mesh.Transports {
		c := tr.Counters()
		total += c.TotalMessages()
		drops += c.Drops()
		evictions += c.Evictions()
		reconnects += c.Reconnects()
	}
	fmt.Fprintf(w, "\n%d TCP messages exchanged in total\n", total)
	fmt.Fprintf(w, "transport health: %d drops, %d inbox evictions, %d connections established\n",
		drops, evictions, reconnects)
	return nil
}
