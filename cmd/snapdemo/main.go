// Command snapdemo runs an in-memory cluster of snapshot-object nodes with
// a configurable algorithm, workload and fault plan, then prints operation
// results, traffic metrics and (optionally) a message-sequence trace.
//
// Examples:
//
//	snapdemo -alg ss-nonblocking -n 5 -writes 20 -snapshots 3
//	snapdemo -alg ss-delta -delta 4 -n 7 -writers 6 -storm 200ms
//	snapdemo -alg ss-nonblocking -n 5 -corrupt -writes 10
//	snapdemo -alg ss-bounded -maxint 64 -writes 150
//	snapdemo -alg dg-alwaysterm -n 4 -trace -writes 1 -snapshots 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/trace"
	"selfstabsnap/internal/types"
)

func main() {
	var (
		algName   = flag.String("alg", "ss-nonblocking", "algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
		n         = flag.Int("n", 5, "cluster size")
		delta     = flag.Int64("delta", 0, "Algorithm 3's δ parameter")
		seed      = flag.Int64("seed", 1, "randomness seed")
		writes    = flag.Int("writes", 10, "sequential writes from node 0")
		snapshots = flag.Int("snapshots", 2, "snapshots from node 1")
		writers   = flag.Int("writers", 0, "background writer nodes during the storm phase")
		storm     = flag.Duration("storm", 0, "duration of a concurrent write storm")
		drop      = flag.Float64("drop", 0, "packet drop probability")
		dup       = flag.Float64("dup", 0, "packet duplication probability")
		maxDelay  = flag.Duration("maxdelay", 0, "max packet delay (reordering)")
		crash     = flag.Int("crash", 0, "crash this many highest-id nodes before the workload")
		corrupt   = flag.Bool("corrupt", false, "inject a transient fault (full state corruption) mid-workload")
		maxInt    = flag.Int64("maxint", 0, "ss-bounded overflow threshold (0 = default)")
		showTrace = flag.Bool("trace", false, "print the message-sequence diagram (operations only)")
	)
	flag.Parse()

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var rec *trace.Recorder
	cfg := core.Config{
		N: *n, Algorithm: alg, Delta: *delta, Seed: *seed,
		LoopInterval: time.Millisecond, RetxInterval: 3 * time.Millisecond,
		Adversary: netsim.Adversary{DropProb: *drop, DupProb: *dup, MaxDelay: *maxDelay},
		MaxInt:    *maxInt,
	}
	if *showTrace {
		rec = trace.NewRecorder()
		cfg.Trace = rec
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cluster.Close()

	fmt.Printf("cluster: n=%d algorithm=%s δ=%d adversary{drop=%.0f%% dup=%.0f%% delay≤%v}\n\n",
		*n, alg, *delta, *drop*100, *dup*100, *maxDelay)

	for i := 0; i < *crash; i++ {
		id := *n - 1 - i
		cluster.Crash(id)
		fmt.Printf("crashed node %d\n", id)
	}

	start := time.Now()
	for i := 0; i < *writes; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		if err := cluster.Write(0, v); err != nil {
			fmt.Fprintf(os.Stderr, "write %d: %v\n", i, err)
			os.Exit(1)
		}
		if *corrupt && i == *writes/2 {
			if err := cluster.CorruptAll(); err != nil {
				fmt.Fprintf(os.Stderr, "corrupt: %v\n", err)
			} else {
				fmt.Printf("!! transient fault injected at every node after write %d\n", i)
				if cycles, err := cluster.CyclesToInvariant(10 * time.Second); err == nil {
					fmt.Printf("   recovered: consistency invariants restored within %d cycles\n", cycles)
				}
			}
		}
	}
	fmt.Printf("%d writes from node 0 in %v\n", *writes, time.Since(start).Round(time.Microsecond))

	if *storm > 0 && *writers > 0 {
		var ops atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 1; w <= *writers && w < *n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					if cluster.Write(w, types.Value(fmt.Sprintf("storm-%d-%d", w, j))) == nil {
						ops.Add(1)
					}
				}
			}(w)
		}
		sStart := time.Now()
		snap, err := cluster.Snapshot(0)
		sLat := time.Since(sStart)
		time.Sleep(*storm)
		close(stop)
		wg.Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "storm snapshot: %v\n", err)
		} else {
			fmt.Printf("storm: %d concurrent writes; snapshot during storm took %v → %s\n",
				ops.Load(), sLat.Round(time.Microsecond), snap)
		}
	}

	for i := 0; i < *snapshots; i++ {
		sStart := time.Now()
		snap, err := cluster.Snapshot(1 % *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("snapshot %d (%v): %s\n", i, time.Since(sStart).Round(time.Microsecond), snap)
	}

	if b := cluster.Bounded(0); b != nil {
		fmt.Printf("\nbounded counters: resets=%d epoch=%d deferred=%d aborted=%d\n",
			b.Resets(), b.Epoch(), b.DeferredOps(), b.AbortedOps())
	}

	fmt.Printf("\ntraffic:\n%s", cluster.Metrics())

	if rec != nil {
		fmt.Printf("\nmessage-sequence trace:\n%s", rec.Render(*n))
	}
}
