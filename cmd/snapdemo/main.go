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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/trace"
	"selfstabsnap/internal/types"
)

// errUsage marks a bad command line; main exits with status 2 on it.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills a run stuck in an operation
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// options is a parsed command line: the cluster and the workload.
type options struct {
	cfg                               core.Config
	writes, snapshots, writers, crash int
	storm                             time.Duration
	corrupt, trace                    bool
}

// run parses args and runs the demo on the real clock. It stops between
// operations once ctx is done.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	return demo(ctx, o, simclock.Real(), stdout)
}

func parse(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("snapdemo", flag.ContinueOnError)
	algName := fs.String("alg", "ss-nonblocking", "algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
	fs.IntVar(&o.cfg.N, "n", 5, "cluster size")
	fs.Int64Var(&o.cfg.Delta, "delta", 0, "Algorithm 3's δ parameter")
	fs.Int64Var(&o.cfg.Seed, "seed", 1, "randomness seed")
	fs.IntVar(&o.writes, "writes", 10, "sequential writes from node 0")
	fs.IntVar(&o.snapshots, "snapshots", 2, "snapshots from node 1")
	fs.IntVar(&o.writers, "writers", 0, "background writer nodes during the storm phase")
	fs.DurationVar(&o.storm, "storm", 0, "duration of a concurrent write storm")
	fs.Float64Var(&o.cfg.Adversary.DropProb, "drop", 0, "packet drop probability")
	fs.Float64Var(&o.cfg.Adversary.DupProb, "dup", 0, "packet duplication probability")
	fs.DurationVar(&o.cfg.Adversary.MaxDelay, "maxdelay", 0, "max packet delay (reordering)")
	fs.IntVar(&o.crash, "crash", 0, "crash this many highest-id nodes before the workload")
	fs.BoolVar(&o.corrupt, "corrupt", false, "inject a transient fault (full state corruption) mid-workload")
	fs.Int64Var(&o.cfg.MaxInt, "maxint", 0, "ss-bounded overflow threshold (0 = default)")
	fs.BoolVar(&o.trace, "trace", false, "print the message-sequence diagram (operations only)")
	if err := fs.Parse(args); err != nil {
		return o, fmt.Errorf("%w: %w", errUsage, err)
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		return o, fmt.Errorf("%w: %v", errUsage, err)
	}
	o.cfg.Algorithm = alg
	return o, nil
}

// demo builds the cluster on clk, runs the workload and prints its results
// to w.
func demo(ctx context.Context, o options, clk simclock.Clock, w io.Writer) error {
	var rec *trace.Recorder
	cfg := o.cfg
	cfg.LoopInterval, cfg.RetxInterval, cfg.Clock = time.Millisecond, 3*time.Millisecond, clk
	if o.trace {
		rec = trace.NewRecorderClocked(clk)
		cfg.Trace = rec
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	defer cluster.Close()

	adv := cfg.Adversary
	fmt.Fprintf(w, "cluster: n=%d algorithm=%s δ=%d adversary{drop=%.0f%% dup=%.0f%% delay≤%v}\n\n",
		cfg.N, cfg.Algorithm, cfg.Delta, adv.DropProb*100, adv.DupProb*100, adv.MaxDelay)

	for i := 0; i < o.crash; i++ {
		id := cfg.N - 1 - i
		cluster.Crash(id)
		fmt.Fprintf(w, "crashed node %d\n", id)
	}

	start := clk.Now()
	for i := 0; i < o.writes && ctx.Err() == nil; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		if err := cluster.Write(0, v); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		if o.corrupt && i == o.writes/2 {
			if err := cluster.CorruptAll(); err != nil {
				fmt.Fprintf(w, "corrupt: %v\n", err)
			} else {
				fmt.Fprintf(w, "!! transient fault injected at every node after write %d\n", i)
				if cycles, err := cluster.CyclesToInvariant(10 * time.Second); err == nil {
					fmt.Fprintf(w, "   recovered: consistency invariants restored within %d cycles\n", cycles)
				}
			}
		}
	}
	fmt.Fprintf(w, "%d writes from node 0 in %v\n", o.writes, clk.Since(start).Round(time.Microsecond))

	if o.storm > 0 && o.writers > 0 {
		var ops atomic.Int64
		stop := clk.NewEvent()
		g := clk.NewGroup()
		for wr := 1; wr <= o.writers && wr < cfg.N; wr++ {
			g.Add(1)
			clk.Go(fmt.Sprintf("storm-writer-%d", wr), func() {
				defer g.Done()
				for j := 0; !stop.Fired(); j++ {
					if cluster.Write(wr, types.Value(fmt.Sprintf("storm-%d-%d", wr, j))) == nil {
						ops.Add(1)
					}
				}
			})
		}
		sStart := clk.Now()
		snap, err := cluster.Snapshot(0)
		sLat := clk.Since(sStart)
		clk.Sleep(o.storm)
		stop.Fire()
		g.Wait()
		if err != nil {
			fmt.Fprintf(w, "storm snapshot: %v\n", err)
		} else {
			fmt.Fprintf(w, "storm: %d concurrent writes; snapshot during storm took %v → %s\n",
				ops.Load(), sLat.Round(time.Microsecond), snap)
		}
	}

	for i := 0; i < o.snapshots && ctx.Err() == nil; i++ {
		sStart := clk.Now()
		snap, err := cluster.Snapshot(1 % cfg.N)
		if err != nil {
			return fmt.Errorf("snapshot %d: %w", i, err)
		}
		fmt.Fprintf(w, "snapshot %d (%v): %s\n", i, clk.Since(sStart).Round(time.Microsecond), snap)
	}

	if b := cluster.Bounded(0); b != nil {
		fmt.Fprintf(w, "\nbounded counters: resets=%d epoch=%d deferred=%d aborted=%d\n",
			b.Resets(), b.Epoch(), b.DeferredOps(), b.AbortedOps())
	}

	fmt.Fprintf(w, "\ntraffic:\n%s", cluster.Metrics())

	if rec != nil {
		fmt.Fprintf(w, "\nmessage-sequence trace:\n%s", rec.Render(cfg.N))
	}
	return ctx.Err()
}
