// Command tcpnode runs ONE snapshot-object node over real TCP; start n of
// them (one per terminal, container or machine) to form a live cluster.
//
// Example — a 3-node cluster on localhost:
//
//	tcpnode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	tcpnode -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	tcpnode -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	        -write hello -interval 1s -snapshot-every 3s
//
// Each node optionally writes a fresh value every -interval and prints a
// snapshot every -snapshot-every; with -objects K the node hosts K
// independent snapshot objects multiplexed over the one TCP transport and
// rotates the periodic workload over them. With -obs the node serves
// /metrics (Prometheus), /statusz (JSON) and /debug/pprof/ on the given
// address — see docs/OBSERVABILITY.md. -alg takes any algorithm core
// builds; the node is assembled by core.NewNode, as every cluster member
// is. Stop with Ctrl-C.
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
	"syscall"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
)

// regSummary is the per-register slice of the /statusz document.
type regSummary struct {
	Node  int   `json:"node"`
	TS    int64 `json:"ts"`
	Bytes int   `json:"bytes"`
}

func summarize(reg types.RegVector) []regSummary {
	out := make([]regSummary, len(reg))
	for k, e := range reg {
		out[k] = regSummary{Node: k, TS: e.TS, Bytes: len(e.Val)}
	}
	return out
}

// obsObjectCap bounds the cardinality of per-object observability series:
// no matter how many objects a node hosts, at most this many labeled
// series (and /statusz entries) are exported, plus aggregates. Keeps a
// 4096-object node from melting a Prometheus scrape.
const obsObjectCap = 16

// objStatus is one hosted object's slice of the /statusz document.
type objStatus struct {
	Obj       int          `json:"obj"`
	Registers []regSummary `json:"registers"`
}

// errUsage marks a bad command line; main exits with status 2 on it.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, serves one node until ctx is done, then prints the
// node's traffic counters and returns.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tcpnode", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this node's id (index into -peers)")
		peers    = fs.String("peers", "", "comma-separated host:port list, one per node")
		algName  = fs.String("alg", "ss-nonblocking", "algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
		delta    = fs.Int64("delta", 4, "δ for ss-delta and ss-bounded-delta, fixed for the node's lifetime")
		write    = fs.String("write", "", "value prefix to write periodically (empty = don't write)")
		interval = fs.Duration("interval", time.Second, "write period")
		snapEach = fs.Duration("snapshot-every", 5*time.Second, "snapshot period (0 = never)")
		inboxCap = fs.Int("inbox", 0, "bounded inbox capacity, drop-oldest on overflow (0 = default 4096)")
		objects  = fs.Int("objects", 1, "snapshot objects hosted on this node, multiplexed over one transport and one dispatcher")
		obsAddr  = fs.String("obs", "", "observability HTTP address for /metrics, /statusz and pprof (empty = disabled)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	addrs := strings.Split(*peers, ",")
	if len(addrs) < 3 {
		return fmt.Errorf("%w: need at least 3 peers (2f < n)", errUsage)
	}
	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *objects < 1 || *objects > node.MaxObjects {
		return fmt.Errorf("%w: -objects must be in [1, %d]", errUsage, node.MaxObjects)
	}
	if *delta < 0 {
		return fmt.Errorf("%w: -delta must be ≥ 0", errUsage)
	}
	if *write != "" && *interval <= 0 {
		return fmt.Errorf("%w: -interval must be positive", errUsage)
	}

	tr, err := tcpnet.NewWithOptions(*id, addrs, tcpnet.Options{InboxCap: *inboxCap})
	if err != nil {
		return err
	}
	defer tr.Close()

	journal := obs.NewJournal(0)
	nd, err := core.NewNode(*id, tr, core.Config{
		Algorithm:    alg,
		Delta:        *delta,
		Objects:      *objects,
		LoopInterval: 50 * time.Millisecond,
		RetxInterval: 200 * time.Millisecond,
		Journal:      journal,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	defer nd.Close()
	rt := nd.Runtime()
	registers := func(o int) []regSummary { return summarize(nd.Registers(o)) }
	// localInvariant returns one bit per object (the first obsObjectCap),
	// 1 while the object's local consistency invariant holds; nil for the
	// algorithms without a self-stabilization contract.
	localInvariant := func() []int {
		var bits []int
		for o := 0; o < nd.Objects() && o < obsObjectCap; o++ {
			holds, ok := nd.LocalInvariant(o)
			if !ok {
				return nil
			}
			bit := 0
			if holds {
				bit = 1
			}
			bits = append(bits, bit)
		}
		return bits
	}

	// The node's δ, or -1 when the algorithm has none.
	deltaValue := int64(-1)
	if alg == core.DeltaSS || alg == core.BoundedDeltaSS {
		deltaValue = *delta
	}

	var writeLat, snapLat metrics.LatencyRecorder

	if *obsAddr != "" {
		srv := obs.NewServer(*obsAddr)
		srv.AddCollector(func(w io.Writer) { tr.Counters().WritePrometheus(w) })
		srv.AddCollector(func(w io.Writer) {
			writeLat.Histogram().WritePrometheus(w, "selfstabsnap_write_latency_seconds")
			snapLat.Histogram().WritePrometheus(w, "selfstabsnap_snapshot_latency_seconds")
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_iterations_total counter\nselfstabsnap_loop_iterations_total %d\n",
				rt.LoopCount())
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_kicks_total counter\nselfstabsnap_loop_kicks_total %d\n",
				rt.LoopKicks())
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_on_demand_iterations_total counter\nselfstabsnap_loop_on_demand_iterations_total %d\n",
				rt.OnDemandIterations())
			fmt.Fprintf(w, "# TYPE selfstabsnap_journal_events_total counter\nselfstabsnap_journal_events_total %d\n",
				journal.Total())
			if bits := localInvariant(); bits != nil {
				fmt.Fprintf(w, "# TYPE selfstabsnap_local_invariant gauge\n")
				for o, bit := range bits {
					fmt.Fprintf(w, "selfstabsnap_local_invariant{obj=\"%d\"} %d\n", o, bit)
				}
			}
			fmt.Fprintf(w, "# TYPE selfstabsnap_objects_hosted gauge\nselfstabsnap_objects_hosted %d\n", nd.Objects())
			if nd.Objects() > 1 {
				// Per-object progress gauges, bounded cardinality: at most
				// obsObjectCap labeled series regardless of -objects.
				fmt.Fprintf(w, "# TYPE selfstabsnap_object_max_ts gauge\n")
				for o := 0; o < nd.Objects() && o < obsObjectCap; o++ {
					var maxTS int64
					for _, r := range registers(o) {
						if r.TS > maxTS {
							maxTS = r.TS
						}
					}
					fmt.Fprintf(w, "selfstabsnap_object_max_ts{obj=\"%d\"} %d\n", o, maxTS)
				}
			}
		})
		srv.SetStatus(func() any {
			var perObject []objStatus
			if nd.Objects() > 1 {
				// Bounded like the Prometheus series: the first obsObjectCap
				// objects in full, the count telling the rest of the story.
				for o := 0; o < nd.Objects() && o < obsObjectCap; o++ {
					perObject = append(perObject, objStatus{Obj: o, Registers: registers(o)})
				}
			}
			return struct {
				ID          int                `json:"id"`
				Addr        string             `json:"addr"`
				Algorithm   string             `json:"algorithm"`
				N           int                `json:"n"`
				Objects     int                `json:"objects"`
				LoopCount   int64              `json:"loop_count"` // full iterations only
				LoopKicks   int64              `json:"loop_kicks_total"`
				OnDemand    int64              `json:"loop_on_demand_iterations_total"`
				LastTick    time.Time          `json:"last_tick"`
				Delta       int64              `json:"delta"` // -1 when the algorithm has none
				Registers   []regSummary       `json:"registers"`
				PerObject   []objStatus        `json:"per_object,omitempty"`      // capped at obsObjectCap entries
				LocalInv    []int              `json:"local_invariant,omitempty"` // per object, capped at obsObjectCap
				EventCounts map[string]int64   `json:"event_counts"`
				Recent      []obs.JournalEvent `json:"recent_events"`
				WriteLat    string             `json:"write_latency"`
				SnapLat     string             `json:"snapshot_latency"`
				Traffic     string             `json:"traffic"`
			}{
				ID:          *id,
				Addr:        tr.Addr(),
				Algorithm:   strings.ToLower(*algName),
				N:           len(addrs),
				Objects:     nd.Objects(),
				LoopCount:   rt.LoopCount(),
				LoopKicks:   rt.LoopKicks(),
				OnDemand:    rt.OnDemandIterations(),
				LastTick:    rt.LastTick(),
				Delta:       deltaValue,
				Registers:   registers(0),
				PerObject:   perObject,
				LocalInv:    localInvariant(),
				EventCounts: journal.Counts(),
				Recent:      journal.Events(),
				WriteLat:    writeLat.Stats().String(),
				SnapLat:     snapLat.Stats().String(),
				Traffic:     tr.Counters().Snapshot().String(),
			}
		})
		if err := srv.Start(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "observability on http://%s (/metrics /statusz /debug/pprof/)\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
		}()
	}

	fmt.Fprintf(stdout, "node %d listening on %s (%s, %d peers)\n", *id, tr.Addr(), *algName, len(addrs))

	var writeTick, snapTick <-chan time.Time
	if *write != "" {
		t := time.NewTicker(*interval)
		defer t.Stop()
		writeTick = t.C
	}
	if *snapEach > 0 {
		t := time.NewTicker(*snapEach)
		defer t.Stop()
		snapTick = t.C
	}

	// The periodic workload rotates over the hosted objects, so every
	// object sees traffic (and its own register advances on /statusz).
	seq, snapSeq := 0, 0
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintf(stdout, "\nshutting down; traffic:\n%s", tr.Counters().Snapshot())
			return nil
		case <-writeTick:
			seq++
			o := seq % nd.Objects()
			v := types.Value(fmt.Sprintf("%s-%d", *write, seq))
			start := time.Now()
			if err := nd.Object(o).Write(v); err != nil {
				fmt.Fprintf(stdout, "write %s obj %d: %v\n", v, o, err)
				continue
			}
			d := time.Since(start)
			writeLat.Record(d)
			fmt.Fprintf(stdout, "wrote %q to obj %d in %v\n", v, o, d.Round(time.Millisecond))
		case <-snapTick:
			snapSeq++
			o := snapSeq % nd.Objects()
			start := time.Now()
			snap, err := nd.Object(o).Snapshot()
			if err != nil {
				fmt.Fprintf(stdout, "snapshot obj %d: %v\n", o, err)
				continue
			}
			d := time.Since(start)
			snapLat.Record(d)
			fmt.Fprintf(stdout, "snapshot obj %d (%v): %s\n", o, d.Round(time.Millisecond), snap)
		}
	}
}
