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
// address — see docs/OBSERVABILITY.md. Stop with Ctrl-C.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
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

func main() {
	var (
		id       = flag.Int("id", 0, "this node's id (index into -peers)")
		peers    = flag.String("peers", "", "comma-separated host:port list, one per node")
		algName  = flag.String("alg", "ss-nonblocking", "ss-nonblocking or ss-delta")
		delta    = flag.Int64("delta", 4, "δ for ss-delta")
		adaptive = flag.Bool("adaptive-delta", false, "auto-tune δ from live write/snapshot latency (ss-delta only)")
		tuneEach = flag.Duration("tune-every", 5*time.Second, "adaptive-δ observation period")
		write    = flag.String("write", "", "value prefix to write periodically (empty = don't write)")
		interval = flag.Duration("interval", time.Second, "write period")
		snapEach = flag.Duration("snapshot-every", 5*time.Second, "snapshot period (0 = never)")
		inboxCap = flag.Int("inbox", 0, "bounded inbox capacity, drop-oldest on overflow (0 = default 4096)")
		shards   = flag.Int("shards", 1, "parallel dispatch shards per node (1 = classic single dispatcher)")
		objects  = flag.Int("objects", 1, "snapshot objects hosted on this node, multiplexed over one transport and one dispatcher")
		obsAddr  = flag.String("obs", "", "observability HTTP address for /metrics, /statusz and pprof (empty = disabled)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if len(addrs) < 3 {
		fmt.Fprintln(os.Stderr, "need at least 3 peers (2f < n)")
		os.Exit(2)
	}
	tr, err := tcpnet.NewWithOptions(*id, addrs, tcpnet.Options{InboxCap: *inboxCap})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tr.Close()

	journal := obs.NewJournal(0)
	opts := node.Options{
		LoopInterval:   50 * time.Millisecond,
		RetxInterval:   200 * time.Millisecond,
		Journal:        journal,
		DispatchShards: *shards,
	}

	if *objects < 1 || *objects > node.MaxObjects {
		fmt.Fprintf(os.Stderr, "-objects must be in [1, %d]\n", node.MaxObjects)
		os.Exit(2)
	}

	type snapObj interface {
		Write(types.Value) error
		Snapshot() (types.RegVector, error)
		Start()
		Close()
		Runtime() *node.Runtime
		StateSummary() kernel.View
	}

	// Object 0 builds the host runtime; the rest attach to it, multiplexing
	// every object over the one transport and dispatcher. Start is deferred
	// until the whole table is attached (idempotent across instances).
	objs := make([]snapObj, *objects)
	var deltaNode *deltasnap.Node // object 0's δ node; the tuner targets it
	for o := 0; o < *objects; o++ {
		ropts := opts
		if o > 0 {
			ropts.Attach = objs[0].Runtime()
		}
		switch strings.ToLower(*algName) {
		case "ss-nonblocking":
			objs[o] = nonblocking.New(*id, tr, nonblocking.Config{SelfStabilizing: true, Runtime: ropts})
		case "ss-delta":
			nd := deltasnap.New(*id, tr, deltasnap.Config{Delta: *delta, Runtime: ropts})
			objs[o] = nd
			if o == 0 {
				deltaNode = nd
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
			os.Exit(2)
		}
	}
	for _, o := range objs {
		o.Start()
	}
	obj := objs[0]
	registers := func(o int) []regSummary { return summarize(objs[o].StateSummary().Reg) }
	defer obj.Close()

	var writeLat, snapLat metrics.LatencyRecorder

	// deltaValue reports the node's live δ (the tuner may move it), or -1
	// when the algorithm has no δ at all.
	deltaValue := func() int64 {
		if deltaNode == nil {
			return -1
		}
		return deltaNode.DeltaValue()
	}
	var tuner *deltasnap.Tuner
	if *adaptive {
		if deltaNode == nil {
			fmt.Fprintln(os.Stderr, "-adaptive-delta requires -alg ss-delta")
			os.Exit(2)
		}
		tuner = deltasnap.NewTuner(*delta, deltasnap.TunerConfig{})
	}

	if *obsAddr != "" {
		srv := obs.NewServer(*obsAddr)
		srv.AddCollector(func(w io.Writer) { tr.Counters().WritePrometheus(w) })
		srv.AddCollector(func(w io.Writer) {
			writeLat.Histogram().WritePrometheus(w, "selfstabsnap_write_latency_seconds")
			snapLat.Histogram().WritePrometheus(w, "selfstabsnap_snapshot_latency_seconds")
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_iterations_total counter\nselfstabsnap_loop_iterations_total %d\n",
				obj.Runtime().LoopCount())
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_kicks_total counter\nselfstabsnap_loop_kicks_total %d\n",
				obj.Runtime().LoopKicks())
			fmt.Fprintf(w, "# TYPE selfstabsnap_loop_on_demand_iterations_total counter\nselfstabsnap_loop_on_demand_iterations_total %d\n",
				obj.Runtime().OnDemandIterations())
			fmt.Fprintf(w, "# TYPE selfstabsnap_journal_events_total counter\nselfstabsnap_journal_events_total %d\n",
				journal.Total())
			if d := deltaValue(); d >= 0 {
				fmt.Fprintf(w, "# TYPE selfstabsnap_delta gauge\nselfstabsnap_delta %d\n", d)
			}
			if tuner != nil {
				fmt.Fprintf(w, "# TYPE selfstabsnap_delta_adjustments_total counter\nselfstabsnap_delta_adjustments_total %d\n",
					tuner.Adjustments())
			}
			if depths, ack := obj.Runtime().DispatchDepths(); depths != nil {
				fmt.Fprintf(w, "# TYPE selfstabsnap_dispatch_queue_depth gauge\n")
				for i, d := range depths {
					fmt.Fprintf(w, "selfstabsnap_dispatch_queue_depth{lane=\"shard%d\"} %d\n", i, d)
				}
				fmt.Fprintf(w, "selfstabsnap_dispatch_queue_depth{lane=\"ack\"} %d\n", ack)
			}
			fmt.Fprintf(w, "# TYPE selfstabsnap_objects_hosted gauge\nselfstabsnap_objects_hosted %d\n", len(objs))
			if len(objs) > 1 {
				// Per-object progress gauges, bounded cardinality: at most
				// obsObjectCap labeled series regardless of -objects.
				fmt.Fprintf(w, "# TYPE selfstabsnap_object_max_ts gauge\n")
				for o := 0; o < len(objs) && o < obsObjectCap; o++ {
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
			if len(objs) > 1 {
				// Bounded like the Prometheus series: the first obsObjectCap
				// objects in full, the count telling the rest of the story.
				for o := 0; o < len(objs) && o < obsObjectCap; o++ {
					perObject = append(perObject, objStatus{Obj: o, Registers: registers(o)})
				}
			}
			shardDepths, ackDepth := obj.Runtime().DispatchDepths()
			return struct {
				ID          int                `json:"id"`
				Addr        string             `json:"addr"`
				Algorithm   string             `json:"algorithm"`
				N           int                `json:"n"`
				Shards      int                `json:"dispatch_shards"`
				Objects     int                `json:"objects"`
				LoopCount   int64              `json:"loop_count"` // full iterations only
				LoopKicks   int64              `json:"loop_kicks_total"`
				OnDemand    int64              `json:"loop_on_demand_iterations_total"`
				LastTick    time.Time          `json:"last_tick"`
				Delta       int64              `json:"delta"` // live δ; -1 when the algorithm has none
				Registers   []regSummary       `json:"registers"`
				PerObject   []objStatus        `json:"per_object,omitempty"` // capped at obsObjectCap entries
				ShardDepths []int              `json:"shard_queue_depths,omitempty"`
				AckDepth    int                `json:"ack_queue_depth"`
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
				Shards:      obj.Runtime().DispatchShards(),
				Objects:     len(objs),
				LoopCount:   obj.Runtime().LoopCount(),
				LoopKicks:   obj.Runtime().LoopKicks(),
				OnDemand:    obj.Runtime().OnDemandIterations(),
				LastTick:    obj.Runtime().LastTick(),
				Delta:       deltaValue(),
				Registers:   registers(0),
				PerObject:   perObject,
				ShardDepths: shardDepths,
				AckDepth:    ackDepth,
				EventCounts: journal.Counts(),
				Recent:      journal.Events(),
				WriteLat:    writeLat.Stats().String(),
				SnapLat:     snapLat.Stats().String(),
				Traffic:     tr.Counters().Snapshot().String(),
			}
		})
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability on http://%s (/metrics /statusz /debug/pprof/)\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
		}()
	}

	fmt.Printf("node %d listening on %s (%s, %d peers)\n", *id, tr.Addr(), *algName, len(addrs))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

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
	var tuneTick <-chan time.Time
	if tuner != nil {
		t := time.NewTicker(*tuneEach)
		defer t.Stop()
		tuneTick = t.C
	}

	// The periodic workload rotates over the hosted objects, so every
	// object sees traffic (and its own register advances on /statusz).
	seq, snapSeq := 0, 0
	for {
		select {
		case <-stop:
			s := tr.Counters().Snapshot()
			fmt.Printf("\nshutting down; traffic:\n%s", s)
			return
		case <-writeTick:
			seq++
			o := seq % len(objs)
			v := types.Value(fmt.Sprintf("%s-%d", *write, seq))
			start := time.Now()
			if err := objs[o].Write(v); err != nil {
				fmt.Printf("write %s obj %d: %v\n", v, o, err)
				continue
			}
			d := time.Since(start)
			writeLat.Record(d)
			fmt.Printf("wrote %q to obj %d in %v\n", v, o, d.Round(time.Millisecond))
		case <-tuneTick:
			if d, changed := tuner.Observe(writeLat.Stats(), snapLat.Stats()); changed {
				deltaNode.SetDelta(d)
				fmt.Printf("adaptive δ → %d (adjustment #%d)\n", d, tuner.Adjustments())
			}
		case <-snapTick:
			snapSeq++
			o := snapSeq % len(objs)
			start := time.Now()
			snap, err := objs[o].Snapshot()
			if err != nil {
				fmt.Printf("snapshot obj %d: %v\n", o, err)
				continue
			}
			d := time.Since(start)
			snapLat.Record(d)
			fmt.Printf("snapshot obj %d (%v): %s\n", o, d.Round(time.Millisecond), snap)
		}
	}
}
