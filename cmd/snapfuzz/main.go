// Command snapfuzz soaks a snapshot-object cluster with randomized fault
// schedules (crash/resume churn, minority partitions, optional transient
// faults) under a concurrent workload, checking every run's operation
// history for linearizability — a command-line front end for the
// internal/chaos harness.
//
// Sequential mode runs seeds one at a time, printing each result:
//
//	snapfuzz -alg ss-delta -n 7 -runs 50 -duration 300ms -crash 15 -partition 10
//	snapfuzz -alg ss-nonblocking -corrupt -runs 20
//
// Campaign mode shards the seed range across parallel workers, with every
// run executed as a deterministic virtual-time simulation — thousands of
// seeds in well under a minute of wall clock — and delta-minimizes the
// fault schedule of every failure:
//
//	snapfuzz -campaign -runs 1000 -corrupt -crash 15 -partition 10 -out failures.json
//
// Hostile-topology nemeses stack on top of either mode: an asymmetric WAN
// link matrix (-wan-matrix), flapping partitions (-flap), slow-but-alive
// nodes (-slow-node), skewed detectable restarts (-skewed-restart), and the
// checkpoint/restore bank workload (-bank) with its cut-consistency
// invariant:
//
//	snapfuzz -campaign -runs 500 -alg ss-delta -crash 4 -partition 3 \
//	    -wan-matrix 3 -wan-cross 1ms -flap 2 -flap-period 150ms -flap-duty 0.1 \
//	    -slow-node 4 -slow-factor 4 -skewed-restart 8 -bank -out failures.json
//
// Exit status 1 on any violation. In sequential mode the failing seed is
// printed so the run can be replayed exactly (-seed N -runs 1 -virtual);
// in campaign mode every failure — seed, violation, full and minimized
// schedule — is also written as JSON to -out for CI artifact upload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"selfstabsnap/internal/chaos"
	"selfstabsnap/internal/core"
	"selfstabsnap/internal/faults"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/obs"
)

// errUsage marks a bad command line; main exits with status 2 on it.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills a stuck run
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and fuzzes until the runs are done, the first violation
// or, in sequential mode, ctx is done (checked between seeds).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapfuzz", flag.ContinueOnError)
	var (
		algName   = fs.String("alg", "ss-nonblocking", "algorithm under test: "+strings.Join(core.AlgorithmNames(), ", "))
		n         = fs.Int("n", 5, "cluster size")
		delta     = fs.Int64("delta", 2, "δ for ss-delta")
		runs      = fs.Int("runs", 20, "number of seeded runs")
		seed      = fs.Int64("seed", 1, "first seed (seeds run seed..seed+runs-1)")
		duration  = fs.Duration("duration", 250*time.Millisecond, "workload duration per run")
		crash     = fs.Float64("crash", 15, "crash events per second (0 = none)")
		partition = fs.Float64("partition", 0, "partition events per second (0 = none)")
		ackCorr   = fs.Float64("ack-corrupt", 0, "delta-gossip ack-table corruptions per second (0 = none)")
		corrupt   = fs.Bool("corrupt", false, "inject a transient fault before each run")
		drop      = fs.Float64("drop", 0.05, "packet drop probability")
		dup       = fs.Float64("dup", 0.05, "packet duplication probability")
		virtual   = fs.Bool("virtual", false, "run on the deterministic virtual clock (no wall-clock sleeping)")
		wanMatrix = fs.Int("wan-matrix", 0, "asymmetric WAN link matrix with this many latency regions (0 = uniform network)")
		wanCross  = fs.Duration("wan-cross", time.Millisecond, "WAN matrix: cross-region delay bound")
		wanDrop   = fs.Float64("wan-drop", 0.05, "WAN matrix: cross-region drop probability")
		flap      = fs.Int("flap", 0, "flapping partitions: nodes on the periodic cut/heal train (0 = none)")
		flapPer   = fs.Duration("flap-period", 0, "flapping partitions: pulse period (0 = default)")
		flapDuty  = fs.Float64("flap-duty", 0, "flapping partitions: fraction of each period spent cut (0 = default)")
		slowNode  = fs.Float64("slow-node", 0, "slow-but-alive windows per second (0 = none)")
		slowFact  = fs.Float64("slow-factor", 0, "delay inflation while a node is slowed (0 = default)")
		skewedRst = fs.Float64("skewed-restart", 0, "detectable restarts with recovery per second (0 = none)")
		maxSkew   = fs.Duration("max-skew", 0, "skewed restarts: restart-window bound (0 = adaptive default)")
		bankLoad  = fs.Bool("bank", false, "drive the checkpoint/restore bank workload instead of the generic one")
		maxInt    = fs.Int64("max-int", 0, "bounded algorithms: overflow threshold MAXINT (0 = practically unbounded; >0 makes global resets fire)")
		pinCrash  = fs.Bool("pin-crash", false, "crash node 0 for the whole checked phase (coordinator-crash mix for reset campaigns)")
		abortRst  = fs.Bool("abort-reset", false, "abort in-flight ops when a reset commits instead of deferring them")
		campaign  = fs.Bool("campaign", false, "campaign mode: shard seeds across workers, virtual time, minimize failures")
		workers   = fs.Int("workers", 0, "campaign parallelism (0 = GOMAXPROCS)")
		out       = fs.String("out", "", "campaign mode: write failures (seed + minimized schedule) as JSON to this file")
		obsAddr   = fs.String("obs", "", "observability HTTP address for fuzz progress and pprof (empty = disabled)")
		statsEach = fs.Duration("stats-every", 0, "sequential mode: print in-run progress every interval of the run's clock (0 = off)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *corrupt && !alg.SelfStabilizing() {
		return fmt.Errorf("%w: -corrupt requires a self-stabilizing algorithm", errUsage)
	}

	base := chaos.Config{
		N: *n, Algorithm: alg, Delta: *delta,
		Adversary: netsim.Adversary{DropProb: *drop, DupProb: *dup, MaxDelay: 2 * time.Millisecond},
		Duration:  *duration,
		CrashRate: *crash, PartitionRate: *partition, AckCorruptRate: *ackCorr,
		Corrupt:           *corrupt,
		Virtual:           *virtual,
		SlowNodeRate:      *slowNode,
		SlowNodeFactor:    *slowFact,
		SkewedRestartRate: *skewedRst,
		MaxSkew:           *maxSkew,
		MaxInt:            *maxInt,
		PinCrash:          *pinCrash,
		AbortDuringReset:  *abortRst,
	}
	if *maxInt > 0 && !alg.Bounded() {
		return fmt.Errorf("%w: -max-int requires a bounded algorithm (ss-bounded, ss-bounded-delta)", errUsage)
	}
	if *wanMatrix > 0 {
		base.WAN = &faults.WANSpec{Regions: *wanMatrix, Cross: *wanCross, DropProb: *wanDrop}
	}
	if *flap > 0 {
		base.Flapping = &chaos.FlappingSpec{Count: *flap, Period: *flapPer, Duty: *flapDuty}
	}
	if *bankLoad {
		base.Bank = &chaos.BankSpec{}
	}

	prog := newFuzzProgress(*runs)
	if *obsAddr != "" {
		srv := obs.NewServer(*obsAddr)
		srv.SetStatus(prog.status)
		if err := srv.Start(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "observability on http://%s (/metrics /statusz /debug/pprof/)\n\n", srv.Addr())
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort drain on exit
		}()
	}

	if *campaign {
		return runCampaign(base, *seed, *runs, *workers, *out, prog, stdout)
	}

	fmt.Fprintf(stdout, "fuzzing %s: n=%d runs=%d duration=%v crash=%.0f/s partition=%.0f/s ack-corrupt=%.0f/s corrupt=%v virtual=%v\n\n",
		alg, *n, *runs, *duration, *crash, *partition, *ackCorr, *corrupt, *virtual)

	start := time.Now()
	var totalOps int64
	for i := 0; i < *runs; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s := *seed + int64(i)
		cfg := base
		cfg.Seed = s
		if *statsEach > 0 {
			cfg.StatsEvery = *statsEach
			cfg.OnStats = func(st chaos.Stats) { fmt.Fprintf(stdout, "seed %-6d … %s\n", s, st) }
		}
		prog.startSeed(s)
		res, err := chaos.Run(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: setup error: %w", s, err)
		}
		fmt.Fprintf(stdout, "seed %-6d %s\n", s, res)
		totalOps += res.Writes + res.Snapshots
		prog.finishSeed(res, res.Violation != nil)
		if res.Violation != nil {
			return fmt.Errorf("VIOLATION at seed %d — replay with -seed %d -runs 1", s, s)
		}
	}
	fmt.Fprintf(stdout, "\n%d runs, %d operations, 0 violations in %v\n",
		*runs, totalOps, time.Since(start).Round(time.Millisecond))
	return nil
}

// fuzzProgress is the /statusz document of a fuzzing process, updated by
// both the sequential loop and the campaign progress callback.
type fuzzProgress struct {
	mu sync.Mutex
	v  struct {
		Started     time.Time `json:"started"`
		RunsTotal   int       `json:"runs_total"`
		RunsDone    int       `json:"runs_done"`
		CurrentSeed int64     `json:"current_seed"`
		Writes      int64     `json:"writes"`
		Snapshots   int64     `json:"snapshots"`
		Failures    int       `json:"failures"`
	}
}

func newFuzzProgress(total int) *fuzzProgress {
	p := &fuzzProgress{}
	p.v.Started = time.Now()
	p.v.RunsTotal = total
	return p
}

func (p *fuzzProgress) status() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.v
}

func (p *fuzzProgress) startSeed(s int64) {
	p.mu.Lock()
	p.v.CurrentSeed = s
	p.mu.Unlock()
}

func (p *fuzzProgress) finishSeed(res chaos.Result, failed bool) {
	p.mu.Lock()
	p.v.RunsDone++
	p.v.Writes += res.Writes
	p.v.Snapshots += res.Snapshots
	if failed {
		p.v.Failures++
	}
	p.mu.Unlock()
}

func (p *fuzzProgress) campaignTick(done, failures int) {
	p.mu.Lock()
	p.v.RunsDone = done
	p.v.Failures = failures
	p.mu.Unlock()
}

// campaignFailure is the JSON artifact shape for one failing seed.
type campaignFailure struct {
	Seed      int64              `json:"seed"`
	Error     string             `json:"error,omitempty"`
	Violation string             `json:"violation,omitempty"`
	Schedule  []chaos.FaultEvent `json:"schedule"`
	Minimized []chaos.FaultEvent `json:"minimized,omitempty"`
}

// runCampaign runs a campaign and, when a seed fails, writes the failure
// artifact to out and returns an error.
func runCampaign(base chaos.Config, fromSeed int64, runs, workers int, out string, prog *fuzzProgress, stdout io.Writer) error {
	fmt.Fprintf(stdout, "campaign %s: n=%d seeds=%d..%d duration=%v crash=%.0f/s partition=%.0f/s ack-corrupt=%.0f/s corrupt=%v\n\n",
		base.Algorithm, base.N, fromSeed, fromSeed+int64(runs)-1, base.Duration,
		base.CrashRate, base.PartitionRate, base.AckCorruptRate, base.Corrupt)

	start := time.Now()
	lastTick := 0
	res := chaos.RunCampaign(chaos.CampaignConfig{
		Base:     base,
		FromSeed: fromSeed,
		Seeds:    runs,
		Workers:  workers,
		Minimize: true,
		Progress: func(done, total, failures int) {
			prog.campaignTick(done, failures)
			// One line per ~5% so CI logs stay readable.
			if done*20/total > lastTick || done == total {
				lastTick = done * 20 / total
				fmt.Fprintf(stdout, "  %5d/%d seeds, %d failures, %v elapsed\n",
					done, total, failures, time.Since(start).Round(time.Millisecond))
			}
		},
	})

	fmt.Fprintf(stdout, "\n%d seeds, %d writes, %d snapshots, %d failures in %v\n",
		res.Seeds, res.Writes, res.Snapshots, len(res.Failures), time.Since(start).Round(time.Millisecond))

	if len(res.Failures) == 0 {
		return nil
	}
	artifacts := make([]campaignFailure, 0, len(res.Failures))
	for _, f := range res.Failures {
		a := campaignFailure{Seed: f.Seed, Schedule: f.Result.Schedule, Minimized: f.Minimized}
		if f.Err != nil {
			a.Error = f.Err.Error()
		}
		if f.Result.Violation != nil {
			a.Violation = f.Result.Violation.Error()
		}
		artifacts = append(artifacts, a)
		fmt.Fprintf(stdout, "FAIL seed %d: err=%v violation=%v schedule=%d events minimized=%d events\n",
			f.Seed, f.Err, f.Result.Violation, len(f.Result.Schedule), len(f.Minimized))
	}
	if out != "" {
		blob, err := json.MarshalIndent(artifacts, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("%d failing seeds; writing %s: %w", len(res.Failures), out, err)
		}
		fmt.Fprintf(stdout, "failure artifact written to %s\n", out)
	}
	return fmt.Errorf("%d failing seeds", len(res.Failures))
}
