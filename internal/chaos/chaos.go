// Package chaos drives randomized fault schedules against a live cluster
// while a concurrent workload runs, then verifies the recorded operation
// history against the snapshot-object linearizability checker. It is the
// repository's Jepsen-style validation layer: crashes, undetectable
// restarts, temporary minority partitions, delta-gossip ack-table
// corruption and (optionally) a one-shot transient fault, all from a
// single seed, all reproducible.
//
// A run executes in one of two time domains. In real time (the default)
// the schedule plays out against the wall clock. Under Config.Virtual the
// whole cluster — node do-forever loops, retransmission timers, network
// delivery, fault schedule and workload pacing — runs inside one
// simclock.Virtual machine: time advances only when every task is parked,
// jumping straight to the next deadline, so a 300ms schedule completes in
// milliseconds of wall time and every step of the execution is a
// deterministic function of the seed. Config.Hash then fingerprints the
// message trace and the operation history, which is how the campaign
// driver (RunCampaign) sweeps a thousand seeds in seconds and how the
// determinism tests assert byte-identical replay.
//
// Fault schedules are reified as data (FaultEvent, GenSchedule) rather
// than drawn online: a failing seed's schedule can be stored, replayed
// via Config.Schedule, and shrunk to a minimal failing subset with
// MinimizeSchedule.
//
// Soundness notes:
//
//   - at most ⌊(n−1)/2⌋ nodes are crashed or partitioned away at any
//     moment, so a connected live majority always exists and every
//     operation eventually completes (the paper's 2f < n requirement);
//   - operations issued by a node that is currently crashed or cut off
//     simply block until the schedule heals it — that is the model's
//     intended behaviour, not an error;
//   - a transient fault may corrupt recorded-history semantics (a
//     corrupted register can legitimately surface values no one wrote
//     during recovery — the paper only promises a legal *suffix*), so when
//     corruption is enabled the run quiesces, corrupts, waits for the
//     recovery invariants, and only then starts the checked history.
package chaos

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/bank"
	"selfstabsnap/internal/bounded"
	"selfstabsnap/internal/core"
	"selfstabsnap/internal/faults"
	"selfstabsnap/internal/history"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
)

// settleWindow is the quiet tail of a bounded-reset run: long enough for a
// reset in flight at workload stop to freeze, decide and commit (a few
// wrap-gossip rounds at the 1ms loop interval), and for every healed
// laggard's first gossip to draw a decide replay. Fixed, so virtual runs
// stay deterministic.
const settleWindow = 60 * time.Millisecond

// Config parameterises a chaos run.
type Config struct {
	// Cluster shape.
	N         int
	Algorithm core.Algorithm
	Delta     int64
	Seed      int64
	Adversary netsim.Adversary

	// Objects is the number of snapshot objects every node hosts over its
	// one shared transport (default 1). With several objects the workload
	// workers spread operations across them with a hot-object skew (half
	// the traffic hits object 0) and each object's history is recorded and
	// checked independently — objects share nothing but the transport, so
	// cross-object linearizability is not a defined notion. Result hashes
	// fold the object id, and the single-object configuration hashes
	// exactly as it did before multi-object hosting existed.
	Objects int

	// Duration of the checked workload phase.
	Duration time.Duration

	// Fault schedule. Rates are mean events per second (Poisson-ish via
	// the seeded schedule draws); zero disables the fault class.
	CrashRate      float64 // crash + later resume, ≤ f nodes down at once
	PartitionRate  float64 // cut a minority node off, heal shortly after
	AckCorruptRate float64 // trash a node's delta-gossip ack table (soft state)
	Corrupt        bool    // one transient fault before the checked phase

	// Hostile-topology nemeses. WAN, when non-nil, replaces the uniform
	// Adversary with an asymmetric per-directed-link latency/loss matrix
	// built deterministically from Seed (links the matrix does not cover
	// fall back to Adversary). Flapping adds a periodic cut/heal partition
	// train; SlowNodeRate inflates one node's links by SlowNodeFactor
	// (default 8) for a bounded window without ever counting the node as
	// crashed; SkewedRestartRate crashes a node and later performs a
	// detectable restart whose recovery merge lags by a bounded
	// virtual-clock skew, at most MaxSkew (0 = network-flush window +
	// 10ms). GenSchedule rejects — never clamps — configurations outside
	// the legal envelope.
	WAN               *faults.WANSpec
	Flapping          *FlappingSpec
	SlowNodeRate      float64
	SlowNodeFactor    float64
	SkewedRestartRate float64
	MaxSkew           time.Duration

	// Bank, when non-nil, replaces the generic workload with the
	// checkpoint/restore bank: every node journals bitcake transfers into
	// its register, checkpoints via snapshots, and restores from the
	// latest checkpoint after a detectable (skewed) restart. The recorded
	// history is additionally checked for checkpoint consistency — every
	// snapshot must decode to a conserving cut (bank.CheckOps). Requires
	// Objects == 1 and is incompatible with Corrupt (a transient fault
	// may legally fabricate non-bank register contents).
	Bank *BankSpec

	// MaxInt, for the bounded algorithms, lowers the overflow threshold so
	// runs actually wrap and exercise the consensus-based global reset (0
	// keeps the production default, which a short run never reaches). A
	// MaxInt run finishes with a settle phase — faults heal, then a quiet
	// window lets decide-replays land — after which any node still
	// mid-reset is a consensus-stabilization violation. Its history is
	// checked with epoch-aware comparability: a reset collapses operation
	// indices, so snapshot vectors are only comparable within one epoch.
	// The aggregated consensus event stream is additionally checked for
	// agreement and validity (history.CheckConsensusEvents).
	MaxInt int64
	// AbortDuringReset forwards to the bounded wrapper: operations invoked
	// during a reset abort with node.ErrAborted instead of deferring.
	AbortDuringReset bool
	// PinCrash crashes node 0 for the entire checked phase — the
	// former-coordinator mix: node 0 is the most leader-preferred id of
	// the rotating-ballot consensus, so pinning it down proves any other
	// node's overflow trigger still drives a reset to commitment. Node 0
	// counts as permanently down in the schedule's ≤f occupancy guard and
	// no rated fault ever targets it.
	PinCrash bool

	// Schedule, when non-nil, replaces the generated fault schedule —
	// used to replay a stored schedule or test a minimized one. An empty
	// (but non-nil) slice means "no faults", whereas nil means "derive
	// from Seed and the rates via GenSchedule".
	Schedule []FaultEvent

	// Workload: each node alternates writes and snapshots with a random
	// think time in [0, MaxThink].
	MaxThink time.Duration

	// Virtual runs the whole cluster on a deterministic virtual clock:
	// no wall-clock sleeping, and the execution is a pure function of
	// the seed and schedule.
	Virtual bool

	// StatsEvery, with OnStats, emits periodic progress callbacks on the
	// run's clock (so under Virtual they tick in virtual time). Zero, or a
	// nil OnStats, disables the reporter entirely: no extra timer joins
	// the machine and deterministic trace hashes are unaffected.
	StatsEvery time.Duration
	OnStats    func(Stats)

	// Hash computes Result.TraceHash and Result.HistoryHash. Only
	// meaningful under Virtual, where event order is deterministic.
	Hash bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if cfg.MaxThink <= 0 {
		cfg.MaxThink = 2 * time.Millisecond
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 1
	}
	if cfg.SlowNodeFactor == 0 {
		cfg.SlowNodeFactor = 8
	}
	return cfg
}

// Stats is one periodic progress report of a running chaos schedule.
type Stats struct {
	Elapsed     time.Duration // time since the checked phase began, on the run's clock
	Writes      int64
	Snapshots   int64
	Crashes     int64
	Partitions  int64
	AckCorrupts int64
	Flaps       int64
	SlowNodes   int64
	Restarts    int64 // detectable (skewed) restarts completed
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("t=%v writes=%d snapshots=%d crashes=%d partitions=%d ackcorrupts=%d flaps=%d slow=%d restarts=%d",
		s.Elapsed, s.Writes, s.Snapshots, s.Crashes, s.Partitions, s.AckCorrupts, s.Flaps, s.SlowNodes, s.Restarts)
}

// Result summarises a chaos run.
type Result struct {
	Writes      int64
	Snapshots   int64
	Crashes     int64
	Resumes     int64
	Partitions  int64
	AckCorrupts int64
	Flaps       int64
	SlowNodes   int64
	Restarts    int64 // detectable (skewed) restarts completed
	Restores    int64 // bank checkpoints restored after a restart
	RecoveryCyc int64 // cycles to invariant after the transient fault (if any)
	Resets      int64 // bounded-counter global resets committed, summed over nodes
	Violation   *history.Violation

	// Schedule is the fault schedule the run executed (given or generated),
	// so a failing run can be stored, replayed and minimized.
	Schedule []FaultEvent

	// TraceHash and HistoryHash fingerprint the message-level execution and
	// the operation history when Config.Hash is set: two virtual runs of
	// the same seed must agree on both.
	TraceHash   uint64
	HistoryHash uint64
}

// String renders the result on one line.
func (r Result) String() string {
	lin := "linearizable"
	if r.Violation != nil {
		lin = r.Violation.Error()
	}
	return fmt.Sprintf("writes=%d snapshots=%d crashes=%d resumes=%d partitions=%d ackcorrupts=%d flaps=%d slow=%d restarts=%d restores=%d resets=%d recovery=%d cycles → %s",
		r.Writes, r.Snapshots, r.Crashes, r.Resumes, r.Partitions, r.AckCorrupts, r.Flaps, r.SlowNodes, r.Restarts, r.Restores, r.Resets, r.RecoveryCyc, lin)
}

// Run executes one chaos schedule. It returns an error only for setup
// failures; protocol misbehaviour surfaces as Result.Violation.
func Run(cfg Config) (Result, error) {
	if cfg.N < 3 {
		return Result{}, fmt.Errorf("chaos: need N ≥ 3")
	}
	cfg = cfg.withDefaults()
	if cfg.Bank != nil {
		switch {
		case cfg.Corrupt:
			return Result{}, fmt.Errorf("%w: incompatible with transient corruption (a corrupted register may legally hold non-bank contents)", ErrBankSpec)
		case cfg.Objects != 1:
			return Result{}, fmt.Errorf("%w: requires exactly one object, got %d", ErrBankSpec, cfg.Objects)
		case cfg.Bank.Initial < 0 || cfg.Bank.CheckpointEvery < 0:
			return Result{}, fmt.Errorf("%w: negative Initial or CheckpointEvery", ErrBankSpec)
		}
	}
	if cfg.WAN != nil {
		if err := cfg.WAN.Validate(cfg.N); err != nil {
			return Result{}, err
		}
	}
	if cfg.Schedule == nil {
		sched, err := GenSchedule(cfg)
		if err != nil {
			return Result{}, err
		}
		cfg.Schedule = sched
	}
	if !cfg.Virtual {
		return run(cfg, simclock.Real())
	}
	v := simclock.NewVirtual()
	var res Result
	var err error
	v.Run("chaos-root", func() { res, err = run(cfg, v) })
	return res, err
}

// run is the body of a chaos run; under Config.Virtual it executes as the
// root task of a fresh virtual machine, so every blocking call parks a
// scheduler task instead of an OS thread.
func run(cfg Config, clk simclock.Clock) (Result, error) {
	res := Result{Schedule: cfg.Schedule}

	var hasher *traceHasher
	var hook netsim.TraceHook
	if cfg.Hash {
		hasher = newTraceHasher()
		hook = hasher
	}
	var links netsim.LinkMatrix
	if cfg.WAN != nil {
		links = cfg.WAN.Matrix(cfg.N, cfg.Seed)
	}
	cluster, err := core.NewCluster(core.Config{
		N: cfg.N, Algorithm: cfg.Algorithm, Delta: cfg.Delta, Seed: cfg.Seed,
		Adversary:        cfg.Adversary,
		Links:            links,
		Objects:          cfg.Objects,
		LoopInterval:     time.Millisecond,
		RetxInterval:     3 * time.Millisecond,
		MaxInt:           cfg.MaxInt,
		AbortDuringReset: cfg.AbortDuringReset,
		Trace:            hook,
		Clock:            clk,
	})
	if err != nil {
		return res, err
	}
	closed := false
	closeCluster := func() {
		if !closed {
			closed = true
			cluster.Close()
		}
	}
	defer closeCluster()

	// Optional transient fault, applied before the checked phase begins.
	if cfg.Corrupt {
		// Seed some state first so corruption has something to destroy.
		for i := 0; i < cfg.N; i++ {
			for o := 0; o < cfg.Objects; o++ {
				if err := cluster.WriteObject(i, o, types.Value(fmt.Sprintf("seed%d", i))); err != nil {
					return res, err
				}
			}
		}
		if err := cluster.CorruptAll(); err != nil {
			return res, err
		}
		cyc, err := cluster.CyclesToInvariant(20 * time.Second)
		if err != nil {
			return res, fmt.Errorf("chaos: recovery never completed: %w", err)
		}
		res.RecoveryCyc = cyc
		// One write per node establishes a sane post-recovery baseline:
		// every register now holds a value the checked history knows about.
		// (Recovered registers may retain arbitrary corrupted contents —
		// the paper's safety guarantees are about the legal suffix.)
		for i := 0; i < cfg.N; i++ {
			for o := 0; o < cfg.Objects; o++ {
				if err := cluster.WriteObject(i, o, types.Value(fmt.Sprintf("base%d", i))); err != nil {
					return res, err
				}
			}
		}
	}

	// The former-coordinator mix: node 0 goes down before the checked
	// phase begins and stays down until the settle phase. Placed after the
	// corrupt-recovery baseline, which needs every node writable.
	if cfg.PinCrash {
		cluster.Crash(0)
	}

	// One recorder per object: objects are independent snapshot instances,
	// so each history is recorded and checked on its own.
	recs := make([]*history.Recorder, cfg.Objects)
	for o := range recs {
		recs[o] = history.NewRecorderClocked(clk)
	}
	// Content checking requires every invoked write to consume exactly one
	// algorithm timestamp, in invocation order. That holds for algorithms
	// that install the write synchronously at invocation (the non-blocking
	// family and the stacked baseline) even when the call later fails, and
	// for any algorithm when no crashes interrupt preemptible writes. It
	// does NOT hold after a transient fault (ts is arbitrary) nor when
	// crashes can interrupt Algorithm 2/3's deferred writes — those runs
	// fall back to the index-free checks (comparability + real time).
	// A skewed restart additionally resets the node's timestamp to the
	// merged peer maximum, so write indices and algorithm timestamps
	// diverge for every algorithm — those schedules always fall back.
	syncInstall := cfg.Algorithm == core.NonBlockingDG ||
		cfg.Algorithm == core.NonBlockingSS || cfg.Algorithm == core.StackedABD
	fullCheck := !cfg.Corrupt && (syncInstall || !scheduleHasCrash(cfg.Schedule)) &&
		!scheduleHas(cfg.Schedule, FaultSkewedRestart)

	// epochOf labels snapshots with the object's configuration epoch when
	// global resets can actually fire: cross-epoch vectors are incomparable
	// by design, so the checker partitions the history by epoch. Each
	// hosted object runs its own reset engine, hence the per-object lookup.
	var epochOf func(i, obj int) int64
	if cfg.MaxInt > 0 {
		epochOf = func(i, obj int) int64 {
			if nd, ok := cluster.ObjectAt(i, obj).(*bounded.Node); ok {
				return nd.Epoch()
			}
			return 0
		}
	}

	stop := clk.NewEvent()
	wg := clk.NewGroup()

	// Fault schedule driver: one task walks the flattened timeline. When
	// the run ends mid-schedule, pending heals for already-applied faults
	// fire immediately so no workload worker stays wedged behind a
	// partition that would never heal.
	var crashes, resumes, partitions, ackCorrupts atomic.Int64
	var flaps, slowNodes, restarts, restores atomic.Int64
	// restorePending[i] tells node i's bank worker a detectable restart
	// completed: discard in-memory state and restore from a checkpoint.
	restorePending := make([]atomic.Bool, cfg.N)
	acts := timeline(cfg.Schedule)
	start := clk.Now()
	wg.Add(1)
	clk.Go("chaos-faults", func() {
		defer wg.Done()
		applied := make([]bool, len(cfg.Schedule))
		apply := func(a action) {
			e := cfg.Schedule[a.ev]
			switch {
			case !a.heal:
				applied[a.ev] = true
				switch e.Kind {
				case FaultCrash:
					cluster.Crash(e.Node)
					crashes.Add(1)
				case FaultPartition:
					cluster.Network().Isolate(e.Node, true)
					partitions.Add(1)
				case FaultAckCorrupt:
					// Tolerated for algorithms without an ack table (the
					// error just means there is nothing to corrupt).
					if cluster.CorruptAckTable(e.Node) == nil {
						ackCorrupts.Add(1)
					}
				case FaultFlap:
					cluster.Network().Isolate(e.Node, true)
					flaps.Add(1)
				case FaultSlowNode:
					cluster.Network().SetNodeSlowdown(e.Node, cfg.SlowNodeFactor)
					slowNodes.Add(1)
				case FaultSkewedRestart:
					cluster.Crash(e.Node)
					crashes.Add(1)
				}
			case applied[a.ev]:
				switch e.Kind {
				case FaultCrash:
					cluster.Resume(e.Node)
					resumes.Add(1)
				case FaultPartition:
					cluster.Network().Isolate(e.Node, false)
				case FaultAckCorrupt:
					// Nothing to heal: the staleness window flushes the
					// corrupted entries on its own.
				case FaultFlap:
					cluster.Network().Isolate(e.Node, false)
				case FaultSlowNode:
					cluster.Network().SetNodeSlowdown(e.Node, 1)
				case FaultSkewedRestart:
					// Detectable restart with recovery merge. The whole
					// crash→drain→reset→merge→resume sequence runs without
					// yielding the virtual-clock token, so it is atomic in
					// virtual time. Algorithms without recovery hooks
					// degrade to a plain resume (undetectable restart).
					if cluster.SkewedRestart(e.Node) == nil {
						restarts.Add(1)
						restorePending[e.Node].Store(true)
					} else {
						cluster.Resume(e.Node)
					}
					resumes.Add(1)
				}
			}
		}
		for i, a := range acts {
			for {
				wait := a.at - clk.Since(start)
				if wait <= 0 {
					break
				}
				tm := clk.NewTimer(wait)
				stopped := clk.Wait(stop, tm) == 0
				tm.Stop()
				if stopped {
					for _, rest := range acts[i:] {
						if rest.heal {
							apply(rest)
						}
					}
					return
				}
			}
			apply(a)
		}
	})

	// Workload: one worker per node — the generic write/snapshot mix, or
	// the checkpoint/restore bank when Config.Bank is set.
	var writes, snaps atomic.Int64
	for i := 0; i < cfg.N; i++ {
		i := i
		wg.Add(1)
		if cfg.Bank != nil {
			clk.Go(fmt.Sprintf("chaos-bank%d", i), func() {
				defer wg.Done()
				bankWorker(cfg, clk, cluster, recs[0], stop, i,
					&restorePending[i], &writes, &snaps, &restores)
			})
			continue
		}
		clk.Go(fmt.Sprintf("chaos-worker%d", i), func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(i)*31))
			for j := 0; !stop.Fired(); j++ {
				// Object choice: single-object runs draw nothing extra, so
				// their rng stream — and thus their hashes — are unchanged
				// from before multi-object hosting. Multi-object runs skew
				// hot: half the operations hit object 0, the rest spread
				// uniformly over the cold objects.
				obj := 0
				if cfg.Objects > 1 && r.Intn(2) == 1 {
					obj = 1 + r.Intn(cfg.Objects-1)
				}
				v := types.Value(fmt.Sprintf("c%d-%d", i, j))
				end := recs[obj].BeginWrite(i, v)
				if err := cluster.WriteObject(i, obj, v); err == nil {
					end()
					writes.Add(1)
				}
				if r.Intn(3) == 0 {
					if epochOf != nil {
						endS := recs[obj].BeginSnapshotTagged(i, epochOf(i, obj))
						if snap, err := cluster.SnapshotObject(i, obj); err == nil {
							endS(snap, epochOf(i, obj))
							snaps.Add(1)
						}
					} else {
						endS := recs[obj].BeginSnapshot(i)
						if snap, err := cluster.SnapshotObject(i, obj); err == nil {
							endS(snap)
							snaps.Add(1)
						}
					}
				}
				if think := cfg.MaxThink; think > 0 {
					clk.Sleep(time.Duration(r.Int63n(int64(think))))
				}
			}
		})
	}

	// Optional periodic progress reporter, ticking on the run's clock so a
	// virtual run reports virtual elapsed time.
	if cfg.StatsEvery > 0 && cfg.OnStats != nil {
		wg.Add(1)
		clk.Go("chaos-stats", func() {
			defer wg.Done()
			tk := clk.NewTicker(cfg.StatsEvery)
			defer tk.Stop()
			for {
				if clk.Wait(stop, tk) == 0 {
					return
				}
				cfg.OnStats(Stats{
					Elapsed:     clk.Since(start),
					Writes:      writes.Load(),
					Snapshots:   snaps.Load(),
					Crashes:     crashes.Load(),
					Partitions:  partitions.Load(),
					AckCorrupts: ackCorrupts.Load(),
					Flaps:       flaps.Load(),
					SlowNodes:   slowNodes.Load(),
					Restarts:    restarts.Load(),
				})
			}
		})
	}

	clk.Sleep(cfg.Duration)
	stop.Fire()
	wg.Wait()
	for i := 0; i < cfg.N; i++ {
		cluster.Network().Isolate(i, false)
		cluster.Network().SetNodeSlowdown(i, 1)
		cluster.Resume(i)
	}

	// Settle phase for bounded-reset runs: with every fault healed and the
	// pinned node resumed, a quiet window lets in-progress resets commit
	// and laggards catch up via decide replay (their periodic gossip,
	// stamped with the stale epoch, draws the replay from any peer). An
	// engine still mid-reset afterwards has failed to stabilize.
	stuck := make([][]int, cfg.Objects)
	if cfg.MaxInt > 0 {
		clk.Sleep(settleWindow)
		for i := 0; i < cfg.N; i++ {
			for o := 0; o < cfg.Objects; o++ {
				if nd, ok := cluster.ObjectAt(i, o).(*bounded.Node); ok && nd.ResetActive() {
					stuck[o] = append(stuck[o], i)
				}
			}
		}
	}

	res.Writes = writes.Load()
	res.Snapshots = snaps.Load()
	res.Crashes = crashes.Load()
	res.Resumes = resumes.Load()
	res.Partitions = partitions.Load()
	res.AckCorrupts = ackCorrupts.Load()
	res.Flaps = flaps.Load()
	res.SlowNodes = slowNodes.Load()
	res.Restarts = restarts.Load()
	res.Restores = restores.Load()

	// Each object's history is checked independently — the first violating
	// object reports. Cross-object ordering is deliberately unchecked:
	// distinct objects are distinct linearizable registers vectors.
	for _, rec := range recs {
		var v *history.Violation
		switch {
		case cfg.MaxInt > 0:
			v = checkComparabilityPerEpoch(rec)
		case fullCheck:
			v = rec.Check()
		default:
			v = checkComparabilityOnly(rec)
		}
		if v != nil {
			res.Violation = v
			break
		}
	}
	// Bounded-reset runs additionally verify the consensus invariants,
	// per hosted object (each object runs its own reset engine and epoch
	// sequence) over the cluster-wide event stream — crashed nodes' buffers
	// included, since their in-memory records survive the crash.
	if cfg.MaxInt > 0 {
		for o := 0; o < cfg.Objects; o++ {
			var evs []history.ConsensusEvent
			for i := 0; i < cfg.N; i++ {
				nd, ok := cluster.ObjectAt(i, o).(*bounded.Node)
				if !ok {
					continue
				}
				res.Resets += nd.Resets()
				for _, e := range nd.ConsensusEvents() {
					evs = append(evs, history.ConsensusEvent{
						Node: e.Node, Kind: e.Kind, Epoch: e.Epoch, Digest: e.Digest,
					})
				}
			}
			if v := history.CheckConsensusEvents(evs, stuck[o]); v != nil && res.Violation == nil {
				res.Violation = v
			}
		}
	}
	// The bank adds its application-level invariant on top: every snapshot
	// in the history must decode to a conserving consistent cut.
	if res.Violation == nil && cfg.Bank != nil {
		res.Violation = bank.CheckOps(recs[0].Ops(), cfg.N, cfg.Bank.withDefaults().Initial)
	}

	// Hash only once the cluster is fully shut down, so the trace digest
	// covers the complete (and, under the virtual clock, deterministic)
	// message sequence.
	closeCluster()
	if cfg.Hash {
		res.TraceHash = hasher.Sum()
		res.HistoryHash = historyHashObjects(recs)
	}
	return res, nil
}

// scheduleHasCrash reports whether an explicit schedule contains a crash
// (including the crash phase of a skewed restart) — replayed schedules must
// pick the same checker the generating run used.
func scheduleHasCrash(evs []FaultEvent) bool {
	return scheduleHas(evs, FaultCrash) || scheduleHas(evs, FaultSkewedRestart)
}

// scheduleHas reports whether the schedule contains an event of kind k.
func scheduleHas(evs []FaultEvent, k FaultKind) bool {
	for _, e := range evs {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// checkComparabilityOnly verifies rules 2–3 of the checker (pairwise
// comparability and real-time monotonicity of snapshots), which remain
// sound even when write indices do not start from a clean baseline.
func checkComparabilityOnly(rec *history.Recorder) *history.Violation {
	var snaps []*history.Op
	for _, op := range rec.Ops() {
		if op.Kind == history.KindSnapshot && op.Returned {
			snaps = append(snaps, op)
		}
	}
	return checkSnapshotOrder(snaps)
}

// checkComparabilityPerEpoch is checkComparabilityOnly partitioned by the
// epoch tag: a global reset collapses every operation index, so vectors
// from different epochs are incomparable by design and only snapshots
// executed entirely within one epoch are mutually constrained. Ops tagged
// −1 straddled a reset and are excluded — the §5 transformation explicitly
// permits disturbing the bounded number of operations a reset overlaps.
func checkComparabilityPerEpoch(rec *history.Recorder) *history.Violation {
	byEpoch := map[int64][]*history.Op{}
	for _, op := range rec.Ops() {
		if op.Kind == history.KindSnapshot && op.Returned && op.Tag >= 0 {
			byEpoch[op.Tag] = append(byEpoch[op.Tag], op)
		}
	}
	for _, snaps := range byEpoch {
		if v := checkSnapshotOrder(snaps); v != nil {
			return v
		}
	}
	return nil
}

// checkSnapshotOrder runs the pairwise-comparability and real-time rules
// over one set of returned snapshots.
func checkSnapshotOrder(snaps []*history.Op) *history.Violation {
	for i := 0; i < len(snaps); i++ {
		for j := i + 1; j < len(snaps); j++ {
			vi, vj := snaps[i].Snapshot.VC(), snaps[j].Snapshot.VC()
			if !vi.LessEq(vj) && !vj.LessEq(vi) {
				return &history.Violation{
					Rule:   "comparability",
					Detail: fmt.Sprintf("%v vs %v", vi, vj),
				}
			}
		}
	}
	for i := range snaps {
		for j := range snaps {
			if i == j || !snaps[i].Return.Before(snaps[j].Invoke) {
				continue
			}
			vi, vj := snaps[i].Snapshot.VC(), snaps[j].Snapshot.VC()
			if !vi.LessEq(vj) {
				return &history.Violation{
					Rule:   "snapshot-realtime",
					Detail: fmt.Sprintf("%v returned before %v was invoked", vi, vj),
				}
			}
		}
	}
	return nil
}
