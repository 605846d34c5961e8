// Package core is the public entry point of the library: it assembles a
// cluster of snapshot-object nodes running any of the algorithms in this
// repository over an in-memory adversarial network (or any other
// netsim.Transport), and exposes the operations, fault-injection controls
// and metrics that the examples, command-line tools and experiments use.
//
// Quickstart:
//
//	cluster, err := core.NewCluster(core.Config{N: 5, Algorithm: core.NonBlockingSS})
//	defer cluster.Close()
//	cluster.Write(0, types.Value("hello"))
//	snap, err := cluster.Snapshot(1)
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"selfstabsnap/internal/alwaysterm"
	"selfstabsnap/internal/bounded"
	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/stacked"
	"selfstabsnap/internal/types"
)

// Algorithm selects which snapshot-object protocol a cluster runs.
type Algorithm int

// The implemented protocols.
const (
	// NonBlockingDG is Delporte-Gallet et al.'s Algorithm 1: non-blocking,
	// crash-tolerant, NOT self-stabilizing (baseline).
	NonBlockingDG Algorithm = iota
	// NonBlockingSS is the paper's Algorithm 1: the self-stabilizing
	// non-blocking snapshot (gossip + index hygiene).
	NonBlockingSS
	// AlwaysTerminatingDG is Delporte-Gallet et al.'s Algorithm 2:
	// always-terminating via reliable broadcast, NOT self-stabilizing
	// (baseline).
	AlwaysTerminatingDG
	// DeltaSS is the paper's Algorithm 3: self-stabilizing,
	// always-terminating, with the δ latency/communication trade-off.
	DeltaSS
	// StackedABD is the stacked baseline from the paper's introduction:
	// Afek et al.'s double-collect snapshot over ABD registers
	// (~8n messages / 4 round trips per snapshot).
	StackedABD
	// BoundedSS is §5's bounded-counter variation of Algorithm 1: on index
	// overflow (Config.MaxInt) the cluster runs a consensus-based global
	// reset that collapses indices while preserving register values.
	BoundedSS
	// BoundedDeltaSS is §5's bounded-counter variation of Algorithm 3
	// (the section covers "Algorithms 1 and 3"): the same overflow
	// machinery wrapped around the δ-parameterised always-terminating
	// snapshot.
	BoundedDeltaSS
)

// String names the algorithm for tables and logs.
func (a Algorithm) String() string {
	switch a {
	case NonBlockingDG:
		return "DG-nonblocking"
	case NonBlockingSS:
		return "SS-nonblocking"
	case AlwaysTerminatingDG:
		return "DG-alwaysterm"
	case DeltaSS:
		return "SS-delta"
	case StackedABD:
		return "stacked-ABD"
	case BoundedSS:
		return "SS-bounded"
	case BoundedDeltaSS:
		return "SS-bounded-delta"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Bounded reports whether the algorithm carries the §5 bounded-counter
// wrapper, i.e. whether Config.MaxInt has any effect.
func (a Algorithm) Bounded() bool {
	return a == BoundedSS || a == BoundedDeltaSS
}

// SelfStabilizing reports whether the algorithm recovers from transient
// faults.
func (a Algorithm) SelfStabilizing() bool {
	switch a {
	case NonBlockingSS, DeltaSS, BoundedSS, BoundedDeltaSS:
		return true
	}
	return false
}

// Config describes a cluster.
type Config struct {
	// N is the number of nodes; must be ≥ 3 for crash tolerance (2f < n).
	N int
	// Algorithm selects the protocol (default NonBlockingSS).
	Algorithm Algorithm
	// Delta is Algorithm 3's δ parameter (ignored by other algorithms).
	Delta int64
	// FullGossip disables delta gossip on the self-stabilizing algorithms:
	// every tick sends the full per-peer gossip payload as in the paper's
	// listing, regardless of what the peer acknowledged. The zero value
	// (delta gossip on) suppresses sends the peer's fresh GOSSIPack
	// already dominates.
	FullGossip bool
	// AdaptiveDelta retunes Algorithm 3's δ continuously from the live
	// write/snapshot latency recorders (DeltaSS and BoundedDeltaSS only).
	// Off by default: deterministic experiments keep δ fixed.
	AdaptiveDelta bool
	// TuneInterval is the adaptive-δ observation period (default 50ms).
	TuneInterval time.Duration
	// Seed drives all adversarial and corruption randomness (default 1).
	Seed int64
	// Adversary configures packet loss/duplication/delay.
	Adversary netsim.Adversary
	// Links, when non-nil, assigns per-directed-link adversary profiles
	// (asymmetric WAN latency classes, bandwidth-shaped links); links it
	// does not cover fall back to Adversary. See netsim.LinkMatrix.
	Links netsim.LinkMatrix
	// LoopInterval and RetxInterval tune the node runtimes.
	LoopInterval time.Duration
	RetxInterval time.Duration
	// DispatchShards is the number of parallel dispatch workers per node
	// (default 1 = the classic single dispatcher; see node.Options).
	DispatchShards int
	// Objects is the number of independent snapshot objects each node
	// hosts, multiplexed over the one transport and dispatcher (default
	// 1 — the paper's configuration). Every object is a full instance of
	// the configured algorithm with its own registers, gossip state and
	// ack tables; the object-scoped API (WriteObject, SnapshotObject, …)
	// addresses them, and the unscoped API operates on object 0. Not
	// supported by the bounded-counter variants, whose epoch-fencing
	// transport wrapper is per node.
	Objects int
	// InboxCap bounds each node's channel capacity (default 4096).
	InboxCap int
	// MaxInt is BoundedSS's overflow threshold (default bounded.DefaultMaxInt).
	MaxInt int64
	// AbortDuringReset makes BoundedSS abort (rather than defer)
	// operations invoked during a global reset.
	AbortDuringReset bool
	// Trace, if non-nil, observes every send and delivery.
	Trace netsim.TraceHook
	// Clock drives every timer, latency measurement and blocking wait in
	// the cluster. nil means real time; pass a *simclock.Virtual (and call
	// cluster operations from its tasks) for deterministic simulation.
	Clock simclock.Clock
}

// Object is the snapshot-object interface every algorithm implements: the
// paper's write() and snapshot() operations.
type Object interface {
	// Write replaces the calling node's register with v.
	Write(v types.Value) error
	// Snapshot returns an atomic view of all n registers.
	Snapshot() (types.RegVector, error)
}

// instance is one hosted snapshot object at one node. The
// self-stabilizing ones — Algorithms 1 and 3, bare or under the §5
// wrapper — also provide bounded.Inner, the kernel-backed surface behind
// fault injection, invariant checks and restart recovery; the cluster finds
// it by type assertion, never by algorithm.
type instance interface {
	Object
	Start()
	Close()
	Runtime() *node.Runtime
}

// member is one node: the shared host runtime and its object instances
// (len 1 unless Config.Objects > 1).
type member struct {
	rt   *node.Runtime
	objs []instance
}

// Cluster is a running group of nodes implementing one snapshot object.
type Cluster struct {
	cfg     Config
	clk     simclock.Clock
	net     *netsim.Network
	members []member
	rng     *rand.Rand

	writeLat metrics.LatencyRecorder
	snapLat  metrics.LatencyRecorder

	tuner  *deltasnap.Tuner // nil unless AdaptiveDelta
	stopEv simclock.Event
	wg     *simclock.Group
}

// Errors returned by cluster construction and control.
var (
	ErrBadConfig      = errors.New("core: invalid configuration")
	ErrNotCorruptible = errors.New("core: algorithm is not self-stabilizing; no corruption hook")
	ErrTimeout        = errors.New("core: timed out")
	ErrUnknownNode    = errors.New("core: node id out of range")
	ErrUnknownObject  = errors.New("core: object id out of range")
	ErrUnknownAlg     = errors.New("core: unknown algorithm")
)

// NewCluster builds and starts a cluster per cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.N < 3 {
		return nil, fmt.Errorf("%w: need N ≥ 3, got %d", ErrBadConfig, cfg.N)
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 1
	}
	if cfg.Objects > node.MaxObjects {
		return nil, fmt.Errorf("%w: Objects %d exceeds node.MaxObjects %d", ErrBadConfig, cfg.Objects, node.MaxObjects)
	}
	if cfg.Objects > 1 && (cfg.Algorithm == BoundedSS || cfg.Algorithm == BoundedDeltaSS) {
		return nil, fmt.Errorf("%w: %s does not support multi-object hosting (its epoch-fencing transport wrapper is per node)", ErrBadConfig, cfg.Algorithm)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	clk := simclock.Or(cfg.Clock)
	net := netsim.New(netsim.Config{
		N:         cfg.N,
		Seed:      cfg.Seed,
		InboxCap:  cfg.InboxCap,
		Adversary: cfg.Adversary,
		Links:     cfg.Links,
		Trace:     cfg.Trace,
		Clock:     clk,
	})
	c := &Cluster{
		cfg: cfg, clk: clk, net: net, rng: rand.New(rand.NewSource(cfg.Seed + 1)),
		stopEv: clk.NewEvent(), wg: clk.NewGroup(),
	}
	ropts := node.Options{
		LoopInterval: cfg.LoopInterval, RetxInterval: cfg.RetxInterval,
		DispatchShards: cfg.DispatchShards, Clock: clk,
	}
	var deltaSetters []func(int64)
	for i := 0; i < cfg.N; i++ {
		m := member{objs: make([]instance, 0, cfg.Objects)}
		for o := 0; o < cfg.Objects; o++ {
			// Object 0 creates the host runtime; further objects attach to
			// it.
			ropt := ropts
			if o > 0 {
				ropt.Attach = m.rt
			}
			inst, setDelta, err := newInstance(cfg, i, net, ropt)
			if err != nil {
				net.Close()
				return nil, err
			}
			if o == 0 {
				m.rt = inst.Runtime()
			}
			m.objs = append(m.objs, inst)
			if setDelta != nil {
				deltaSetters = append(deltaSetters, setDelta)
			}
		}
		// Start only after the node's whole object table is registered:
		// the table is immutable once the dispatchers run.
		// node.Runtime.Start is idempotent, so starting each instance in
		// order launches the host exactly once.
		for _, inst := range m.objs {
			inst.Start()
		}
		c.members = append(c.members, m)
	}

	if cfg.AdaptiveDelta && len(deltaSetters) > 0 {
		c.tuner = deltasnap.NewTuner(cfg.Delta, deltasnap.TunerConfig{})
		interval := cfg.TuneInterval
		if interval <= 0 {
			interval = 50 * time.Millisecond
		}
		c.wg.Add(1)
		clk.Go("delta-tuner", func() {
			defer c.wg.Done()
			t := clk.NewTicker(interval)
			defer t.Stop()
			for {
				if clk.Wait(c.stopEv, t) == 0 {
					return
				}
				if d, changed := c.tuner.Observe(c.writeLat.Stats(), c.snapLat.Stats()); changed {
					for _, set := range deltaSetters {
						set(d)
					}
				}
			}
		})
	}
	return c, nil
}

// newInstance builds node i's instance of cfg.Algorithm without starting
// it, plus Algorithm 3's live δ setter (nil for the other algorithms).
func newInstance(cfg Config, i int, net netsim.Transport, ropt node.Options) (instance, func(int64), error) {
	bcfg := bounded.Config{MaxInt: cfg.MaxInt, AbortDuringReset: cfg.AbortDuringReset, FullGossip: cfg.FullGossip, Runtime: ropt}
	switch cfg.Algorithm {
	case NonBlockingDG:
		return nonblocking.New(i, net, nonblocking.Config{Runtime: ropt}), nil, nil
	case NonBlockingSS:
		return nonblocking.New(i, net, nonblocking.Config{SelfStabilizing: true, FullGossip: cfg.FullGossip, Runtime: ropt}), nil, nil
	case AlwaysTerminatingDG:
		return alwaysterm.New(i, net, alwaysterm.Config{Runtime: ropt}), nil, nil
	case DeltaSS:
		nd := deltasnap.New(i, net, deltasnap.Config{Delta: cfg.Delta, FullGossip: cfg.FullGossip, Runtime: ropt})
		return nd, nd.SetDelta, nil
	case StackedABD:
		return stacked.New(i, net, stacked.Config{Runtime: ropt}), nil, nil
	case BoundedSS:
		return bounded.New(i, net, bcfg), nil, nil
	case BoundedDeltaSS:
		nd := bounded.NewDelta(i, net, cfg.Delta, bcfg)
		return nd, nd.Inner.(*deltasnap.Node).SetDelta, nil
	}
	return nil, nil, ErrUnknownAlg
}

// stabilizing returns node id's object o as the kernel-backed
// self-stabilizing surface, or nil when its algorithm has none. The
// Delporte-Gallet baseline of Algorithm 1 runs on the same kernel but has
// no self-stabilization contract to inject faults into or check.
func (c *Cluster) stabilizing(id, o int) bounded.Inner {
	if !c.cfg.Algorithm.SelfStabilizing() {
		return nil
	}
	s, _ := c.members[id].objs[o].(bounded.Inner)
	return s
}

// DeltaTuner exposes the adaptive-δ controller, or nil when
// Config.AdaptiveDelta is off (or the algorithm has no δ).
func (c *Cluster) DeltaTuner() *deltasnap.Tuner { return c.tuner }

// CorruptAckTable fills node id's delta-gossip ack tables (every hosted
// object's — a transient fault hits the whole node's memory) with
// arbitrary values — the chaos nemesis proving the tables are soft state.
func (c *Cluster) CorruptAckTable(id int) error {
	if id < 0 || id >= c.cfg.N {
		return ErrUnknownNode
	}
	for o := range c.members[id].objs {
		if s := c.stabilizing(id, o); s == nil || !s.CorruptAckTable(c.rng) {
			return fmt.Errorf("%w: %s has no delta-gossip ack table", ErrNotCorruptible, c.cfg.Algorithm)
		}
	}
	return nil
}

// AckStats returns node id's gossip-mode tallies summed across its hosted
// objects (zero when the algorithm runs without delta gossip).
func (c *Cluster) AckStats(id int) kernel.AckStats {
	if id < 0 || id >= c.cfg.N {
		return kernel.AckStats{}
	}
	var sum kernel.AckStats
	for o := range c.members[id].objs {
		if st := c.stabilizing(id, o); st != nil {
			s := st.AckStats()
			sum.Full += s.Full
			sum.Delta += s.Delta
			sum.Suppressed += s.Suppressed
		}
	}
	return sum
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.cfg.N }

// Objects returns the number of snapshot objects each node hosts.
func (c *Cluster) Objects() int { return c.cfg.Objects }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Object returns node id's snapshot object 0.
func (c *Cluster) Object(id int) Object { return c.members[id].objs[0] }

// ObjectAt returns node id's snapshot object obj.
func (c *Cluster) ObjectAt(id, obj int) Object { return c.members[id].objs[obj] }

// Bounded returns node id's bounded-counter wrapper, or nil when the
// cluster does not run BoundedSS. Experiments use it to read reset
// statistics.
func (c *Cluster) Bounded(id int) *bounded.Node {
	nd, _ := c.members[id].objs[0].(*bounded.Node)
	return nd
}

// Delta returns node id's Algorithm 3 node, or nil when the cluster does
// not run DeltaSS. Experiments use it to inspect helping activity.
func (c *Cluster) Delta(id int) *deltasnap.Node {
	nd, _ := c.members[id].objs[0].(*deltasnap.Node)
	return nd
}

// Write performs a write operation at node id on object 0.
func (c *Cluster) Write(id int, v types.Value) error {
	return c.WriteObject(id, 0, v)
}

// WriteObject performs a write operation at node id on object obj.
func (c *Cluster) WriteObject(id, obj int, v types.Value) error {
	if id < 0 || id >= c.cfg.N {
		return ErrUnknownNode
	}
	if obj < 0 || obj >= c.cfg.Objects {
		return ErrUnknownObject
	}
	start := c.clk.Now()
	err := c.members[id].objs[obj].Write(v)
	if err == nil {
		c.writeLat.Record(c.clk.Since(start))
	}
	return err
}

// Snapshot performs a snapshot operation at node id on object 0.
func (c *Cluster) Snapshot(id int) (types.RegVector, error) {
	return c.SnapshotObject(id, 0)
}

// SnapshotObject performs a snapshot operation at node id on object obj.
func (c *Cluster) SnapshotObject(id, obj int) (types.RegVector, error) {
	if id < 0 || id >= c.cfg.N {
		return nil, ErrUnknownNode
	}
	if obj < 0 || obj >= c.cfg.Objects {
		return nil, ErrUnknownObject
	}
	start := c.clk.Now()
	snap, err := c.members[id].objs[obj].Snapshot()
	if err == nil {
		c.snapLat.Record(c.clk.Since(start))
	}
	return snap, err
}

// WriteLatencies summarises the latency of every successful Write issued
// through the cluster facade.
func (c *Cluster) WriteLatencies() metrics.LatencyStats { return c.writeLat.Stats() }

// SnapshotLatencies summarises the latency of every successful Snapshot
// issued through the cluster facade.
func (c *Cluster) SnapshotLatencies() metrics.LatencyStats { return c.snapLat.Stats() }

// Crash fails node id (it stops taking steps; messages to it are lost).
func (c *Cluster) Crash(id int) { c.members[id].rt.Crash() }

// Resume lets node id take steps again without resetting state — the
// paper's undetectable restart.
func (c *Cluster) Resume(id int) { c.members[id].rt.Resume() }

// Crashed reports whether node id is currently failed.
func (c *Cluster) Crashed(id int) bool { return c.members[id].rt.Crashed() }

// RestartDetectable performs the paper's detectable restart at node id:
// crash, re-initialise every variable, discard queued channel content, and
// resume. Supported by the self-stabilizing algorithms. A multi-object
// node restarts each hosted object in turn — every object's program loses
// its state, exactly as one process restart would lose them all.
func (c *Cluster) RestartDetectable(id int) error {
	if id < 0 || id >= c.cfg.N {
		return ErrUnknownNode
	}
	if c.stabilizing(id, 0) == nil {
		return fmt.Errorf("%w: %s has no detectable-restart hook", ErrNotCorruptible, c.cfg.Algorithm)
	}
	for o := range c.members[id].objs {
		c.stabilizing(id, o).RestartDetectable()
	}
	return nil
}

// SkewedRestart performs a detectable restart with recovery at node id:
// the node's program restarts with every variable re-initialised and its
// channel content discarded (exactly RestartDetectable), and then — before
// any other step can observe the reset — a recovery protocol restores the
// register file from the entrywise union of every peer's current view, as
// a restarting replica would recover from the replicated state. Control
// state (snapshot sequence numbers, pending-task tables, ack tables,
// timers) stays reset: the node's post-recovery timers fire phase-shifted
// relative to the cluster, which is the nemesis's point. Writes that the
// crashed node had installed but never propagated are genuinely lost —
// they exist nowhere after the reset — so the recovered register never
// regresses relative to anything any node can still surface.
//
// Under a virtual clock the restart+recovery pair is atomic: the calling
// task holds the processor token throughout (no clock primitive is
// crossed), so no snapshot can observe the pre-recovery reset state.
func (c *Cluster) SkewedRestart(id int) error {
	if id < 0 || id >= c.cfg.N {
		return ErrUnknownNode
	}
	if c.stabilizing(id, 0) == nil {
		return fmt.Errorf("%w: %s has no restart-with-recovery hooks", ErrNotCorruptible, c.cfg.Algorithm)
	}
	for o := range c.members[id].objs {
		s := c.stabilizing(id, o)
		s.RestartDetectable()
		var maxSNS int64
		for j := range c.members {
			if j == id {
				continue
			}
			// Crashed peers' memories are readable too: any entry the
			// restarting node ever propagated survives somewhere in the
			// union, so recovery can only miss what is already lost
			// everywhere.
			v := c.stabilizing(j, o).StateSummary()
			s.MergeReg(v.Reg)
			if len(v.PndSNS) > id && v.PndSNS[id] > maxSNS {
				maxSNS = v.PndSNS[id]
			}
		}
		// Definition 1(iii): sns_id must dominate every pndTsk_j[id].sns or
		// a post-recovery snapshot collides with a stale cached result a
		// peer still holds for the pre-crash task with the same number.
		s.AdoptSNS(maxSNS)
	}
	return nil
}

// Corrupt injects a transient fault at node id, overwriting all of its
// algorithm state — every hosted object's — with arbitrary values.
func (c *Cluster) Corrupt(id int) error {
	if c.stabilizing(id, 0) == nil {
		return ErrNotCorruptible
	}
	for o := range c.members[id].objs {
		c.stabilizing(id, o).Corrupt(c.rng)
	}
	return nil
}

// CorruptAll injects a transient fault at every node.
func (c *Cluster) CorruptAll() error {
	for i := range c.members {
		if err := c.Corrupt(i); err != nil {
			return err
		}
	}
	return nil
}

// InvariantsHold reports whether the consistency invariants of
// Definition 1 / Theorem 1 currently hold across all live nodes: locally,
// ts_i ≥ reg_i[i].ts (and the Algorithm 3 conditions); across nodes,
// ts_i dominates every reg_j[i].ts and sns_i every pndTsk_j[i].sns.
// Multi-object clusters check every object independently (objects share
// nothing but the transport). Algorithms without a self-stabilization
// contract report true.
func (c *Cluster) InvariantsHold() bool {
	for o := 0; o < c.cfg.Objects; o++ {
		if !c.objectInvariantsHold(o) {
			return false
		}
	}
	return true
}

func (c *Cluster) objectInvariantsHold(o int) bool {
	views := make([]*kernel.View, len(c.members))
	for i := range c.members {
		s := c.stabilizing(i, o)
		if s == nil || c.members[i].rt.Crashed() {
			continue
		}
		if !s.LocalInvariantHolds() {
			return false
		}
		v := s.StateSummary()
		views[i] = &v
	}
	for i, vi := range views {
		if vi == nil {
			continue
		}
		for _, vj := range views {
			if vj == nil {
				continue
			}
			if i < len(vj.Reg) && vj.Reg[i].TS > vi.TS {
				return false
			}
			if i < len(vj.PndSNS) && vj.PndSNS[i] > vi.SNS {
				return false
			}
		}
	}
	return true
}

// LoopCounts returns each node's completed do-forever iteration count.
func (c *Cluster) LoopCounts() []int64 {
	out := make([]int64, len(c.members))
	for i := range c.members {
		out[i] = c.members[i].rt.LoopCount()
	}
	return out
}

// AwaitCycles blocks until every live node has completed at least k more
// do-forever iterations, or the timeout expires.
func (c *Cluster) AwaitCycles(k int64, timeout time.Duration) error {
	start := c.LoopCounts()
	deadline := c.clk.Now().Add(timeout)
	for {
		done := true
		for i := range c.members {
			if c.members[i].rt.Crashed() {
				continue
			}
			if c.members[i].rt.LoopCount()-start[i] < k {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if c.clk.Now().After(deadline) {
			return ErrTimeout
		}
		c.clk.Sleep(time.Millisecond)
	}
}

// CyclesToInvariant measures recovery: it waits until InvariantsHold
// reports true and returns the maximum number of do-forever iterations any
// live node needed. It is the measured counterpart of the paper's O(1)
// recovery theorems.
func (c *Cluster) CyclesToInvariant(timeout time.Duration) (int64, error) {
	start := c.LoopCounts()
	deadline := c.clk.Now().Add(timeout)
	for {
		if c.InvariantsHold() {
			// Require stability across one further cycle so corrupted
			// values still in transit (which the instantaneous check cannot
			// see) have had the chance to land and be caught.
			if err := c.AwaitCycles(1, deadline.Sub(c.clk.Now())); err != nil {
				return 0, err
			}
			if !c.InvariantsHold() {
				continue
			}
			var maxD int64
			for i, s := range c.LoopCounts() {
				if c.members[i].rt.Crashed() {
					continue
				}
				if d := s - start[i]; d > maxD {
					maxD = d
				}
			}
			return maxD, nil
		}
		if c.clk.Now().After(deadline) {
			return 0, ErrTimeout
		}
		c.clk.Sleep(time.Millisecond)
	}
}

// Counters exposes the network traffic meters.
func (c *Cluster) Counters() *metrics.Counters { return c.net.Counters() }

// Metrics captures a point-in-time traffic snapshot.
func (c *Cluster) Metrics() metrics.Snapshot { return c.net.Counters().Snapshot() }

// Network exposes the underlying simulated network for partition control.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Close stops every node and the network.
func (c *Cluster) Close() {
	c.stopEv.Fire()
	for i := range c.members {
		for _, inst := range c.members[i].objs {
			inst.Close()
		}
	}
	c.net.Close()
	c.wg.Wait()
}
