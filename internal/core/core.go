// Package core is the public entry point of the library: it assembles
// snapshot-object nodes running any of the algorithms in this repository
// over any netsim.Transport (NewNode), or a whole cluster of them over an
// in-memory adversarial network (NewCluster), and exposes the operations,
// fault-injection controls and metrics that the examples, command-line
// tools and experiments use.
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
	"slices"
	"strings"
	"time"

	"selfstabsnap/internal/alwaysterm"
	"selfstabsnap/internal/bounded"
	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/obs"
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

// algorithmNames are the command-line names of the algorithms, indexed by
// Algorithm.
var algorithmNames = [...]string{
	NonBlockingDG:       "dg-nonblocking",
	NonBlockingSS:       "ss-nonblocking",
	AlwaysTerminatingDG: "dg-alwaysterm",
	DeltaSS:             "ss-delta",
	StackedABD:          "stacked",
	BoundedSS:           "ss-bounded",
	BoundedDeltaSS:      "ss-bounded-delta",
}

// AlgorithmNames lists the names ParseAlgorithm accepts, in Algorithm
// order.
func AlgorithmNames() []string { return slices.Clone(algorithmNames[:]) }

// ParseAlgorithm maps a command-line name (case-insensitive) to its
// Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, n := range algorithmNames {
		if strings.EqualFold(n, name) {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("%w %q; choose from %s", ErrUnknownAlg, name, strings.Join(algorithmNames[:], ", "))
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

// Config describes a cluster. NewNode reads only the algorithm and runtime
// fields; N, Seed, Adversary, Links, InboxCap and Trace describe the netsim
// network NewCluster creates.
type Config struct {
	// N is the number of nodes; must be ≥ 3 for crash tolerance (2f < n).
	N int
	// Algorithm selects the protocol (default NonBlockingSS).
	Algorithm Algorithm
	// Delta is Algorithm 3's δ parameter, fixed for the node's lifetime
	// (ignored by other algorithms).
	Delta int64
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
	// Journal, if non-nil, receives every node's self-stabilization events
	// (see node.Options.Journal).
	Journal *obs.Journal
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

// Node is one assembled node: a host runtime and the snapshot objects it
// hosts (Config.Objects, default 1), multiplexed over one transport and one
// dispatcher. NewCluster builds every member through NewNode, and a
// process-per-node deployment (cmd/tcpnode) calls NewNode over its own
// transport.
type Node struct {
	alg  Algorithm
	rt   *node.Runtime
	objs []instance
}

// Cluster is a running group of nodes, each hosting the same
// Config.Objects snapshot objects (one by default) over a shared netsim
// network.
type Cluster struct {
	cfg     Config
	clk     simclock.Clock
	net     *netsim.Network
	members []*Node
	rng     *rand.Rand

	writeLat metrics.LatencyRecorder
	snapLat  metrics.LatencyRecorder
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

// normalize validates cfg for an n-node deployment and fills in the
// defaults every node needs.
func (cfg Config) normalize(n int) (Config, error) {
	if n < 3 {
		return cfg, fmt.Errorf("%w: need N ≥ 3, got %d", ErrBadConfig, n)
	}
	if cfg.Algorithm < 0 || int(cfg.Algorithm) >= len(algorithmNames) {
		return cfg, ErrUnknownAlg
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 1
	}
	if cfg.Objects > node.MaxObjects {
		return cfg, fmt.Errorf("%w: Objects %d exceeds node.MaxObjects %d", ErrBadConfig, cfg.Objects, node.MaxObjects)
	}
	if cfg.Objects > 1 && cfg.Algorithm.Bounded() {
		return cfg, fmt.Errorf("%w: %s does not support multi-object hosting (its epoch-fencing transport wrapper is per node)", ErrBadConfig, cfg.Algorithm)
	}
	return cfg, nil
}

// NewCluster builds and starts a cluster per cfg over an in-memory netsim
// network.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg, err := cfg.normalize(cfg.N)
	if err != nil {
		return nil, err
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
	c := &Cluster{cfg: cfg, clk: clk, net: net, rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	ncfg := cfg
	ncfg.Clock = clk
	for i := 0; i < cfg.N; i++ {
		nd, err := NewNode(i, net, ncfg)
		if err != nil {
			net.Close()
			return nil, err
		}
		c.members = append(c.members, nd)
	}
	return c, nil
}

// NewNode builds and starts node id of cfg.Algorithm over tr, a transport
// the caller owns and closes after the node. The cluster size is tr.N().
func NewNode(id int, tr netsim.Transport, cfg Config) (*Node, error) {
	cfg, err := cfg.normalize(tr.N())
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= tr.N() {
		return nil, ErrUnknownNode
	}
	ropts := node.Options{
		LoopInterval: cfg.LoopInterval, RetxInterval: cfg.RetxInterval,
		Clock: cfg.Clock, Journal: cfg.Journal,
	}
	nd := &Node{alg: cfg.Algorithm, objs: make([]instance, cfg.Objects)}
	for o := range nd.objs {
		// Object 0 creates the host runtime; further objects attach to it.
		ropt := ropts
		if o > 0 {
			ropt.Attach = nd.rt
		}
		nd.objs[o] = newInstance(cfg, id, tr, ropt)
		if o == 0 {
			nd.rt = nd.objs[0].Runtime()
		}
	}
	// Start only after the node's whole object table is registered: the
	// table is immutable once the dispatchers run. node.Runtime.Start is
	// idempotent, so starting each instance in order launches the host
	// exactly once.
	for _, inst := range nd.objs {
		inst.Start()
	}
	return nd, nil
}

// newInstance builds node i's instance of cfg.Algorithm, which normalize
// has checked, without starting it.
func newInstance(cfg Config, i int, tr netsim.Transport, ropt node.Options) instance {
	bcfg := bounded.Config{MaxInt: cfg.MaxInt, AbortDuringReset: cfg.AbortDuringReset, Runtime: ropt}
	switch cfg.Algorithm {
	case NonBlockingDG:
		return nonblocking.New(i, tr, nonblocking.Config{Runtime: ropt})
	case NonBlockingSS:
		return nonblocking.New(i, tr, nonblocking.Config{SelfStabilizing: true, Runtime: ropt})
	case AlwaysTerminatingDG:
		return alwaysterm.New(i, tr, alwaysterm.Config{Runtime: ropt})
	case DeltaSS:
		return deltasnap.New(i, tr, deltasnap.Config{Delta: cfg.Delta, Runtime: ropt})
	case StackedABD:
		return stacked.New(i, tr, stacked.Config{Runtime: ropt})
	case BoundedSS:
		return bounded.New(i, tr, bcfg)
	default: // BoundedDeltaSS
		return bounded.NewDelta(i, tr, cfg.Delta, bcfg)
	}
}

// Object returns the node's snapshot object o.
func (nd *Node) Object(o int) Object { return nd.objs[o] }

// Objects returns the number of snapshot objects the node hosts.
func (nd *Node) Objects() int { return len(nd.objs) }

// Runtime returns the host runtime every hosted object shares.
func (nd *Node) Runtime() *node.Runtime { return nd.rt }

// Registers returns a copy of object o's register vector.
func (nd *Node) Registers(o int) types.RegVector {
	switch k := nd.objs[o].(type) {
	case interface{ StateSummary() kernel.View }:
		return k.StateSummary().Reg
	case *alwaysterm.Node:
		return k.StateSummary().Reg
	case *stacked.Node:
		return k.StateSummary().Reg
	}
	return nil
}

// Close stops every hosted object.
func (nd *Node) Close() {
	for _, inst := range nd.objs {
		inst.Close()
	}
}

// stabilizing returns object o as the kernel-backed self-stabilizing
// surface, or nil when its algorithm has none. The Delporte-Gallet
// baseline of Algorithm 1 runs on the same kernel but has no
// self-stabilization contract to inject faults into or check.
func (nd *Node) stabilizing(o int) bounded.Inner {
	if !nd.alg.SelfStabilizing() {
		return nil
	}
	s, _ := nd.objs[o].(bounded.Inner)
	return s
}

// LocalInvariant reports whether object o's local consistency invariant
// (ts ≥ reg[i].ts, and Algorithm 3's task conditions) currently holds.
// ok is false when the algorithm has no self-stabilization contract to
// check (the Delporte-Gallet baselines and the stacked emulation).
func (nd *Node) LocalInvariant(o int) (holds, ok bool) {
	s := nd.stabilizing(o)
	if s == nil {
		return false, false
	}
	return s.LocalInvariantHolds(), true
}

// stabilizing returns node id's object o as the self-stabilizing surface
// (see Node.stabilizing).
func (c *Cluster) stabilizing(id, o int) bounded.Inner { return c.members[id].stabilizing(o) }

// CorruptAckTable fills node id's delta-gossip ack tables (every hosted
// object's — a transient fault hits the whole node's memory) with
// arbitrary values — the chaos nemesis proving the tables are soft state.
func (c *Cluster) CorruptAckTable(id int) error {
	if id < 0 || id >= c.cfg.N {
		return ErrUnknownNode
	}
	for o := range c.members[id].objs {
		s := c.stabilizing(id, o)
		if s == nil {
			return fmt.Errorf("%w: %s", ErrNotCorruptible, c.cfg.Algorithm)
		}
		s.CorruptAckTable(c.rng)
	}
	return nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.cfg.N }

// Objects returns the number of snapshot objects each node hosts.
func (c *Cluster) Objects() int { return c.cfg.Objects }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Object returns node id's snapshot object 0.
func (c *Cluster) Object(id int) Object { return c.members[id].Object(0) }

// ObjectAt returns node id's snapshot object obj.
func (c *Cluster) ObjectAt(id, obj int) Object { return c.members[id].Object(obj) }

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
func (c *Cluster) Crash(id int) { c.members[id].Runtime().Crash() }

// Resume lets node id take steps again without resetting state — the
// paper's undetectable restart.
func (c *Cluster) Resume(id int) { c.members[id].Runtime().Resume() }

// Crashed reports whether node id is currently failed.
func (c *Cluster) Crashed(id int) bool { return c.members[id].Runtime().Crashed() }

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
		if s == nil || c.members[i].Runtime().Crashed() {
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
		out[i] = c.members[i].Runtime().LoopCount()
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
			if c.members[i].Runtime().Crashed() {
				continue
			}
			if c.members[i].Runtime().LoopCount()-start[i] < k {
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
				if c.members[i].Runtime().Crashed() {
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
	for _, nd := range c.members {
		nd.Close()
	}
	c.net.Close()
}
