// Package deltasnap implements the paper's Algorithm 3: the
// self-stabilizing always-terminating snapshot object.
//
// Compared with the Delporte-Gallet baseline (package alwaysterm) it
//
//   - recovers from transient faults within O(1) asynchronous cycles
//     (Theorem 2): the do-forever loop repeatedly cleans stale information
//     (out-of-sync acknowledgments, outdated operation indices, illogical
//     vector clocks, corrupted pndTsk entries) and gossips operation
//     indices;
//   - uses bounded memory: one pending snapshot task per node (the pndTsk
//     array) instead of the unbounded repSnap table;
//   - replaces reliable broadcast with an emulated safe register: a
//     finished task's result is stored at a majority via SAVE/SAVEack
//     (macro safeReg), and any node holding the result of an ongoing task
//     forwards it to the task's initiator;
//   - handles many snapshot tasks at a time (many-jobs stealing), and
//   - exposes the input parameter δ trading snapshot latency for
//     communication: δ=0 makes every node help every pending task at once
//     (O(n²) messages, writes blocked immediately, like Algorithm 2);
//     large δ lets a solo initiator finish in O(n) messages (like
//     Algorithm 1) and only recruits the other nodes — blocking their
//     writes — after observing at least δ write operations concurrent with
//     the snapshot, which bounds snapshot latency by O(δ) cycles
//     (Theorem 3).
package deltasnap

import (
	"math/rand"
	"slices"
	"sync"

	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node.
type Config struct {
	// Delta is the paper's δ: the number of observed concurrent write
	// operations after which all nodes are recruited to finish a snapshot
	// task (temporarily blocking writes). 0 recruits everyone immediately;
	// a negative value counts as 0. Fixed for the node's lifetime.
	Delta int64
	// Runtime tuning forwarded to the node runtime.
	Runtime node.Options
}

// Node is one participant of Algorithm 3. The embedded kernel.Shell is
// Algorithm 1's register core (the paper builds Algorithm 3 on it): the
// quorum write of line 84, the WRITE, SNAPSHOT and GOSSIP server side,
// lines 73–78 of the loop, and the inspection and reset hooks. This package
// adds the task layer.
type Node struct {
	kernel.Shell
	rt *node.ObjView
	g  *kernel.Gossip
	id int

	opMu sync.Mutex // serialises this node's client operations

	mu sync.Mutex   // guards k and the parked write
	k  kernel.State // ts, ssn, sns, reg, pndTsk

	delta int64 // δ, immutable after New
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	nd := &Node{id: id, k: kernel.New(id, tr.N(), true), delta: max(cfg.Delta, 0)}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	nd.g = kernel.NewGossip(nd.rt)
	nd.Shell = kernel.NewShell(nd.rt, nd.g, &nd.mu, &nd.k, false)
	return nd
}

// deltaLocked is macro Δ (line 70): the snapshot tasks this node must help
// with right now — every unfinished task that either (δ=0) simply exists,
// or has provably run concurrently with at least δ writes (its sampled
// vector clock trails the current one by ≥ δ), plus always the node's own
// unfinished task.
func (nd *Node) deltaLocked() []wire.TaskInfo {
	vc := nd.k.Reg.VC() // macro VC (line 69)
	var out []wire.TaskInfo
	for k, p := range nd.k.Pnd {
		include := false
		switch {
		case k == nd.id:
			include = p.SNS > 0 && p.Fnl == nil
		case p.Fnl != nil:
			// finished: nothing to do
		case nd.delta == 0 && p.SNS > 0:
			include = true
		case p.VC != nil && nd.delta <= p.VC.DiffSum(vc):
			include = true
		}
		if include {
			// VCs are immutable once built (replaced wholesale, never
			// updated element-wise), so tasks share them by reference.
			out = append(out, wire.TaskInfo{Node: int32(k), SNS: p.SNS, VC: p.VC})
		}
	}
	return out
}

// intersectLocked returns S∩Δ: the current Δ restricted to the node set S
// sampled when baseSnapshot was entered.
func (nd *Node) intersectLocked(s map[int32]struct{}) []wire.TaskInfo {
	all := nd.deltaLocked()
	out := all[:0]
	for _, t := range all {
		if _, ok := s[t.Node]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Write performs the preemptible write(v) operation (line 81): the loop
// runs it (line 79), now rather than at the next tick.
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()
	return nd.ParkWrite(v)
}

// Snapshot performs the snapshot() operation (lines 82–83): register a new
// own task and wait until its final result appears in pndTsk[i].fnl.
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.k.SNS++
	nd.k.Pnd[nd.id] = kernel.Task{SNS: nd.k.SNS}
	nd.mu.Unlock()
	nd.rt.Kick() // line 80 picks the task up now, not at the next tick

	var res types.RegVector
	err := nd.rt.WaitUntil(func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		res = nd.k.Pnd[nd.id].Fnl
		return res != nil
	})
	if err != nil {
		return nil, err
	}
	return res.Share(), nil
}

// Tick is one full iteration of the do-forever loop (lines 73–80): clean
// stale information and gossip indices (lines 73–78, the kernel's part,
// which recurs every LoopInterval and only then), then run the pending
// write and help every task in Δ (lines 79–80, ServePending).
func (nd *Node) Tick() {
	nd.Shell.Tick()
	nd.ServePending()
}

// ServePending is lines 79–80, the part of the loop body that executes
// what client operations parked: the tail of every Tick, and the whole of
// an on-demand iteration (node.OnDemand) right after Write or Snapshot
// kicked the loop.
func (nd *Node) ServePending() {
	// Line 79: serve the pending write first; it is line 84, Algorithm 1's
	// write.
	nd.ServeParked()

	// Line 80: help all currently active tasks.
	nd.mu.Lock()
	delta := nd.deltaLocked()
	nd.mu.Unlock()
	if len(delta) > 0 {
		s := make(map[int32]struct{}, len(delta))
		for _, t := range delta {
			s[t.Node] = struct{}{}
		}
		nd.baseSnapshot(s)
	}
}

// baseSnapshot is lines 85–94: the outer loop retries double-collect rounds
// with fresh ssn values; a quiet round stores the collected vector as the
// result of every task in S∩Δ through the safe register; a non-quiet round
// samples the vector clock of the node's own task so concurrent writes can
// be counted against δ.
func (nd *Node) baseSnapshot(s map[int32]struct{}) {
	for {
		nd.mu.Lock()
		nd.k.SSN++
		ssn := nd.k.SSN
		prev := nd.k.Reg.Share()
		nd.mu.Unlock()

		// Inner loop (lines 87–89): broadcast SNAPSHOT(S∩Δ, reg, ssn) until
		// the task set empties or a majority acknowledges ssn. Build runs
		// once per retransmission round: intersectLocked already returns a
		// fresh slice and Share avoids re-deep-cloning reg every round.
		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				nd.mu.Lock()
				tasks := nd.intersectLocked(s)
				reg := nd.k.Reg.Share()
				nd.mu.Unlock()
				return &wire.Message{Type: wire.TSnapshot, Tasks: tasks, Reg: reg, SSN: ssn}
			},
			Accept: func(m *wire.Message) bool {
				return m.Type == wire.TSnapshotAck && m.SSN == ssn
			},
			Stop: func() bool {
				nd.mu.Lock()
				defer nd.mu.Unlock()
				return len(nd.intersectLocked(s)) == 0
			},
		})
		if err != nil {
			return
		}
		nd.Merge(recs) // line 90

		nd.mu.Lock()
		cur := nd.intersectLocked(s)
		quiet := nd.k.Reg.Equal(prev)
		var save []wire.SaveEntry
		if quiet && len(cur) > 0 {
			// Line 91–92: store prev as the result of every active task.
			save = make([]wire.SaveEntry, 0, len(cur))
			for _, t := range cur {
				save = append(save, wire.SaveEntry{Node: t.Node, SNS: nd.k.Pnd[t.Node].SNS, Result: prev})
			}
		} else if nd.k.Pnd[nd.id].VC == nil && slices.ContainsFunc(cur, func(t wire.TaskInfo) bool { return t.Node == int32(nd.id) }) {
			// Line 93: stamp the own task with the current vector clock so
			// later rounds can count concurrent writes against δ.
			nd.k.Pnd[nd.id].VC = nd.k.Reg.VC()
		}
		nd.mu.Unlock()

		if save != nil {
			if err := nd.safeReg(save); err != nil {
				return
			}
		}

		// Outer until (line 94): stop when no active tasks remain, or when
		// only the own task remains and it has provably run concurrently
		// with at least δ writes — at that point every node's Δ includes it
		// and the collective helping scheme takes over, so this node can
		// yield and let its own writes through.
		nd.mu.Lock()
		cur = nd.intersectLocked(s)
		exit := len(cur) == 0
		if !exit && len(cur) == 1 && cur[0].Node == int32(nd.id) {
			p := nd.k.Pnd[nd.id]
			if p.SNS > 0 && p.Fnl == nil && p.VC != nil && nd.delta <= p.VC.DiffSum(nd.k.Reg.VC()) {
				exit = true
			}
		}
		nd.mu.Unlock()
		if exit {
			return
		}
	}
}

// safeReg is macro safeReg(A) (line 71): store the results in A at a
// majority of nodes via SAVE, waiting for matching SAVEack echoes.
func (nd *Node) safeReg(a []wire.SaveEntry) error {
	want := make(map[[2]int64]struct{}, len(a))
	for _, e := range a {
		want[[2]int64{int64(e.Node), e.SNS}] = struct{}{}
	}
	_, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			// a's results are immutable snapshots: every retransmission
			// round reuses them by reference.
			return &wire.Message{Type: wire.TSave, Saves: a}
		},
		Accept: func(m *wire.Message) bool {
			if m.Type != wire.TSaveAck || len(m.Saves) != len(want) {
				return false
			}
			for _, e := range m.Saves {
				if _, ok := want[[2]int64{int64(e.Node), e.SNS}]; !ok {
					return false
				}
			}
			return true
		},
	})
	return err
}

// HandleMessage is the server side (lines 95–107): SAVE here, the rest in
// the kernel.
func (nd *Node) HandleMessage(m *wire.Message) {
	if m.Type != wire.TSave {
		nd.Shell.HandleMessage(m)
		return
	}
	// Lines 95–97: adopt newer task indices/results; echo (k,s) pairs.
	ack := make([]wire.SaveEntry, 0, len(m.Saves))
	ownLanded := false
	nd.mu.Lock()
	for _, e := range m.Saves {
		k := int(e.Node)
		if k < 0 || k >= len(nd.k.Pnd) || e.Result == nil {
			continue
		}
		p := &nd.k.Pnd[k]
		if p.SNS < e.SNS || (p.SNS == e.SNS && p.Fnl == nil) {
			p.SNS = e.SNS
			p.Fnl = e.Result // arriving results are immutable: adopt
			ownLanded = ownLanded || k == nd.id
		}
		ack = append(ack, wire.SaveEntry{Node: e.Node, SNS: e.SNS})
	}
	nd.mu.Unlock()
	if ownLanded {
		nd.rt.Wake() // Snapshot is waiting for exactly this
	}
	nd.rt.Send(int(m.From), &wire.Message{Type: wire.TSaveAck, Saves: ack})
}

// Corrupt models a transient fault: every algorithm variable is overwritten
// with arbitrary values (§2 fault model).
func (nd *Node) Corrupt(rng *rand.Rand) {
	nd.rt.RecordEvent("transient-fault", "algorithm variables overwritten")
	nd.g.Reset() // repaired state must be re-gossiped in full
	nd.mu.Lock()
	defer nd.mu.Unlock()
	k, n := &nd.k, len(nd.k.Reg)
	k.TS = rng.Int63n(1 << 20)
	k.SSN = rng.Int63n(1 << 20)
	k.SNS = rng.Int63n(1 << 20)
	for j := range k.Reg {
		if rng.Intn(2) == 0 {
			k.Reg[j] = types.TSValue{TS: rng.Int63n(1 << 20)}
		}
	}
	for j := range k.Pnd {
		switch rng.Intn(3) {
		case 0:
			k.Pnd[j] = kernel.Task{}
		case 1:
			vc := make(types.VectorClock, n)
			for i := range vc {
				vc[i] = rng.Int63n(1 << 20)
			}
			k.Pnd[j] = kernel.Task{SNS: rng.Int63n(1 << 20), VC: vc}
		case 2:
			k.Pnd[j] = kernel.Task{SNS: rng.Int63n(1 << 20), Fnl: types.NewRegVector(n)}
		}
	}
}
