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
	"sync"
	"sync/atomic"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Config parameterises one node.
type Config struct {
	// Delta is the paper's δ: the number of observed concurrent write
	// operations after which all nodes are recruited to finish a snapshot
	// task (temporarily blocking writes). 0 recruits everyone immediately.
	// This is the initial value; SetDelta retunes it live.
	Delta int64
	// FullGossip disables delta gossip: every tick sends the full per-peer
	// gossip payload regardless of what the peer acknowledged, as in the
	// paper's listing. The zero value (delta gossip on) trims or elides
	// sends the peer's fresh GOSSIPack already dominates.
	FullGossip bool
	// Runtime tuning forwarded to the node runtime.
	Runtime node.Options
}

// pnd is one pndTsk entry: (sns, vc, fnl) — the index of node k's most
// recent known snapshot task, the vector clock stamping the start of that
// task (nil = ⊥), and its final result (nil = ⊥, still running).
type pnd struct {
	sns int64
	vc  types.VectorClock
	fnl types.RegVector
}

type pendingWrite struct {
	val  types.Value
	done chan struct{}
	err  error
}

// Node is one participant of Algorithm 3.
type Node struct {
	rt  *node.ObjView
	cfg Config
	id  int
	n   int

	opMu sync.Mutex // serialises this node's client operations

	mu           sync.Mutex
	ts           int64 // write-operation index
	ssn          int64 // snapshot query index
	sns          int64 // snapshot operation index
	reg          types.RegVector
	writePending *pendingWrite
	pndTsk       []pnd

	// deltaV is the live δ value (initialised from Config.Delta, retuned
	// by SetDelta). Atomic so the adaptive tuner can adjust it without
	// taking the algorithm lock.
	deltaV atomic.Int64

	// acks is the delta-gossip ack table (nil when FullGossip). Own lock;
	// soft state — resetting it on repair events costs only extra gossip.
	acks *node.AckTable
}

// New creates a node with identifier id over transport tr.
func New(id int, tr netsim.Transport, cfg Config) *Node {
	if cfg.Delta < 0 {
		cfg.Delta = 0
	}
	nd := &Node{
		cfg:    cfg,
		id:     id,
		n:      tr.N(),
		reg:    types.NewRegVector(tr.N()),
		pndTsk: make([]pnd, tr.N()),
	}
	nd.deltaV.Store(cfg.Delta)
	if !cfg.FullGossip {
		nd.acks = node.NewAckTable(tr.N(), node.DefaultAckStaleness)
	}
	nd.rt = node.Bind(id, tr, nd, cfg.Runtime)
	return nd
}

// DeltaValue returns the live δ parameter.
func (nd *Node) DeltaValue() int64 { return nd.deltaV.Load() }

// SetDelta retunes the live δ parameter (clamped at 0). Takes effect on
// the next helping decision; safe from any goroutine.
func (nd *Node) SetDelta(d int64) {
	if d < 0 {
		d = 0
	}
	nd.deltaV.Store(d)
}

// AckStats returns this node's gossip-mode tallies (zero when delta
// gossip is disabled).
func (nd *Node) AckStats() node.AckStats {
	if nd.acks == nil {
		return node.AckStats{}
	}
	return nd.acks.Stats()
}

// CorruptAckTable fills the delta-gossip ack table with arbitrary values —
// the chaos nemesis for the stabilization obligation. No-op when delta
// gossip is disabled.
func (nd *Node) CorruptAckTable(rng *rand.Rand) {
	if nd.acks == nil {
		return
	}
	nd.rt.RecordEvent("ack-corrupt", "delta-gossip ack table overwritten")
	nd.acks.Corrupt(rng)
}

// Start launches the node's goroutines.
func (nd *Node) Start() { nd.rt.Start() }

// Close permanently stops the node.
func (nd *Node) Close() { nd.rt.Close() }

// Runtime exposes lifecycle controls.
func (nd *Node) Runtime() *node.Runtime { return nd.rt.Runtime }

// vcLocked is macro VC (line 69): the write-index projection of reg.
func (nd *Node) vcLocked() types.VectorClock { return nd.reg.VC() }

// deltaLocked is macro Δ (line 70): the snapshot tasks this node must help
// with right now — every unfinished task that either (δ=0) simply exists,
// or has provably run concurrently with at least δ writes (its sampled
// vector clock trails the current one by ≥ δ), plus always the node's own
// unfinished task.
func (nd *Node) deltaLocked() []wire.TaskInfo {
	vc := nd.vcLocked()
	delta := nd.deltaV.Load()
	var out []wire.TaskInfo
	for k := range nd.pndTsk {
		p := nd.pndTsk[k]
		include := false
		switch {
		case k == nd.id:
			include = p.sns > 0 && p.fnl == nil
		case p.fnl != nil:
			// finished: nothing to do
		case delta == 0 && p.sns > 0:
			include = true
		case p.vc != nil && delta <= p.vc.DiffSum(vc):
			include = true
		}
		if include {
			// VCs are immutable once built (replaced wholesale, never
			// updated element-wise), so tasks share them by reference.
			out = append(out, wire.TaskInfo{Node: int32(k), SNS: p.sns, VC: p.vc})
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

// Write performs the preemptible write(v) operation (line 81).
func (nd *Node) Write(v types.Value) error {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	// Clone the caller's value once at the API boundary; it is immutable
	// from here on and baseWrite installs it without further copying.
	pw := &pendingWrite{val: types.Freeze(v.Clone()), done: make(chan struct{})}
	nd.mu.Lock()
	nd.writePending = pw
	nd.mu.Unlock()
	nd.rt.Kick() // line 79 runs now, not at the next tick

	err := nd.rt.WaitUntil(func() bool {
		select {
		case <-pw.done:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return err
	}
	return pw.err
}

// Snapshot performs the snapshot() operation (lines 82–83): register a new
// own task and wait until its final result appears in pndTsk[i].fnl.
func (nd *Node) Snapshot() (types.RegVector, error) {
	nd.opMu.Lock()
	defer nd.opMu.Unlock()

	nd.mu.Lock()
	nd.sns++
	nd.pndTsk[nd.id] = pnd{sns: nd.sns}
	nd.mu.Unlock()
	nd.rt.Kick() // line 80 picks the task up now, not at the next tick

	var res types.RegVector
	err := nd.rt.WaitUntil(func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		res = nd.pndTsk[nd.id].fnl
		return res != nil
	})
	if err != nil {
		return nil, err
	}
	return res.Share(), nil
}

// Tick is one full iteration of the do-forever loop (lines 73–80): clean
// stale information and gossip indices (lines 73–78), then run the pending
// write and help every task in Δ (lines 79–80, ServePending).
func (nd *Node) Tick() {
	nd.cleanAndGossip()
	nd.ServePending()
}

// cleanAndGossip is lines 73–78, the part of the loop body that recurs
// every LoopInterval and only then. Stale SNAPSHOTack deletion (line 74)
// is structural, as in Algorithm 1: collectors match the exact in-flight
// ssn only.
func (nd *Node) cleanAndGossip() {
	type gossipOut struct {
		entry types.TSValue
		task  pnd
	}
	nd.mu.Lock()
	// Line 75: out-dated operation indices. An index lagging its own
	// register/task entry is the footprint of a transient fault — repaired
	// state invalidates the delta-gossip ack table below.
	idxRepaired := false
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own
		idxRepaired = true
	}
	if own := nd.pndTsk[nd.id].sns; own > nd.sns {
		nd.sns = own
		idxRepaired = true
	}
	// Line 76: illogical vector clocks.
	vc := nd.vcLocked()
	for k := range nd.pndTsk {
		if nd.pndTsk[k].vc != nil && !nd.pndTsk[k].vc.LessEq(vc) {
			nd.pndTsk[k].vc = nil
		}
	}
	// Line 77: corrupted own pndTsk entry.
	pndRepaired := false
	if nd.sns != nd.pndTsk[nd.id].sns {
		nd.pndTsk[nd.id] = pnd{sns: nd.sns}
		pndRepaired = true
	}
	// Line 78: gossip payloads (reg[k], pndTsk[k], sns) per peer. The sns
	// value sent to p_k is pndTsk[k].sns — this node's knowledge of p_k's
	// OWN snapshot index — mirroring how reg[k] gossip restores p_k's own
	// register (Definition 1 invariant (iii): sns_i must dominate every
	// pndTsk_j[i].sns). Gossiping the sender's own sns instead would make
	// every node adopt the global maximum and line 77 would then fabricate
	// phantom pending tasks at every node, forcing O(n²) traffic for every
	// snapshot regardless of δ.
	// Entry structs, VCs and final results are all immutable once installed,
	// so the per-peer gossip payloads share them by reference — this loop
	// used to be an O(n²·ν) deep copy per tick.
	gossip := make([]gossipOut, nd.n)
	for k := 0; k < nd.n; k++ {
		gossip[k] = gossipOut{entry: nd.reg[k], task: pnd{
			sns: nd.pndTsk[k].sns, vc: nd.pndTsk[k].vc, fnl: nd.pndTsk[k].fnl,
		}}
	}
	nd.mu.Unlock()
	if pndRepaired {
		nd.rt.RecordEvent("pndtsk-repair", "own pending-task entry disagreed with sns")
	}
	if (pndRepaired || idxRepaired) && nd.acks != nil {
		nd.acks.Reset() // suspect state: next tick gossips in full
	}

	full := func(k int) *wire.Message {
		g := gossip[k]
		return &wire.Message{
			Type:  wire.TGossip,
			Entry: g.entry,
			SNS:   g.task.sns,
			Tasks: []wire.TaskInfo{{Node: int32(k), SNS: g.task.sns, VC: g.task.vc}},
			Saves: []wire.SaveEntry{{Node: int32(k), SNS: g.task.sns, Result: g.task.fnl}},
		}
	}
	if nd.acks == nil {
		nd.rt.GossipTo(full)
	} else {
		nd.acks.Advance()
		counters := nd.rt.Counters()
		nd.rt.GossipTo(func(k int) *wire.Message {
			g := gossip[k]
			st, fresh := nd.acks.Fresh(k)
			if !fresh {
				m := full(k)
				nd.acks.NoteFull()
				counters.RecordGossipFull(m.Size())
				return m
			}
			// The peer acked (its own register index, its own sns, whether
			// its own task is done) recently. We must still send iff our
			// knowledge of the peer's own entry or task exceeds the ack —
			// that is exactly the repair case gossip exists for.
			resultNeeded := g.task.fnl != nil &&
				(g.task.sns > st.SNS || (g.task.sns == st.SNS && !st.Done))
			if g.entry.TS <= st.TS && g.task.sns <= st.SNS && !resultNeeded {
				nd.acks.NoteSuppressed()
				counters.RecordGossipSuppressed()
				return nil
			}
			// Delta send: trim pieces the ack already covers. The receiver
			// reads only Entry, SNS and Saves from a GOSSIP (Tasks mirror
			// SNS), so the trimmed message repairs exactly as the full one.
			m := &wire.Message{Type: wire.TGossip, SNS: g.task.sns}
			if g.entry.TS > st.TS {
				m.Entry = g.entry
			}
			if resultNeeded {
				m.Saves = []wire.SaveEntry{{Node: int32(k), SNS: g.task.sns, Result: g.task.fnl}}
			}
			nd.acks.NoteDelta()
			counters.RecordGossipDelta(m.Size())
			return m
		})
	}
}

// ServePending is lines 79–80, the part of the loop body that executes
// what client operations parked: the tail of every Tick, and the whole of
// an on-demand iteration (node.OnDemand) right after Write or Snapshot
// kicked the loop.
func (nd *Node) ServePending() {
	// Line 79: serve the pending write first.
	nd.mu.Lock()
	pw := nd.writePending
	nd.writePending = nil
	nd.mu.Unlock()
	if pw != nil {
		pw.err = nd.baseWrite(pw.val)
		close(pw.done)
		nd.rt.Wake()
	}

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

// baseWrite is line 84 — identical to Algorithm 1's write, including the
// self-stabilizing ts merge of macro merge (line 72).
func (nd *Node) baseWrite(v types.Value) error {
	nd.mu.Lock()
	nd.ts++
	nd.reg[nd.id] = types.TSValue{TS: nd.ts, Val: v} // v cloned+frozen in Write
	lReg := nd.reg.Share()
	nd.mu.Unlock()

	recs, err := nd.rt.Call(node.CallOpts{
		Build: func() *wire.Message {
			return &wire.Message{Type: wire.TWrite, Reg: lReg}
		},
		Accept: func(m *wire.Message) bool {
			return m.Type == wire.TWriteAck && lReg.LessEq(m.Reg)
		},
	})
	if err != nil {
		return err
	}
	nd.merge(recs)
	return nil
}

// merge is macro merge(Rec) (line 72).
func (nd *Node) merge(recs []*wire.Message) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, m := range recs {
		nd.reg.MergeFrom(m.Reg)
	}
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own
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
		nd.ssn++
		ssn := nd.ssn
		prev := nd.reg.Share()
		nd.mu.Unlock()

		// Inner loop (lines 87–89): broadcast SNAPSHOT(S∩Δ, reg, ssn) until
		// the task set empties or a majority acknowledges ssn. Build runs
		// once per retransmission round: intersectLocked already returns a
		// fresh slice and Share avoids re-deep-cloning reg every round.
		recs, err := nd.rt.Call(node.CallOpts{
			Build: func() *wire.Message {
				nd.mu.Lock()
				tasks := nd.intersectLocked(s)
				reg := nd.reg.Share()
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
		nd.merge(recs) // line 90

		nd.mu.Lock()
		cur := nd.intersectLocked(s)
		quiet := nd.reg.Equal(prev)
		var save []wire.SaveEntry
		if quiet && len(cur) > 0 {
			// Line 91–92: store prev as the result of every active task.
			save = make([]wire.SaveEntry, 0, len(cur))
			for _, t := range cur {
				save = append(save, wire.SaveEntry{Node: t.Node, SNS: nd.pndTsk[t.Node].sns, Result: prev})
			}
		} else if containsNode(cur, int32(nd.id)) && nd.pndTsk[nd.id].vc == nil {
			// Line 93: stamp the own task with the current vector clock so
			// later rounds can count concurrent writes against δ.
			nd.pndTsk[nd.id].vc = nd.vcLocked()
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
			p := nd.pndTsk[nd.id]
			if p.sns > 0 && p.fnl == nil && p.vc != nil && nd.deltaV.Load() <= p.vc.DiffSum(nd.vcLocked()) {
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

// HandleMessage is the server side (lines 95–107).
func (nd *Node) HandleMessage(m *wire.Message) {
	switch m.Type {
	case wire.TSave:
		// Lines 95–97: adopt newer task indices/results; echo (k,s) pairs.
		ack := make([]wire.SaveEntry, 0, len(m.Saves))
		ownLanded := false
		nd.mu.Lock()
		for _, e := range m.Saves {
			k := int(e.Node)
			if k < 0 || k >= nd.n || e.Result == nil {
				continue
			}
			p := &nd.pndTsk[k]
			if p.sns < e.SNS || (p.sns == e.SNS && p.fnl == nil) {
				p.sns = e.SNS
				p.fnl = e.Result // arriving results are immutable: adopt
				ownLanded = ownLanded || k == nd.id
			}
			ack = append(ack, wire.SaveEntry{Node: e.Node, SNS: e.SNS})
		}
		nd.mu.Unlock()
		if ownLanded {
			nd.rt.Wake() // Snapshot is waiting for exactly this
		}
		nd.rt.Send(int(m.From), &wire.Message{Type: wire.TSaveAck, Saves: ack})

	case wire.TGossip:
		// Lines 98–99 plus the documented result-forwarding divergence: a
		// gossiped pndTsk[i] entry carrying a final result for our current
		// task is adopted (the same value the safe register stores).
		nd.mu.Lock()
		if nd.reg[nd.id].Less(m.Entry) {
			nd.reg[nd.id] = m.Entry
		}
		if own := nd.reg[nd.id].TS; own > nd.ts {
			nd.ts = own
		}
		if m.SNS > nd.sns {
			nd.sns = m.SNS
		}
		ownLanded := false
		for _, e := range m.Saves {
			if int(e.Node) == nd.id && e.Result != nil {
				p := &nd.pndTsk[nd.id]
				if p.sns == e.SNS && p.fnl == nil {
					p.fnl = e.Result
					ownLanded = true
				}
			}
		}
		ownTS := nd.reg[nd.id].TS
		ownSNS := nd.sns
		ownDone := nd.pndTsk[nd.id].fnl != nil
		nd.mu.Unlock()
		if ownLanded {
			nd.rt.Wake()
		}
		if nd.acks != nil {
			// Echo the post-merge own indices so the sender can skip
			// re-gossiping what this node already holds.
			ack := &wire.Message{Type: wire.TGossipAck, TS: ownTS, SNS: ownSNS}
			if ownDone {
				ack.TaskSN = 1
			}
			nd.rt.Send(int(m.From), ack)
		}

	case wire.TGossipAck:
		if nd.acks != nil {
			nd.acks.Record(int(m.From), node.AckState{TS: m.TS, SNS: m.SNS, Done: m.TaskSN != 0})
		}

	case wire.TWrite:
		// Lines 100–102.
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg)
		reply := &wire.Message{Type: wire.TWriteAck, Reg: nd.reg.Share()}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)

	case wire.TSnapshot:
		// Lines 103–107.
		nd.mu.Lock()
		nd.reg.MergeFrom(m.Reg)
		for _, t := range m.Tasks {
			k := int(t.Node)
			if k < 0 || k >= nd.n {
				continue
			}
			p := &nd.pndTsk[k]
			if p.sns < t.SNS || (p.sns == t.SNS && p.vc == nil && p.fnl == nil) {
				*p = pnd{sns: t.SNS, vc: t.VC}
			}
		}
		var fwd []wire.SaveEntry
		for _, t := range m.Tasks {
			k := int(t.Node)
			if k < 0 || k >= nd.n {
				continue
			}
			if p := nd.pndTsk[k]; p.fnl != nil {
				fwd = append(fwd, wire.SaveEntry{Node: t.Node, SNS: p.sns, Result: p.fnl})
			}
		}
		reply := &wire.Message{Type: wire.TSnapshotAck, Reg: nd.reg.Share(), SSN: m.SSN}
		nd.mu.Unlock()
		nd.rt.Send(int(m.From), reply)
		if len(fwd) > 0 {
			// Line 107: a node holding the result of an ongoing task sends
			// it straight to the requesting node.
			nd.rt.Send(int(m.From), &wire.Message{Type: wire.TSave, Saves: fwd})
		}
	}
}

// Route implements node.Router for sharded dispatch. TWriteAck,
// TSnapshotAck and TSaveAck are consumed only by quorum-call acceptance
// predicates (HandleMessage above has no case for any of them), so they
// take the dedicated ack lane. All remaining traffic shards by the
// sending node (per-register FIFO; the save/gossip merge paths are
// monotone, so cross-sender interleavings are legal network reorderings).
func (nd *Node) Route(m *wire.Message) (node.Lane, int) {
	switch m.Type {
	case wire.TWriteAck, wire.TSnapshotAck, wire.TSaveAck:
		return node.LaneAck, 0
	}
	return node.LaneShard, int(m.From)
}

func containsNode(ts []wire.TaskInfo, id int32) bool {
	for _, t := range ts {
		if t.Node == id {
			return true
		}
	}
	return false
}

// State is a copy of a node's principal variables.
type State struct {
	TS, SSN, SNS int64
	Reg          types.RegVector
	PndSNS       []int64
	PndDone      []bool
}

// StateSummary returns a consistent copy of the node's state.
func (nd *Node) StateSummary() State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	st := State{
		TS: nd.ts, SSN: nd.ssn, SNS: nd.sns, Reg: nd.reg.Clone(),
		PndSNS: make([]int64, nd.n), PndDone: make([]bool, nd.n),
	}
	for k := range nd.pndTsk {
		st.PndSNS[k] = nd.pndTsk[k].sns
		st.PndDone[k] = nd.pndTsk[k].fnl != nil
	}
	return st
}

// Corrupt models a transient fault: every algorithm variable is overwritten
// with arbitrary values (§2 fault model).
func (nd *Node) Corrupt(rng *rand.Rand) {
	nd.rt.RecordEvent("transient-fault", "algorithm variables overwritten")
	if nd.acks != nil {
		nd.acks.Reset() // repaired state must be re-gossiped in full
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.ts = rng.Int63n(1 << 20)
	nd.ssn = rng.Int63n(1 << 20)
	nd.sns = rng.Int63n(1 << 20)
	for k := range nd.reg {
		if rng.Intn(2) == 0 {
			nd.reg[k] = types.TSValue{TS: rng.Int63n(1 << 20)}
		}
	}
	for k := range nd.pndTsk {
		switch rng.Intn(3) {
		case 0:
			nd.pndTsk[k] = pnd{}
		case 1:
			vc := make(types.VectorClock, nd.n)
			for i := range vc {
				vc[i] = rng.Int63n(1 << 20)
			}
			nd.pndTsk[k] = pnd{sns: rng.Int63n(1 << 20), vc: vc}
		case 2:
			nd.pndTsk[k] = pnd{sns: rng.Int63n(1 << 20), fnl: types.NewRegVector(nd.n)}
		}
	}
}

// RestartDetectable performs the paper's detectable restart: crash,
// re-initialise every variable, lose channel content, resume. The node's
// operation indices are restored from its peers via gossip (Definition
// 1(iii)) within O(1) cycles.
func (nd *Node) RestartDetectable() {
	nd.rt.RecordEvent("detectable-restart", "variables re-initialised, channels drained")
	nd.rt.RestartDetectable(func() {
		nd.mu.Lock()
		nd.ts, nd.ssn, nd.sns = 0, 0, 0
		nd.reg = types.NewRegVector(nd.n)
		nd.writePending = nil
		nd.pndTsk = make([]pnd, nd.n)
		nd.mu.Unlock()
		if nd.acks != nil {
			nd.acks.Reset()
		}
	})
}

// MaxIndex returns the largest operation index in the node's state — the
// §5 bounded-counter variation watches it against MAXINT.
func (nd *Node) MaxIndex() int64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	m := nd.ts
	for _, v := range []int64{nd.ssn, nd.sns, nd.reg.MaxTS()} {
		if v > m {
			m = v
		}
	}
	for k := range nd.pndTsk {
		if nd.pndTsk[k].sns > m {
			m = nd.pndTsk[k].sns
		}
	}
	return m
}

// RegSnapshot returns a shared-structure snapshot of the register vector
// (bounded-counter reset watcher; polled every tick).
func (nd *Node) RegSnapshot() types.RegVector {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.reg.Share()
}

// AdoptSNS raises the node's own snapshot index to at least s, keeping its
// own pending-task entry consistent (Definition 1 invariant (iii): sns_i
// must dominate every pndTsk_j[i].sns). Recovery from a detectable restart
// uses it so a fresh snapshot task can never collide with a pre-restart
// index — peers still hold old pndTsk entries for this node, complete with
// cached final results, and a colliding sns would let gossip hand one of
// those stale vectors back as the "result" of the new task.
func (nd *Node) AdoptSNS(s int64) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if s > nd.sns {
		nd.sns = s
	}
	if nd.pndTsk[nd.id].sns != nd.sns {
		nd.pndTsk[nd.id] = pnd{sns: nd.sns}
	}
}

// MergeReg folds an external register vector in (MAXIDX gossip).
func (nd *Node) MergeReg(r types.RegVector) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.reg.MergeFrom(r)
	if own := nd.reg[nd.id].TS; own > nd.ts {
		nd.ts = own
	}
}

// InstallReset implements §5's global reset at this node: the register
// vector is replaced wholesale by r, the value the reset consensus decided
// (non-⊥ decided entries restart at write index 1 with their decided
// values), every operation index re-initialises, and the pending-task table
// clears — every snapshot task from the old index era is obsolete by
// construction, since the reset only runs with all nodes frozen and
// drained. Installing the decided vector makes all committing nodes
// byte-identical without requiring the MAXIDX gossip to have converged
// first.
func (nd *Node) InstallReset(r types.RegVector) {
	nd.mu.Lock()
	nd.reg = types.NewRegVector(nd.n)
	for k := 0; k < nd.n && k < len(r); k++ {
		if !r[k].IsBottom() {
			nd.reg[k] = types.TSValue{TS: 1, Val: r[k].Val}
		}
	}
	nd.ts = nd.reg[nd.id].TS
	nd.ssn, nd.sns = 0, 0
	nd.pndTsk = make([]pnd, nd.n)
	nd.mu.Unlock()
	if nd.acks != nil {
		nd.acks.Reset() // pre-reset acks describe collapsed indices
	}
}

// LocalInvariantHolds checks Definition 1's per-node invariants (i)–(iv)
// restricted to locally checkable state: ts ≥ reg[i].ts,
// sns = pndTsk[i].sns, and every pndTsk vc ⪯ VC.
func (nd *Node) LocalInvariantHolds() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.ts < nd.reg[nd.id].TS {
		return false
	}
	if nd.sns != nd.pndTsk[nd.id].sns {
		return false
	}
	vc := nd.vcLocked()
	for k := range nd.pndTsk {
		if nd.pndTsk[k].vc != nil && !nd.pndTsk[k].vc.LessEq(vc) {
			return false
		}
	}
	return true
}
