// Package kernel is the register core of the paper's Algorithms 1 and 3,
// written once: the paper presents Algorithm 3 as Algorithm 1's core plus a
// task layer. State holds the variables, and its methods are the shared
// pseudocode lines with no lock, clock or runtime, so tests and fuzzers
// drive them directly. Gossip is the line-11/78 gossip layer with its
// delta-gossip ack table. Shell, which the algorithms embed, runs State's
// steps under the algorithm's own mutex and sends what they produce. The
// algorithms keep their client and task logic (double collect; Δ, safeReg,
// SAVE). Algorithm 2 reuses the core in baseline mode.
package kernel

import (
	"math"
	"slices"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Task is one pndTsk entry (sns, vc, fnl): node k's latest known snapshot
// task, the vector clock stamping its start and its final result (nil = ⊥).
// VCs and results are immutable once installed and shared by reference.
type Task struct {
	SNS int64
	VC  types.VectorClock
	Fnl types.RegVector
}

// State is one node's register-kernel variables; len(Reg) is the cluster
// size. Pnd is nil for Algorithm 1, which has no snapshot tasks, and every
// step on SNS and Pnd is then a no-op. The owner guards it with its mutex.
type State struct {
	ID  int
	TS  int64 // write-operation index
	SSN int64 // snapshot query index
	SNS int64 // snapshot operation index (Algorithms 2 and 3)
	Reg types.RegVector
	Pnd []Task
}

// New returns node id's initial state in an n-node cluster. tasks selects
// Algorithm 3's pndTsk table.
func New(id, n int, tasks bool) State {
	s := State{ID: id, Reg: types.NewRegVector(n)}
	if tasks {
		s.Pnd = make([]Task, n)
	}
	return s
}

// Reinit re-initialises every variable: the paper's detectable restart.
func (s *State) Reinit() { *s = New(s.ID, len(s.Reg), s.Pnd != nil) }

// syncTS is ts ← max{ts, reg[i].ts}, reporting whether ts moved.
func (s *State) syncTS() bool {
	if own := s.Reg[s.ID].TS; own > s.TS {
		s.TS = own
		return true
	}
	return false
}

// Write is lines 13/84: ts ← max{ts, reg[i].ts}+1 and reg[i] ← (v, ts). It
// returns lReg, the snapshot the WRITE carries. v must already be frozen.
// The max is a no-op in a legal state. After a fault left ts below
// reg[i].ts, plain ts+1 would install an entry older than the one it
// replaces: the write would gather its quorum and be lost. An operation
// invoked after the fault must not depend on a tick cleaning first.
func (s *State) Write(v types.Value) types.RegVector {
	s.syncTS()
	s.TS++
	s.Reg[s.ID] = types.TSValue{TS: s.TS, Val: v}
	return s.Reg.Share()
}

// Fold is line 6 of macro merge(Rec): every received register vector is
// joined into reg.
func (s *State) Fold(recs []*wire.Message) {
	for _, m := range recs {
		s.Reg.MergeFrom(m.Reg)
	}
}

// Merge is macro merge(Rec) (lines 5–7/72): Fold, then the
// self-stabilizing ts ← max{ts, reg[i].ts}.
func (s *State) Merge(recs []*wire.Message) {
	s.Fold(recs)
	s.syncTS()
}

// MergeReg merges one external vector the same way (§5 MAXIDX gossip,
// restart with recovery).
func (s *State) MergeReg(r types.RegVector) {
	s.Reg.MergeFrom(r)
	s.syncTS()
}

// AdoptGossip is the GOSSIP merge (lines 25/98): reg[i] ← max{reg[i],
// m.Entry}, ts ← max{ts, reg[i].ts}, and for Algorithm 3 sns ← max{sns,
// m.SNS} plus the result-forwarding divergence: a gossiped final result of
// the current own task is adopted. It returns the post-merge own indices
// for the GOSSIPack echo and whether the own result landed.
func (s *State) AdoptGossip(m *wire.Message) (echo node.AckState, landed bool) {
	if s.Reg[s.ID].Less(m.Entry) {
		s.Reg[s.ID] = m.Entry
	}
	s.syncTS()
	echo.TS = s.Reg[s.ID].TS
	if s.Pnd == nil {
		return echo, false
	}
	if m.SNS > s.SNS {
		s.SNS = m.SNS
	}
	own := &s.Pnd[s.ID]
	for _, e := range m.Saves {
		if int(e.Node) == s.ID && e.Result != nil && own.SNS == e.SNS && own.Fnl == nil {
			own.Fnl = e.Result
			landed = true
		}
	}
	echo.SNS, echo.Done = s.SNS, own.Fnl != nil
	return echo, landed
}

// ServeWrite is lines 27–28/100–102: merge the writer's vector and reply
// with the result.
func (s *State) ServeWrite(m *wire.Message) *wire.Message {
	s.Reg.MergeFrom(m.Reg)
	return &wire.Message{Type: wire.TWriteAck, Reg: s.Reg.Share()}
}

// ServeSnapshot is lines 30–31/103–107: merge the querier's vector, adopt
// the newer tasks its S∩Δ announces, and reply, echoing the ssn (and
// Algorithm 2's task id). fwd is line 107: a SAVE with the results this
// node holds for the announced tasks, or nil.
func (s *State) ServeSnapshot(m *wire.Message) (reply, fwd *wire.Message) {
	s.Reg.MergeFrom(m.Reg)
	for _, t := range m.Tasks {
		if k := int(t.Node); k >= 0 && k < len(s.Pnd) {
			if p := &s.Pnd[k]; p.SNS < t.SNS || (p.SNS == t.SNS && p.VC == nil && p.Fnl == nil) {
				*p = Task{SNS: t.SNS, VC: t.VC}
			}
		}
	}
	var saves []wire.SaveEntry
	for _, t := range m.Tasks {
		if k := int(t.Node); k >= 0 && k < len(s.Pnd) && s.Pnd[k].Fnl != nil {
			saves = append(saves, wire.SaveEntry{Node: t.Node, SNS: s.Pnd[k].SNS, Result: s.Pnd[k].Fnl})
		}
	}
	reply = &wire.Message{Type: wire.TSnapshotAck, Reg: s.Reg.Share(), SSN: m.SSN, Src: m.Src, TaskSN: m.TaskSN}
	if len(saves) > 0 {
		fwd = &wire.Message{Type: wire.TSave, Saves: saves}
	}
	return reply, fwd
}

// Repairs names what one Clean changed, one bit per repair line.
type Repairs uint8

const (
	RepairTS  Repairs = 1 << iota // lines 10/75: ts raised to reg[i].ts
	RepairSNS                     // line 75: sns raised to pndTsk[i].sns
	RepairVC                      // line 76: an illogical pndTsk vc reset to ⊥
	RepairPnd                     // line 77: own pndTsk entry reset to (sns, ⊥, ⊥)
)

// Clean is the loop's local cleaning: line 10 of Algorithm 1, lines 75–77
// of Algorithm 3. A repair is the footprint of a transient fault or a
// restart. Clean only raises ts and sns, never touches reg, and a second
// Clean repairs nothing.
func (s *State) Clean() Repairs {
	var r Repairs
	if s.syncTS() {
		r |= RepairTS
	}
	if s.Pnd == nil {
		return r
	}
	if own := s.Pnd[s.ID].SNS; own > s.SNS {
		s.SNS = own
		r |= RepairSNS
	}
	vc := s.Reg.VC()
	for k := range s.Pnd {
		if s.Pnd[k].VC != nil && !s.Pnd[k].VC.LessEq(vc) {
			s.Pnd[k].VC = nil
			r |= RepairVC
		}
	}
	if s.SNS != s.Pnd[s.ID].SNS {
		s.Pnd[s.ID] = Task{SNS: s.SNS}
		r |= RepairPnd
	}
	return r
}

// LocalInvariantHolds checks the locally checkable part of Definition 1
// (Theorem 1 for Algorithm 1): ts ≥ reg[i].ts and, for Algorithm 3,
// sns = pndTsk[i].sns and every pndTsk vc ⪯ VC. It holds exactly when
// Clean would repair nothing.
func (s *State) LocalInvariantHolds() bool {
	if s.TS < s.Reg[s.ID].TS {
		return false
	}
	if s.Pnd == nil {
		return true
	}
	if s.SNS != s.Pnd[s.ID].SNS {
		return false
	}
	vc := s.Reg.VC()
	for k := range s.Pnd {
		if s.Pnd[k].VC != nil && !s.Pnd[k].VC.LessEq(vc) {
			return false
		}
	}
	return true
}

// MaxIndex returns the largest operation index in the state, which the §5
// bounded-counter variation watches against MAXINT.
func (s *State) MaxIndex() int64 {
	m := max(s.TS, s.SSN, s.SNS, s.Reg.MaxTS())
	for _, p := range s.Pnd {
		m = max(m, p.SNS)
	}
	return m
}

// InstallReset is §5's global reset at this node: reg becomes r, the
// vector the reset consensus decided, with non-⊥ entries restarting at
// write index 1; every index re-initialises and the task table clears
// (the reset runs with all nodes frozen and drained). Installing the
// decided vector makes every committing node's registers identical even
// before the MAXIDX gossip converged them.
func (s *State) InstallReset(r types.RegVector) {
	s.Reg = types.NewRegVector(len(s.Reg))
	for k := 0; k < len(s.Reg) && k < len(r); k++ {
		if !r[k].IsBottom() {
			s.Reg[k] = types.TSValue{TS: 1, Val: r[k].Val}
		}
	}
	s.TS = s.Reg[s.ID].TS
	s.SSN, s.SNS = 0, 0
	if s.Pnd != nil {
		s.Pnd = make([]Task, len(s.Reg))
	}
}

// AdoptSNS raises sns to at least sns, keeping the own task entry
// consistent (Definition 1(iii)): after a restart with recovery, a fresh
// task must not collide with a pre-restart index whose result peers hold.
func (s *State) AdoptSNS(sns int64) {
	if s.Pnd == nil {
		return
	}
	s.SNS = max(s.SNS, sns)
	if s.Pnd[s.ID].SNS != s.SNS {
		s.Pnd[s.ID] = Task{SNS: s.SNS}
	}
}

// View is a copy of a node's principal variables. PndSNS and PndDone are
// nil for Algorithm 1.
type View struct {
	TS, SSN, SNS int64
	Reg          types.RegVector
	PndSNS       []int64
	PndDone      []bool
}

// View returns a deep copy of (ts, ssn, sns, reg) and the task indices.
func (s *State) View() View {
	v := View{TS: s.TS, SSN: s.SSN, SNS: s.SNS, Reg: s.Reg.Clone()}
	if s.Pnd != nil {
		v.PndSNS, v.PndDone = make([]int64, len(s.Pnd)), make([]bool, len(s.Pnd))
		for k, p := range s.Pnd {
			v.PndSNS[k], v.PndDone[k] = p.SNS, p.Fnl != nil
		}
	}
	return v
}

// Outbox is one iteration's gossip payloads (line 11/78): reg[k] for each
// p_k and, for Algorithm 3, pndTsk[k]. The sns sent to p_k is
// pndTsk[k].sns, as reg[k] restores p_k's own register (Definition
// 1(iii)); the sender's own sns would make every node adopt the global
// maximum, and line 77 would fabricate phantom tasks everywhere.
type Outbox struct {
	reg types.RegVector
	pnd []Task
}

// Outbox captures the payloads of this iteration's gossip.
func (s *State) Outbox() Outbox { return Outbox{reg: s.Reg.Share(), pnd: slices.Clone(s.Pnd)} }

// Full is the paper's GOSSIP to p_k.
func (o Outbox) Full(k int) *wire.Message {
	m := &wire.Message{Type: wire.TGossip, Entry: o.reg[k]}
	if o.pnd != nil {
		t := o.pnd[k]
		m.SNS = t.SNS
		m.Tasks = []wire.TaskInfo{{Node: int32(k), SNS: t.SNS, VC: t.VC}}
		m.Saves = []wire.SaveEntry{{Node: int32(k), SNS: t.SNS, Result: t.Fnl}}
	}
	return m
}

// absentEntry is the Entry of a delta trimmed of reg[k]: the least TSValue,
// which the merge max{reg[k], m.Entry} of line 98 never adopts, whatever
// index p_k's own entry holds and whatever its ack reported. It has the
// wire size of ⊥, so trimming changes no message's encoded size.
var absentEntry = types.TSValue{TS: math.MinInt64}

// Delta is the GOSSIP to a p_k whose fresh GOSSIPack reported st: nil when
// st covers everything Full(k) carries, else Full(k) trimmed to what it
// does not. Receivers read only Entry, SNS and Saves (Tasks mirror SNS).
func (o Outbox) Delta(k int, st node.AckState) *wire.Message {
	e := o.reg[k]
	if o.pnd == nil {
		if st.TS >= e.TS {
			return nil
		}
		return o.Full(k)
	}
	t := o.pnd[k]
	result := t.Fnl != nil && (t.SNS > st.SNS || (t.SNS == st.SNS && !st.Done))
	if e.TS <= st.TS && t.SNS <= st.SNS && !result {
		return nil
	}
	m := &wire.Message{Type: wire.TGossip, SNS: t.SNS, Entry: absentEntry}
	if e.TS > st.TS {
		m.Entry = e
	}
	if result {
		m.Saves = []wire.SaveEntry{{Node: int32(k), SNS: t.SNS, Result: t.Fnl}}
	}
	return m
}
