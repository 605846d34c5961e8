package reset

import (
	"fmt"
	"testing"

	"selfstabsnap/internal/consensus"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// fabric wires n engines together in-memory, delivering every Output
// synchronously (recursively). Crashed members neither tick nor receive.
type fabric struct {
	t        *testing.T
	engines  []*Engine
	regs     []types.RegVector
	frozen   []bool
	crashed  []bool
	commits  []int
	installs []types.RegVector
}

func newFabric(t *testing.T, n int) *fabric {
	f := &fabric{
		t: t, regs: make([]types.RegVector, n), frozen: make([]bool, n),
		crashed: make([]bool, n), commits: make([]int, n),
		installs: make([]types.RegVector, n),
	}
	for i := 0; i < n; i++ {
		f.engines = append(f.engines, NewEngine(i, n))
		f.regs[i] = make(types.RegVector, n)
		for k := range f.regs[i] {
			f.regs[i][k] = types.TSValue{TS: 60 + int64(k), Val: types.Value(fmt.Sprintf("v%d", k))}
		}
	}
	return f
}

func (f *fabric) apply(id int, res Result) {
	if res.MergeReg != nil {
		f.regs[id].MergeFrom(res.MergeReg)
	}
	if res.Commit {
		f.commits[id]++
		f.installs[id] = res.Install
		// Install the decided vector with indices collapsed (what the
		// bounded node's InstallReset does).
		for k, e := range res.Install {
			ts := int64(0)
			if e.TS > 0 {
				ts = 1
			}
			f.regs[id][k] = types.TSValue{TS: ts, Val: e.Val}
		}
		f.frozen[id] = false
	}
	for _, out := range res.Outputs {
		for to := range f.engines {
			if to == id || f.crashed[to] {
				continue
			}
			if out.To != Broadcast && out.To != to {
				continue
			}
			m := out.Msg.Clone()
			m.From, m.To = int32(id), int32(to)
			// Share() mirrors the bounded caller: engines see immutable
			// snapshots, never the fabric's live vectors.
			f.apply(to, f.engines[to].OnMessage(m, f.regs[to].Share(), f.frozen[to]))
		}
	}
}

func (f *fabric) tick(id int) {
	if f.crashed[id] {
		return
	}
	// Mirror the bounded watcher: a node participating in a reset freezes
	// once its (simulated) in-flight operations drain — immediately here.
	if f.engines[id].Blocking() {
		f.frozen[id] = true
	}
	f.apply(id, f.engines[id].OnTick(f.regs[id].Share(), f.frozen[id]))
}

func (f *fabric) tickAll() {
	for id := range f.engines {
		f.tick(id)
	}
}

func (f *fabric) run(maxTicks int, done func() bool) {
	for i := 0; i < maxTicks && !done(); i++ {
		f.tickAll()
	}
}

func (f *fabric) allLiveCommitted() bool {
	for id := range f.engines {
		if !f.crashed[id] && f.commits[id] == 0 {
			return false
		}
	}
	return true
}

func TestFullResetRound(t *testing.T) {
	const n = 3
	f := newFabric(t, n)
	f.engines[1].Trigger() // any node may trigger — not just node 0
	f.run(300, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatalf("reset did not commit everywhere: commits=%v", f.commits)
	}
	d := consensus.DigestReg(f.installs[0])
	for id := range f.engines {
		if f.commits[id] != 1 {
			t.Fatalf("node %d committed %d times", id, f.commits[id])
		}
		if consensus.DigestReg(f.installs[id]) != d {
			t.Fatalf("node %d installed a different vector", id)
		}
		if got := f.engines[id].Epoch(); got != 1 {
			t.Fatalf("node %d epoch %d, want 1", id, got)
		}
		if f.engines[id].Active() {
			t.Fatalf("node %d still active after commit", id)
		}
	}
}

// TestCommitWithoutNodeZero is the tentpole property: with the former
// coordinator (node 0) crashed for the whole episode, a reset triggered at
// any other node still commits at every live node, which then resumes
// under the new epoch.
func TestCommitWithoutNodeZero(t *testing.T) {
	const n = 5
	f := newFabric(t, n)
	f.crashed[0] = true
	f.engines[3].Trigger()
	f.run(600, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatalf("reset did not commit with node 0 crashed: commits=%v", f.commits)
	}
	d := consensus.DigestReg(f.installs[1])
	for id := 1; id < n; id++ {
		if consensus.DigestReg(f.installs[id]) != d || f.engines[id].Epoch() != 1 {
			t.Fatalf("node %d disagreed after coordinator-free commit", id)
		}
		if f.engines[id].Blocking() {
			t.Fatalf("node %d still gated after commit", id)
		}
	}
	if f.commits[0] != 0 || f.engines[0].Epoch() != 0 {
		t.Fatal("crashed node advanced impossibly")
	}
}

// TestNoCommitWhileMajorityUnfrozen: consensus must not even be proposed
// until a majority of nodes evidence frozen state.
func TestNoCommitWhileMajorityUnfrozen(t *testing.T) {
	const n = 5
	f := newFabric(t, n)
	f.engines[0].Trigger()
	// Nodes 2,3,4 refuse to freeze: simulate in-flight operations that
	// never drain by pinning frozen=false around each tick.
	for i := 0; i < 100; i++ {
		for id := range f.engines {
			if id < 2 && f.engines[id].Blocking() {
				f.frozen[id] = true
			}
			f.apply(id, f.engines[id].OnTick(f.regs[id], f.frozen[id]))
		}
	}
	for id := range f.engines {
		if f.commits[id] != 0 {
			t.Fatalf("node %d committed with a majority unfrozen", id)
		}
		if f.engines[id].Debug().Proposed {
			t.Fatalf("node %d proposed with a majority unfrozen", id)
		}
	}
	// Let the stragglers freeze: the same episode must now finish.
	f.run(300, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatal("reset did not finish once the majority froze")
	}
}

// TestStragglerCatchesUpViaDecideReplay: a node crashed through the whole
// decision learns it afterwards from its first stale-epoch gossip — the
// replacement for the old coordinator DONE/COMMIT retry loop.
func TestStragglerCatchesUpViaDecideReplay(t *testing.T) {
	const n = 3
	f := newFabric(t, n)
	f.crashed[2] = true
	f.engines[0].Trigger()
	f.run(300, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatal("live majority did not commit")
	}
	// Node 2 resumes, still at epoch 0, and wraps (its registers still
	// show overflow evidence). Its stale TMaxIdx reaches node 0, which
	// replays the decision; node 2 must install it and jump to epoch 1.
	f.crashed[2] = false
	f.engines[2].Trigger()
	f.run(50, func() bool { return f.commits[2] > 0 })
	if f.commits[2] != 1 {
		t.Fatal("straggler never caught up via decide replay")
	}
	if got := f.engines[2].Epoch(); got != 1 {
		t.Fatalf("straggler epoch %d, want 1", got)
	}
	if consensus.DigestReg(f.installs[2]) != consensus.DigestReg(f.installs[0]) {
		t.Fatal("straggler installed a different vector")
	}
}

// TestEpochAdoptionScrubsState pins the corrupted-epoch path: adopting a
// newer epoch must scrub seen/consensus soft state, so a later wrap in the
// adopted epoch cannot observe pre-adoption leftovers.
func TestEpochAdoptionScrubsState(t *testing.T) {
	const n = 5
	e := NewEngine(0, n)
	reg := make(types.RegVector, n)
	e.Trigger()
	// Accumulate frozen evidence from peers 1 and 2 at epoch 0.
	for _, from := range []int32{1, 2} {
		e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: from, Epoch: 0, TS: 1,
			Reg: make(types.RegVector, n)}, reg, false)
	}
	// And a consensus instance mid-flight.
	e.OnMessage(&wire.Message{Type: wire.TCnsPrep, From: 1, Epoch: 0, TS: 6}, reg, false)
	if d := e.Debug(); d.SeenFrozen != 2 {
		t.Fatalf("setup: want 2 frozen peers, got %+v", d)
	}
	// Corrupted-epoch gossip: a peer claims epoch 7.
	res := e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 3, Epoch: 7, TS: 0,
		Reg: make(types.RegVector, n)}, reg, false)
	if res.Rejected || res.Commit {
		t.Fatalf("adoption mishandled: %+v", res)
	}
	d := e.Debug()
	if d.Epoch != 7 {
		t.Fatalf("epoch not adopted: %+v", d)
	}
	if d.SeenFrozen != 0 || d.Proposed {
		t.Fatalf("stale soft state survived adoption: %+v", d)
	}
	// The pre-adoption frozen evidence must not count toward a propose in
	// the adopted epoch: freeze self and one peer (2 of 5 < majority).
	e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 1, Epoch: 7, TS: 1,
		Reg: make(types.RegVector, n)}, reg, true)
	e.OnTick(reg, true)
	if e.Debug().Proposed {
		t.Fatal("proposed off pre-adoption evidence")
	}
}

// TestFrozenEvidenceNotSticky pins the restart bugfix: a peer that froze,
// restarted, and resumed operations (its MAXIDX now carries a different
// register clock and an unfrozen flag) must stop counting toward the
// freeze quorum the moment its fresh gossip arrives.
func TestFrozenEvidenceNotSticky(t *testing.T) {
	const n = 5
	e := NewEngine(0, n)
	reg := make(types.RegVector, n)
	e.Trigger()
	mk := func(ts int64) types.RegVector {
		r := make(types.RegVector, n)
		for k := range r {
			r[k] = types.TSValue{TS: ts}
		}
		return r
	}
	// Peers 1 and 2 freeze (quorum would need 3 of 5 incl. self).
	e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 1, Epoch: 0, TS: 1, Reg: mk(64)}, reg, false)
	e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 2, Epoch: 0, TS: 1, Reg: mk(64)}, reg, false)
	if d := e.Debug(); d.SeenFrozen != 2 {
		t.Fatalf("setup: %+v", d)
	}
	// Peer 2 restarts and resumes: new register clock, unfrozen flag. The
	// old engine kept its ack; the new one must drop the evidence.
	e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 2, Epoch: 0, TS: 0, Reg: mk(3)}, reg, false)
	if d := e.Debug(); d.SeenFrozen != 1 {
		t.Fatalf("frozen evidence was sticky across restart: %+v", d)
	}
	// Self freezes: 2 of 5 frozen — must NOT propose.
	e.OnTick(reg, true)
	if e.Debug().Proposed {
		t.Fatal("proposed counting a restarted node as frozen")
	}
	// Peer 3 freezes: 3 of 5 — now the propose fires.
	e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 3, Epoch: 0, TS: 1, Reg: mk(64)}, reg, true)
	if !e.Debug().Proposed {
		t.Fatal("propose did not fire at a genuine frozen majority")
	}
}

// TestHostileIdsRejected feeds out-of-range and self-forged sender ids
// into every reset-plane message type: each must be counted and dropped
// before touching any quorum bookkeeping.
func TestHostileIdsRejected(t *testing.T) {
	const n = 5
	mkReg := func() types.RegVector { return make(types.RegVector, n) }
	msgs := []struct {
		name string
		msg  *wire.Message
	}{
		{"maxidx", &wire.Message{Type: wire.TMaxIdx, Epoch: 0, TS: 1, Reg: mkReg()}},
		{"cns-prepare", &wire.Message{Type: wire.TCnsPrep, Epoch: 0, TS: 5}},
		{"cns-promise", &wire.Message{Type: wire.TCnsProm, Epoch: 0, TS: 5}},
		{"cns-accept", &wire.Message{Type: wire.TCnsAcc, Epoch: 0, TS: 5, Reg: mkReg()}},
		{"cns-acceptack", &wire.Message{Type: wire.TCnsAccAck, Epoch: 0, TS: 5}},
		{"cns-decide", &wire.Message{Type: wire.TCnsDecide, Epoch: 0, TS: 5, Reg: mkReg()}},
	}
	hostileFroms := []int32{-1, -100, n, n + 7, 2} // 2 == the engine's own id
	for _, tc := range msgs {
		for _, from := range hostileFroms {
			t.Run(fmt.Sprintf("%s/from=%d", tc.name, from), func(t *testing.T) {
				e := NewEngine(2, n)
				before := e.Debug()
				m := tc.msg.Clone()
				m.From = from
				res := e.OnMessage(m, mkReg(), false)
				if !res.Rejected {
					t.Fatalf("hostile From=%d accepted for %s", from, tc.name)
				}
				if len(res.Outputs) != 0 || res.Commit || res.MergeReg != nil {
					t.Fatalf("hostile input produced effects: %+v", res)
				}
				after := e.Debug()
				if after.Rejects != 1 {
					t.Fatalf("reject not metered: %+v", after)
				}
				before.Rejects, after.Rejects = 0, 0
				if before != after {
					t.Fatalf("hostile input mutated state: %+v -> %+v", before, after)
				}
			})
		}
	}
	// Negative epochs and short register vectors are equally hostile.
	e := NewEngine(0, n)
	if res := e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 1, Epoch: -4, TS: 1, Reg: mkReg()}, mkReg(), false); !res.Rejected {
		t.Fatal("negative epoch accepted")
	}
	if res := e.OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 1, Epoch: 0, TS: 1, Reg: make(types.RegVector, 2)}, mkReg(), false); !res.Rejected {
		t.Fatal("short MAXIDX register vector accepted")
	}
	if e.Rejects() != 2 {
		t.Fatalf("rejects=%d, want 2", e.Rejects())
	}
}

// TestMisroutedTypesRejected: a data-plane message handed to the engine
// (a corrupted type or a routing fault) is counted hostile and changes
// nothing.
func TestMisroutedTypesRejected(t *testing.T) {
	const n = 3
	e := NewEngine(0, n)
	reg := make(types.RegVector, n)
	typs := []wire.Type{wire.TWrite, wire.TSnapshotAck, wire.TGossip, wire.TSave}
	for _, typ := range typs {
		res := e.OnMessage(&wire.Message{Type: typ, From: 1, Epoch: 0, Reg: reg}, reg, false)
		if !res.Rejected {
			t.Fatalf("misrouted type %v accepted", typ)
		}
	}
	if d := e.Debug(); d.Phase != uint8(phaseIdle) || d.Rejects != uint64(len(typs)) {
		t.Fatalf("misrouted traffic: %+v", d)
	}
}

// TestWrapTickSharesPayload pins the hot-path contract: the wrap tick's
// MAXIDX broadcast must alias the caller's shared snapshot, not deep-copy
// it (reg is already a RegVector.Share product).
func TestWrapTickSharesPayload(t *testing.T) {
	const n = 4
	e := NewEngine(0, n)
	e.Trigger()
	reg := make(types.RegVector, n)
	reg[0] = types.TSValue{TS: 9, Val: types.Value("abc")}
	res := e.OnTick(reg, false)
	var maxidx *wire.Message
	for _, o := range res.Outputs {
		if o.Msg.Type == wire.TMaxIdx {
			maxidx = o.Msg
		}
	}
	if maxidx == nil {
		t.Fatal("wrap tick did not gossip MAXIDX")
	}
	if &maxidx.Reg[0] != &reg[0] {
		t.Fatal("wrap tick deep-copied the register vector; want shared structure")
	}
}

// TestDoubleCommitImpossible: after a commit, retransmitted decides for
// the old epoch must replay, not re-commit.
func TestDoubleCommitImpossible(t *testing.T) {
	const n = 3
	f := newFabric(t, n)
	f.engines[0].Trigger()
	f.run(300, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatal("setup: no commit")
	}
	dec := f.installs[0].Share()
	res := f.engines[0].OnMessage(&wire.Message{Type: wire.TCnsDecide, From: 1, Epoch: 0, TS: 1, Reg: dec},
		f.regs[0], false)
	if res.Commit {
		t.Fatal("stale decide re-committed")
	}
	// The sender evidently knows the same decision we do (it sits at epoch
	// 1 already): replaying back would ping-pong decides forever, so the
	// exchange must go silent.
	if len(res.Outputs) != 0 {
		t.Fatalf("equal-knowledge stale decide echoed: %+v", res)
	}
	if f.engines[0].Epoch() != 1 {
		t.Fatal("epoch moved on stale decide")
	}
	// A genuinely older artifact — stale MAXIDX from a node still at epoch
	// 0 — does get the decision replayed.
	res = f.engines[0].OnMessage(&wire.Message{Type: wire.TMaxIdx, From: 1, Epoch: 0, TS: 1,
		Reg: make(types.RegVector, n)}, f.regs[0], false)
	if len(res.Outputs) != 1 || res.Outputs[0].Msg.Type != wire.TCnsDecide {
		t.Fatalf("stale MAXIDX not answered with decide replay: %+v", res)
	}
}

// TestEventHookObservesLifecycle: trigger/propose/decide/commit events
// reach the hook in order with matching digests.
func TestEventHookObservesLifecycle(t *testing.T) {
	const n = 3
	f := newFabric(t, n)
	var events []Event
	f.engines[0].SetHook(func(ev Event) { events = append(events, ev) })
	f.engines[0].Trigger()
	f.run(300, f.allLiveCommitted)
	if !f.allLiveCommitted() {
		t.Fatal("no commit")
	}
	seen := map[EventKind]bool{}
	for _, ev := range events {
		seen[ev.Kind] = true
		if ev.Kind == EventDecide && ev.Digest != consensus.DigestReg(f.installs[0]) {
			t.Fatal("decide digest mismatch")
		}
	}
	for _, k := range []EventKind{EventTrigger, EventDecide, EventCommit} {
		if !seen[k] {
			t.Fatalf("event kind %d never fired (got %v)", k, events)
		}
	}
}

func TestRestartClearsEngine(t *testing.T) {
	const n = 3
	f := newFabric(t, n)
	f.engines[0].Trigger()
	f.run(300, f.allLiveCommitted)
	if f.engines[1].Epoch() != 1 {
		t.Fatal("setup: no commit")
	}
	f.engines[1].Restart()
	d := f.engines[1].Debug()
	if d.Epoch != 0 || d.Phase != uint8(phaseIdle) || d.HasDecided || d.Proposed || d.SeenFrozen != 0 {
		t.Fatalf("restart left state: %+v", d)
	}
}

func TestIsResetType(t *testing.T) {
	for _, typ := range []wire.Type{
		wire.TMaxIdx,
		wire.TCnsPrep, wire.TCnsProm, wire.TCnsAcc, wire.TCnsAccAck, wire.TCnsDecide,
	} {
		if !IsResetType(typ) {
			t.Errorf("%v must be a reset type", typ)
		}
	}
	for _, typ := range []wire.Type{wire.TWrite, wire.TGossip, wire.TSnapshot, wire.TCollect} {
		if IsResetType(typ) {
			t.Errorf("%v must not be a reset type", typ)
		}
	}
}
