package consensus

import (
	"fmt"
	"testing"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// fabric wires n machines together in-memory, delivering every Output
// synchronously (recursively), with a crash set whose members neither tick
// nor receive. It mirrors the reset package's engine-test fabric.
type fabric struct {
	t        *testing.T
	machines []*Machine
	crashed  map[int]bool
	decided  []types.RegVector
	hasDec   []bool
}

func newFabric(t *testing.T, n int) *fabric {
	f := &fabric{t: t, crashed: map[int]bool{},
		decided: make([]types.RegVector, n), hasDec: make([]bool, n)}
	for i := 0; i < n; i++ {
		f.machines = append(f.machines, NewMachine(i, n, 1))
	}
	return f
}

func regVec(n int, ts int64) types.RegVector {
	r := make(types.RegVector, n)
	for i := range r {
		r[i] = types.TSValue{TS: ts, Val: types.Value(fmt.Sprintf("v%d", ts))}
	}
	return r
}

func (f *fabric) apply(id int, res Result) {
	if res.Decided && !f.hasDec[id] {
		f.hasDec[id] = true
		f.decided[id] = res.Value
	}
	for _, out := range res.Outputs {
		msg := out.Msg
		for to := range f.machines {
			if to == id || f.crashed[to] {
				continue
			}
			if out.To != Broadcast && out.To != to {
				continue
			}
			m := msg.Clone()
			m.From, m.To = int32(id), int32(to)
			f.apply(to, f.machines[to].OnMessage(m))
		}
	}
}

func (f *fabric) tick(id int) {
	if !f.crashed[id] {
		f.apply(id, f.machines[id].OnTick())
	}
}

func (f *fabric) tickAll() {
	for id := range f.machines {
		f.tick(id)
	}
}

func (f *fabric) allLiveDecided() bool {
	for id := range f.machines {
		if !f.crashed[id] && !f.hasDec[id] {
			return false
		}
	}
	return true
}

func (f *fabric) run(maxTicks int) {
	for i := 0; i < maxTicks && !f.allLiveDecided(); i++ {
		f.tickAll()
	}
}

func TestAllDecideSameProposedValue(t *testing.T) {
	const n = 5
	f := newFabric(t, n)
	proposals := map[uint64]bool{}
	for i, m := range f.machines {
		v := regVec(n, int64(100+i))
		proposals[DigestReg(v)] = true
		f.apply(i, m.Propose(v))
	}
	f.run(200)
	if !f.allLiveDecided() {
		t.Fatal("instance did not decide")
	}
	d0 := DigestReg(f.decided[0])
	for i := 1; i < n; i++ {
		if DigestReg(f.decided[i]) != d0 {
			t.Fatalf("agreement violated: node %d decided %v, node 0 decided %v",
				i, f.decided[i], f.decided[0])
		}
	}
	if !proposals[d0] {
		t.Fatalf("validity violated: decided value %v was never proposed", f.decided[0])
	}
}

// TestDecidesWithLowestIdsCrashed: the coordinator-free property the reset
// layer depends on — any live majority decides, even with node 0 (and 1)
// down from the start.
func TestDecidesWithLowestIdsCrashed(t *testing.T) {
	const n = 5
	f := newFabric(t, n)
	f.crashed[0], f.crashed[1] = true, true
	for i := 2; i < n; i++ {
		f.apply(i, f.machines[i].Propose(regVec(n, int64(10+i))))
	}
	f.run(400)
	if !f.allLiveDecided() {
		t.Fatal("live majority failed to decide with nodes 0,1 crashed")
	}
	d := DigestReg(f.decided[2])
	for i := 3; i < n; i++ {
		if DigestReg(f.decided[i]) != d {
			t.Fatal("agreement violated among survivors")
		}
	}
}

// TestLeaderCrashMidBallotFailsOver: node 0 claims leadership, reaches the
// accept phase, then crashes before a quorum acks; a later ballot must
// adopt node 0's value if any acceptor accepted it, or decide another
// proposal — either way the instance terminates and agrees.
func TestLeaderCrashMidBallotFailsOver(t *testing.T) {
	const n = 5
	f := newFabric(t, n)
	for i := 0; i < n; i++ {
		f.apply(i, f.machines[i].Propose(regVec(n, int64(50+i))))
	}
	// Drive node 0 alone until it is leading in the accept phase.
	for i := 0; i < baseTimeoutTicks+2 && !f.machines[0].Debug().InAccept; i++ {
		f.tick(0)
	}
	if !f.machines[0].Debug().InAccept {
		t.Fatal("node 0 never reached accept phase")
	}
	f.crashed[0] = true
	f.run(600)
	if !f.allLiveDecided() {
		t.Fatal("survivors failed to decide after leader crash")
	}
	d := DigestReg(f.decided[1])
	for i := 2; i < n; i++ {
		if DigestReg(f.decided[i]) != d {
			t.Fatal("agreement violated after failover")
		}
	}
}

// TestValueRuleAdoptsAcceptedValue pins the Paxos value rule directly: a
// new leader whose promise quorum contains an accepted value must push
// that value, not its own proposal.
func TestValueRuleAdoptsAcceptedValue(t *testing.T) {
	const n = 3
	m := NewMachine(1, n, 1)
	own, accepted := regVec(n, 1), regVec(n, 99)
	m.Propose(own)
	// The acceptor side of node 1 has accepted ballot 7 with value
	// `accepted` (from some crashed leader).
	res := m.OnMessage(&wire.Message{Type: wire.TCnsAcc, From: 0, Epoch: 1, TS: 7, Reg: accepted})
	if res.Rejected || len(res.Outputs) != 1 {
		t.Fatalf("accept not processed: %+v", res)
	}
	// Time out into leadership: self-promise carries the accepted value.
	var lead Result
	for i := 0; i < m.timeout()+1; i++ {
		lead = m.OnTick()
	}
	d := m.Debug()
	if !d.Leading {
		t.Fatalf("machine never claimed leadership: %v", d)
	}
	if d.Ballot <= 7 {
		t.Fatalf("new ballot %d must exceed observed ballot 7", d.Ballot)
	}
	// Feed one more promise (majority of 3 = 2) reporting nothing accepted;
	// chosen value must still be the accepted one.
	res = m.OnMessage(&wire.Message{Type: wire.TCnsProm, From: 2, Epoch: 1, TS: d.Ballot, SNS: 0})
	_ = lead
	if !m.Debug().InAccept {
		t.Fatal("promise quorum did not advance to accept phase")
	}
	var acc *wire.Message
	for _, o := range res.Outputs {
		if o.Msg.Type == wire.TCnsAcc {
			acc = o.Msg
		}
	}
	if acc == nil {
		t.Fatal("no accept broadcast after promise quorum")
	}
	if DigestReg(acc.Reg) != DigestReg(accepted) {
		t.Fatalf("value rule violated: pushed %v, want previously accepted %v", acc.Reg, accepted)
	}
}

// TestHostileInputsRejected feeds out-of-range sender ids, non-positive
// ballots, and malformed value vectors into every consensus message type;
// each must be counted and dropped without mutating machine state.
func TestHostileInputsRejected(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		msg  *wire.Message
	}{
		{"prep-from-negative", &wire.Message{Type: wire.TCnsPrep, From: -1, TS: 5}},
		{"prep-from-huge", &wire.Message{Type: wire.TCnsPrep, From: n, TS: 5}},
		{"prep-ballot-zero", &wire.Message{Type: wire.TCnsPrep, From: 1, TS: 0}},
		{"prep-ballot-negative", &wire.Message{Type: wire.TCnsPrep, From: 1, TS: -3}},
		{"prom-from-huge", &wire.Message{Type: wire.TCnsProm, From: 99, TS: 5}},
		{"prom-bad-accballot", &wire.Message{Type: wire.TCnsProm, From: 1, TS: 5, SNS: -2}},
		{"prom-bad-value-len", &wire.Message{Type: wire.TCnsProm, From: 1, TS: 5, SNS: 3, Reg: regVec(n-1, 1)}},
		{"acc-from-negative", &wire.Message{Type: wire.TCnsAcc, From: -7, TS: 5, Reg: regVec(n, 1)}},
		{"acc-bad-value-len", &wire.Message{Type: wire.TCnsAcc, From: 1, TS: 5, Reg: regVec(n+2, 1)}},
		{"acc-nil-value", &wire.Message{Type: wire.TCnsAcc, From: 1, TS: 5}},
		{"accack-from-huge", &wire.Message{Type: wire.TCnsAccAck, From: 1000, TS: 5}},
		{"decide-bad-value-len", &wire.Message{Type: wire.TCnsDecide, From: 1, TS: 5, Reg: regVec(1, 1)}},
		{"decide-from-negative", &wire.Message{Type: wire.TCnsDecide, From: -1, TS: 5, Reg: regVec(n, 1)}},
		{"non-consensus-type", &wire.Message{Type: wire.TWrite, From: 1, TS: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(0, n, 1)
			m.Propose(regVec(n, 1))
			before := m.Debug()
			res := m.OnMessage(tc.msg)
			if !res.Rejected {
				t.Fatalf("hostile input accepted: %+v", tc.msg)
			}
			if len(res.Outputs) != 0 || res.Decided {
				t.Fatalf("hostile input produced effects: %+v", res)
			}
			after := m.Debug()
			before.Rejects, after.Rejects = 0, 0
			if before != after {
				t.Fatalf("hostile input mutated state: %v -> %v", before, after)
			}
			if m.Rejects() != 1 {
				t.Fatalf("reject not metered: %d", m.Rejects())
			}
		})
	}
}

// TestScrubClearsEverything: a corrupted instance scrubbed on epoch
// adoption must look factory-fresh.
func TestScrubClearsEverything(t *testing.T) {
	const n = 3
	m := NewMachine(2, n, 4)
	m.Propose(regVec(n, 8))
	for i := 0; i < m.timeout()+3; i++ {
		m.OnTick()
	}
	m.OnMessage(&wire.Message{Type: wire.TCnsAcc, From: 0, Epoch: 4, TS: 999, Reg: regVec(n, 2)})
	m.Scrub()
	d := m.Debug()
	want := DebugState{Epoch: 4}
	d.Rejects = 0
	if d != want {
		t.Fatalf("scrub left state behind: %+v", d)
	}
	if _, dec := m.Decided(); dec {
		t.Fatal("scrub left a decision")
	}
}

// TestDecideEdgeTriggered: the Decided flag fires exactly once even when
// the decide message is retransmitted.
func TestDecideEdgeTriggered(t *testing.T) {
	const n = 3
	m := NewMachine(0, n, 1)
	dec := regVec(n, 7)
	res := m.OnMessage(&wire.Message{Type: wire.TCnsDecide, From: 1, TS: 5, Reg: dec})
	if !res.Decided || DigestReg(res.Value) != DigestReg(dec) {
		t.Fatalf("first decide not surfaced: %+v", res)
	}
	res = m.OnMessage(&wire.Message{Type: wire.TCnsDecide, From: 2, TS: 5, Reg: regVec(n, 8)})
	if res.Decided {
		t.Fatal("decide fired twice")
	}
	if v, ok := m.Decided(); !ok || DigestReg(v) != DigestReg(dec) {
		t.Fatal("first decision must stick")
	}
}

// TestBallotRotationDisjoint: ballots from different ids never collide,
// and escalation always climbs past the highest observed ballot.
func TestBallotRotationDisjoint(t *testing.T) {
	const n = 5
	seen := map[int64]int{}
	for id := 0; id < n; id++ {
		m := NewMachine(id, n, 1)
		for round := 0; round < 4; round++ {
			b := m.nextBallot()
			if prev, dup := seen[b]; dup {
				t.Fatalf("ballot %d issued by both id %d and id %d", b, prev, id)
			}
			seen[b] = id
			if b <= m.maxSeen {
				t.Fatalf("ballot %d not above maxSeen %d", b, m.maxSeen)
			}
			if b%int64(n) != int64(id) {
				t.Fatalf("ballot %d outside id %d's rotation slot", b, id)
			}
			m.observe(b + int64(id)) // skew maxSeen as hostile traffic would
		}
	}
}

// TestDigestRegDistinguishes: the digest used by the agreement checker
// must separate vectors differing in timestamps or values.
func TestDigestRegDistinguishes(t *testing.T) {
	a, b := regVec(3, 1), regVec(3, 2)
	if DigestReg(a) == DigestReg(b) {
		t.Fatal("digest collision on differing vectors")
	}
	c := regVec(3, 1)
	if DigestReg(a) != DigestReg(c) {
		t.Fatal("equal vectors must hash equal")
	}
	c[1].Val = types.Value("x")
	if DigestReg(a) == DigestReg(c) {
		t.Fatal("value change must change digest")
	}
}

func TestIsConsensusType(t *testing.T) {
	for _, ct := range []wire.Type{wire.TCnsPrep, wire.TCnsProm, wire.TCnsAcc, wire.TCnsAccAck, wire.TCnsDecide} {
		if !IsConsensusType(ct) {
			t.Fatalf("%v must be a consensus type", ct)
		}
	}
	for _, nt := range []wire.Type{wire.TWrite, wire.TMaxIdx, wire.TGossip, wire.TCollect} {
		if IsConsensusType(nt) {
			t.Fatalf("%v must not be a consensus type", nt)
		}
	}
}
