package kernel

import (
	"reflect"
	"testing"

	"selfstabsnap/internal/types"
)

// clone deep-copies s so a test can compare before and after a step.
func clone(s State) State {
	c := s
	c.Reg = s.Reg.Clone()
	if s.Pnd != nil {
		c.Pnd = make([]Task, len(s.Pnd))
		for k, p := range s.Pnd {
			c.Pnd[k] = Task{SNS: p.SNS, VC: p.VC.Clone(), Fnl: p.Fnl.Clone()}
		}
	}
	return c
}

// fuzzBytes hands out fuzz input one byte at a time. Missing bytes read
// as zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// idx reads an arbitrary small signed index.
func (b *fuzzBytes) idx() int64 { return int64(int8(b.next())) }

// decodeState builds an arbitrary State from fuzz bytes: cluster size 1–5,
// any owner id, with or without a task table, and every index an arbitrary
// small signed value (see fill).
func decodeState(data []byte) State {
	b := fuzzBytes(data)
	return b.state()
}

func (b *fuzzBytes) state() State {
	n := 1 + int(b.next()%5)
	s := New(int(b.next())%n, n, b.next()&1 == 1)
	b.fill(&s)
	return s
}

// fill overwrites every variable of s with arbitrary values: indices are
// small signed values, vector clocks may be ⊥ or of the wrong length, and
// results ⊥ or present.
func (b *fuzzBytes) fill(s *State) {
	n := len(s.Reg)
	s.TS, s.SSN, s.SNS = b.idx(), b.idx(), b.idx()
	for k := range s.Reg {
		s.Reg[k].TS = b.idx()
		if c := b.next(); c&1 == 1 {
			s.Reg[k].Val = types.Value{c}
		}
	}
	for k := range s.Pnd {
		s.Pnd[k].SNS = b.idx()
		if c := b.next(); c%3 != 0 {
			s.Pnd[k].VC = make(types.VectorClock, n+int(c%3)-1)
			for i := range s.Pnd[k].VC {
				s.Pnd[k].VC[i] = b.idx()
			}
		}
		if b.next()&1 == 1 {
			s.Pnd[k].Fnl = types.NewRegVector(n)
		}
	}
}

// FuzzClean checks the loop's local cleaning (lines 10 and 75–77) over
// arbitrary states: afterwards the local invariant holds, a second Clean
// repairs nothing, ts and sns never decrease, reg is never touched, and the
// reported repairs name exactly the fields that changed.
func FuzzClean(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeState(data)
		before := clone(s)
		r := s.Clean()
		after := clone(s)

		if !s.LocalInvariantHolds() {
			t.Fatalf("invariant fails after Clean (repairs %04b): %+v", r, s)
		}
		if r2 := s.Clean(); r2 != 0 || !reflect.DeepEqual(s, after) {
			t.Fatalf("second Clean repaired %04b: %+v → %+v", r2, after, s)
		}
		if s.TS < before.TS || s.SNS < before.SNS {
			t.Fatalf("index decreased: ts %d→%d sns %d→%d", before.TS, s.TS, before.SNS, s.SNS)
		}
		if !reflect.DeepEqual(s.Reg, before.Reg) || s.ID != before.ID || s.SSN != before.SSN {
			t.Fatalf("Clean touched reg, id or ssn: %+v → %+v", before, s)
		}
		check := func(bit Repairs, changed bool, what string) {
			t.Helper()
			if (r&bit != 0) != changed {
				t.Fatalf("repairs %04b vs %s changed=%v: %+v → %+v", r, what, changed, before, s)
			}
		}
		check(RepairTS, s.TS != before.TS, "ts")
		check(RepairSNS, s.SNS != before.SNS, "sns")
		if s.Pnd == nil {
			if r&^RepairTS != 0 {
				t.Fatalf("Algorithm 1 state got task repairs %04b", r)
			}
			return
		}
		own := s.ID
		check(RepairPnd, s.Pnd[own].SNS != before.Pnd[own].SNS, "own pndTsk")
		vcCleared := false
		for k := range s.Pnd {
			p, q := before.Pnd[k], s.Pnd[k]
			if k == own && r&RepairPnd != 0 {
				continue // line 77 rewrote the whole entry
			}
			if p.SNS != q.SNS || (p.Fnl == nil) != (q.Fnl == nil) {
				t.Fatalf("pndTsk[%d] changed beyond its vc: %+v → %+v", k, p, q)
			}
			if (p.VC == nil) != (q.VC == nil) {
				if q.VC != nil {
					t.Fatalf("pndTsk[%d].vc appeared from ⊥", k)
				}
				vcCleared = true
			}
		}
		if vcCleared && r&RepairVC == 0 {
			t.Fatalf("a vc was cleared without RepairVC: %+v → %+v", before, s)
		}
		if r&RepairVC != 0 && !vcCleared && r&RepairPnd == 0 {
			t.Fatalf("RepairVC reported, no vc cleared: %+v → %+v", before, s)
		}
	})
}

// TestCleanRepairsEachLine has one case per repair line, each a state that
// violates only that line's condition, and checks both the reported repair
// and the repaired state. Deleting any one line from Clean fails its case.
func TestCleanRepairsEachLine(t *testing.T) {
	reg := func() types.RegVector {
		return types.RegVector{{TS: 4, Val: types.Value("a")}, {TS: 2, Val: types.Value("b")}, {}}
	}
	legal := func() State {
		s := New(0, 3, true)
		s.Reg = reg()
		s.TS, s.SNS = 4, 3
		s.Pnd[0] = Task{SNS: 3}
		s.Pnd[1] = Task{SNS: 5, VC: types.VectorClock{4, 2, 0}}
		return s
	}
	cases := []struct {
		name    string
		tasks   bool
		corrupt func(*State)
		want    Repairs
		check   func(*State) bool
	}{
		{"line 10: Algorithm 1 ts below reg[i].ts", false,
			func(s *State) { s.TS = 1 }, RepairTS,
			func(s *State) bool { return s.TS == 4 }},
		{"line 75: ts below reg[i].ts", true,
			func(s *State) { s.TS = 1 }, RepairTS,
			func(s *State) bool { return s.TS == 4 }},
		{"line 75: sns below pndTsk[i].sns", true,
			func(s *State) { s.SNS = 1 }, RepairSNS,
			func(s *State) bool { return s.SNS == 3 && s.Pnd[0].SNS == 3 }},
		{"line 76: vc not below VC", true,
			func(s *State) { s.Pnd[1].VC = types.VectorClock{9, 2, 0} }, RepairVC,
			func(s *State) bool { return s.Pnd[1].VC == nil && s.Pnd[1].SNS == 5 }},
		{"line 77: own pndTsk behind sns", true,
			func(s *State) { s.Pnd[0] = Task{SNS: 1, Fnl: types.NewRegVector(3)} }, RepairPnd,
			func(s *State) bool { return s.Pnd[0].SNS == 3 && s.Pnd[0].Fnl == nil && s.Pnd[0].VC == nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := legal()
			if !tc.tasks {
				s.Pnd, s.SNS = nil, 0
			}
			if r := s.Clean(); r != 0 {
				t.Fatalf("legal state repaired: %04b", r)
			}
			tc.corrupt(&s)
			if s.LocalInvariantHolds() {
				t.Fatal("broken state passes the invariant")
			}
			if r := s.Clean(); r != tc.want {
				t.Fatalf("repairs %04b, want %04b", r, tc.want)
			}
			if !tc.check(&s) || !s.LocalInvariantHolds() {
				t.Fatalf("not repaired: %+v", s)
			}
		})
	}
}
