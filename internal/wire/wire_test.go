package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"selfstabsnap/internal/types"
)

func sampleMessages() []*Message {
	return []*Message{
		{Type: TWrite, Reg: types.RegVector{{TS: 1, Val: types.Value("a")}, {}}},
		{Type: TWriteAck, Reg: types.RegVector{{TS: 2, Val: types.Value("bb")}}},
		{Type: TSnapshot, SSN: 42, Reg: types.RegVector{{}, {TS: 3}}},
		{Type: TSnapshotAck, SSN: 42, Src: 2, TaskSN: 7},
		{Type: TGossip, Entry: types.TSValue{TS: 9, Val: types.Value("g")}, SNS: 3,
			Tasks: []TaskInfo{{Node: 1, SNS: 5, VC: types.VectorClock{1, 2, 3}}},
			Saves: []SaveEntry{{Node: 1, SNS: 5, Result: types.RegVector{{TS: 1}}}}},
		{Type: TGossipAck, TS: 9, SNS: 3, TaskSN: 1},
		{Type: TSnap, Src: 4, TaskSN: 17},
		{Type: TEnd, Src: 0, TaskSN: 1, Saves: []SaveEntry{{Node: 0, SNS: 1, Result: types.RegVector{{}, {TS: 8, Val: types.Value("zz")}}}}},
		{Type: TSave, Saves: []SaveEntry{{Node: 2, SNS: 9, Result: types.RegVector{{TS: 4}}}, {Node: 3, SNS: 1}}},
		{Type: TSaveAck, Saves: []SaveEntry{{Node: 2, SNS: 9}}},
		{Type: TRBCast, Src: 1, Tag: 88, Inner: &Message{Type: TSnap, Src: 1, TaskSN: 2}},
		{Type: TRBAck, Src: 1, Tag: 88},
		{Type: TCollect, Tag: 5},
		{Type: TCollectAck, Tag: 5, Reg: types.RegVector{{TS: 1, Val: types.Value("v")}}},
		{Type: TUpdate, Entry: types.TSValue{TS: 3, Val: types.Value("u")}, Tag: 6, Src: 2},
		{Type: TUpdateAck, Tag: 6},
		{Type: TWriteBack, Reg: types.RegVector{{TS: 2}}, Tag: 7},
		{Type: TWriteBackAck, Tag: 7},
		{Type: TMaxIdx, Epoch: 3, TS: 1, Reg: types.RegVector{{TS: 64}}},
		{Type: TMaxIdx, Reg: types.RegVector{{TS: 63, Val: types.Value("m")}, {}}},
		{Type: TCnsProm, Epoch: 4, TS: 9},

		// The bounded variants stamp the reset epoch on data-plane traffic.
		{Type: TWrite, Epoch: 2, Reg: types.RegVector{{TS: 1, Val: types.Value("e")}}},
		{Type: TSnapshotAck, Epoch: 1, SSN: 3, Reg: types.RegVector{{TS: 2}, {TS: 1}}},
		{Type: TGossip, Epoch: 2, Entry: types.TSValue{TS: 5, Val: types.Value("e")}},
		{Type: TGossipAck, Epoch: 1, TS: 2, SNS: 1, TaskSN: 1},
		{Type: TSaveAck, Epoch: 1, Saves: []SaveEntry{{Node: 0, SNS: 4}, {Node: 1, SNS: 2}}},
		{Type: TRBCast, Src: 2, Tag: 90, Inner: &Message{Type: TEnd, Src: 2, TaskSN: 3,
			Saves: []SaveEntry{{Node: 2, SNS: 3, Result: types.RegVector{{TS: 1}}}}}},

		{Type: TCnsPrep, Epoch: 4, TS: 7},
		{Type: TCnsProm, Epoch: 4, TS: 7, SNS: 2, Reg: types.RegVector{{TS: 64, Val: types.Value("p")}}},
		{Type: TCnsAcc, Epoch: 4, TS: 7, Reg: types.RegVector{{TS: 64}, {TS: 63}}},
		{Type: TCnsAccAck, Epoch: 4, TS: 7},
		{Type: TCnsDecide, Epoch: 4, TS: 7, Reg: types.RegVector{{TS: 64}}},

		// Multi-object traffic: the same protocol messages stamped with a
		// nonzero object id (object-keyed wire routing).
		{Type: TWrite, Obj: 7, Reg: types.RegVector{{TS: 1, Val: types.Value("a")}}},
		{Type: TWriteAck, Obj: 7, Reg: types.RegVector{{TS: 2}}},
		{Type: TGossip, Obj: 4095, Entry: types.TSValue{TS: 9, Val: types.Value("g")}},
		{Type: TGossipAck, Obj: 4095, TS: 9},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		m.From, m.To, m.Seq = 1, 2, 99
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", m.Type, err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n  in  %+v\n  out %+v", m.Type, m, got)
		}
	}
}

func messagesEqual(a, b *Message) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Type != b.Type || a.From != b.From || a.To != b.To || a.Obj != b.Obj || a.Seq != b.Seq ||
		a.SSN != b.SSN || a.TS != b.TS || a.SNS != b.SNS || a.Src != b.Src ||
		a.TaskSN != b.TaskSN || a.Tag != b.Tag || a.Epoch != b.Epoch {
		return false
	}
	if !a.Reg.Equal(b.Reg) && !(len(a.Reg) == 0 && len(b.Reg) == 0) {
		return false
	}
	if !a.Entry.Equal(b.Entry) {
		return false
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Saves) != len(b.Saves) {
		return false
	}
	for i := range a.Tasks {
		if a.Tasks[i].Node != b.Tasks[i].Node || a.Tasks[i].SNS != b.Tasks[i].SNS ||
			!a.Tasks[i].VC.Equal(b.Tasks[i].VC) && !(a.Tasks[i].VC == nil && b.Tasks[i].VC == nil) {
			return false
		}
	}
	for i := range a.Saves {
		if a.Saves[i].Node != b.Saves[i].Node || a.Saves[i].SNS != b.Saves[i].SNS {
			return false
		}
		ra, rb := a.Saves[i].Result, b.Saves[i].Result
		if !ra.Equal(rb) && !(len(ra) == 0 && len(rb) == 0) {
			return false
		}
	}
	return messagesEqual(a.Inner, b.Inner)
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	b := Marshal(&Message{Type: TGossip, Entry: types.TSValue{TS: 1, Val: types.Value("xyz")}})
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(b))
		}
	}
}

func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	b := Marshal(&Message{Type: TWrite})
	if _, err := Unmarshal(append(b, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestUnmarshalRejectsBadType(t *testing.T) {
	b := Marshal(&Message{Type: TWrite})
	b[0] = 0 // TInvalid
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("invalid type accepted")
	}
	b[0] = 200 // out of range
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// TestUnmarshalRejectsNegativeObj: a negative object id can only come
// from a fault (nothing legitimate produces one), so the codec rejects it
// at the same layer that rejects an unknown Type. Positive out-of-range
// ids decode fine — the dispatcher's object-table bounds guard judges
// those, since only it knows how many objects are configured.
func TestUnmarshalRejectsNegativeObj(t *testing.T) {
	b := Marshal(&Message{Type: TWrite, Obj: 3})
	const objOff = 1 + 4 + 4 // Type, From, To precede Obj
	b[objOff+3] = 0x80       // little-endian sign bit → Obj < 0
	if _, err := Unmarshal(b); err != ErrBadObj {
		t.Fatalf("negative object id: err=%v, want ErrBadObj", err)
	}
	b[objOff+3] = 0x7F // large positive id: decodes, dispatcher's problem
	m, err := Unmarshal(b)
	if err != nil || m.Obj <= 0 {
		t.Fatalf("large positive object id rejected by codec: m=%+v err=%v", m, err)
	}
}

// TestUnmarshalNeverPanics feeds random corruptions of valid frames —
// corrupted packets must produce errors, never panics or huge allocations.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := sampleMessages()
	for i := 0; i < 5000; i++ {
		b := Marshal(msgs[rng.Intn(len(msgs))])
		// Flip up to 4 random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		m, err := Unmarshal(b)
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
	}
	// Pure random garbage.
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		_, _ = Unmarshal(b)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &Message{
		Type: TSnapshot,
		Reg:  types.RegVector{{TS: 1, Val: types.Value("abc")}},
		Tasks: []TaskInfo{
			{Node: 1, SNS: 2, VC: types.VectorClock{1, 2}},
		},
		Saves: []SaveEntry{{Node: 0, SNS: 1, Result: types.RegVector{{TS: 5}}}},
		Inner: &Message{Type: TSnap},
	}
	c := m.Clone()
	c.Reg[0].Val[0] = 'Z'
	c.Tasks[0].VC[0] = 99
	c.Saves[0].Result[0].TS = 99
	c.Inner.Type = TEnd
	if string(m.Reg[0].Val) != "abc" || m.Tasks[0].VC[0] != 1 ||
		m.Saves[0].Result[0].TS != 5 || m.Inner.Type != TSnap {
		t.Error("Clone must deep-copy every field")
	}
	if (*Message)(nil).Clone() != nil {
		t.Error("nil Clone must stay nil")
	}
}

// TestSizeScalesWithPayload pins the size model behind the paper's bit
// complexities: GOSSIP is O(ν) while WRITE is O(n·ν).
func TestSizeScalesWithPayload(t *testing.T) {
	const n, nu = 16, 1024
	val := bytes.Repeat([]byte("x"), nu)
	reg := make(types.RegVector, n)
	for i := range reg {
		reg[i] = types.TSValue{TS: 1, Val: append(types.Value(nil), val...)}
	}
	write := (&Message{Type: TWrite, Reg: reg}).Size()
	gossip := (&Message{Type: TGossip, Entry: types.TSValue{TS: 1, Val: val}}).Size()
	if write < n*nu {
		t.Errorf("WRITE size %d < n·ν = %d", write, n*nu)
	}
	if gossip < nu || gossip > 2*nu {
		t.Errorf("GOSSIP size %d not Θ(ν)=%d", gossip, nu)
	}
	if write < 8*gossip {
		t.Errorf("WRITE (%d) should dwarf GOSSIP (%d) at n=%d", write, gossip, n)
	}
}

// TestSizeMatchesEncoding pins the invariant the transports' metering and
// Marshal's exact preallocation both depend on: the arithmetic Size()
// equals the marshalled length for every message shape.
func TestSizeMatchesEncoding(t *testing.T) {
	msgs := sampleMessages()
	msgs = append(msgs,
		&Message{Type: TGossip, Tasks: []TaskInfo{{Node: 1, SNS: 2, VC: nil}, {Node: 2, VC: types.VectorClock{}}}},
		&Message{Type: TSave, Saves: []SaveEntry{{Node: 1, SNS: 2, Result: nil}}},
		&Message{Type: TRBCast, Inner: &Message{Type: TRBCast, Inner: &Message{Type: TEnd}}},
	)
	for _, m := range msgs {
		m.From, m.To, m.Seq = 3, 4, 77
		if got, want := m.Size(), len(Marshal(m)); got != want {
			t.Errorf("%s: Size()=%d but encoding is %d bytes", m.Type, got, want)
		}
	}
}

// TestAppendMarshal: an Encoder's first frame, with nothing cached yet, is
// Marshal's encoding appended after whatever b held.
func TestAppendMarshal(t *testing.T) {
	m := sampleMessages()[4] // TGossip with tasks and saves
	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	b, _ := new(Encoder).AppendMarshal(append([]byte(nil), prefix...), m)
	if !bytes.Equal(b[:4], prefix) {
		t.Fatal("AppendMarshal clobbered the existing prefix")
	}
	if !bytes.Equal(b[4:], Marshal(m)) {
		t.Fatal("AppendMarshal encoding differs from Marshal")
	}
	// With exactly Size() spare capacity the append must not reallocate.
	buf := make([]byte, 4, 4+m.Size())
	out, _ := new(Encoder).AppendMarshal(buf, m)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendMarshal reallocated despite sufficient capacity")
	}
}

// TestShallowCloneSharesPayload: ShallowClone must copy the envelope but
// alias every payload slice — the copy-on-write contract the transports'
// broadcast fan-out relies on.
func TestShallowCloneSharesPayload(t *testing.T) {
	m := &Message{
		Type:  TSnapshot,
		From:  1,
		Reg:   types.RegVector{{TS: 1, Val: types.Value("abc")}},
		Tasks: []TaskInfo{{Node: 1, SNS: 4}},
	}
	c := m.ShallowClone()
	c.From, c.To, c.Seq = 7, 8, 9
	if m.From != 1 || m.To != 0 || m.Seq != 0 {
		t.Error("envelope fields aliased")
	}
	if &c.Reg[0] != &m.Reg[0] || &c.Tasks[0] != &m.Tasks[0] {
		t.Error("payload slices copied, want shared")
	}
}

func TestTypeString(t *testing.T) {
	if TWrite.String() != "WRITE" || TSnapshotAck.String() != "SNAPSHOTack" {
		t.Error("type names broken")
	}
	if Type(250).String() == "" {
		t.Error("unknown type must render something")
	}
	if TInvalid.Valid() || Type(250).Valid() {
		t.Error("Valid() broken")
	}
	if !TMaxIdx.Valid() {
		t.Error("TMaxIdx must be valid")
	}
	if !TCnsDecide.Valid() || TCnsPrep.String() != "CNS-PREPARE" {
		t.Error("consensus types must be valid and named")
	}
}
