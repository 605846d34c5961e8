package kernel

import (
	"math"
	"reflect"
	"testing"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
)

// FuzzDeltaGossip checks delta gossip against its reference, the paper's
// full send (line 11/78). The sender's state is arbitrary. The receiver p_k
// is in any state its own cleaning accepts, and its fresh GOSSIPack st is
// truthful: p_k's own entry, sns and result are at least what it echoed.
// Adopting Delta(k, st), or nothing when that is nil, must then leave p_k
// exactly as adopting Full(k) does.
//
// One fact of legal executions holds for p_k's own entry as well. Node k
// is reg[k]'s only writer, so an index names one value: where the entry
// has the sender's index, it has the sender's value. Its index itself is
// arbitrary, negative included.
func FuzzDeltaGossip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		snd := b.state()
		n := len(snd.Reg)
		k := int(b.next()) % n
		rcv := New(k, n, snd.Pnd != nil)
		b.fill(&rcv)
		own := &rcv.Reg[k]
		if e := snd.Reg[k]; own.TS == e.TS {
			own.Val = e.Val
		}
		rcv.Clean()

		st := node.AckState{TS: own.TS - int64(b.next()%4)}
		if rcv.Pnd != nil {
			st.SNS = rcv.SNS - int64(b.next()%4)
			p := rcv.Pnd[k]
			st.Done = b.next()&1 == 1 && (p.SNS != st.SNS || p.Fnl != nil)
		}

		out := snd.Outbox()
		full, delta := clone(rcv), clone(rcv)
		full.AdoptGossip(out.Full(k))
		m := out.Delta(k, st)
		if m != nil {
			delta.AdoptGossip(m)
		}
		if !reflect.DeepEqual(full, delta) {
			t.Fatalf("p%d acked %+v; sender %+v sent delta %+v:\nafter full  %+v\nafter delta %+v", k, st, snd, m, full, delta)
		}
	})
}

// TestTrimmedDeltaKeepsOwnEntry: a delta trimmed of reg[k] leaves p_k's own
// entry alone at every boundary index, whatever the ack it answers claims.
func TestTrimmedDeltaKeepsOwnEntry(t *testing.T) {
	snd := New(0, 2, true)
	snd.Pnd[1].SNS = 5
	for _, ts := range []int64{math.MinInt64, -13, -1, 0, 1, math.MaxInt64} {
		for _, val := range []types.Value{nil, types.Value("v")} {
			rcv := New(1, 2, true)
			rcv.Reg[1] = types.TSValue{TS: ts, Val: val}
			m := snd.Outbox().Delta(1, node.AckState{TS: math.MaxInt64})
			if m == nil {
				t.Fatal("an sns the ack does not cover must be sent")
			}
			rcv.AdoptGossip(m)
			if got := rcv.Reg[1]; !got.Equal(types.TSValue{TS: ts, Val: val}) {
				t.Errorf("own entry (%q,%d) became %v", val, ts, got)
			}
		}
	}
}
