package kernel

import (
	"reflect"
	"testing"

	"selfstabsnap/internal/node"
)

// FuzzDeltaGossip checks delta gossip against its reference, the paper's
// full send (line 11/78). The sender's state is arbitrary. The receiver p_k
// is in any state its own cleaning accepts, and its fresh GOSSIPack st is
// truthful: p_k's own entry, sns and result are at least what it echoed.
// Adopting Delta(k, st), or nothing when that is nil, must then leave p_k
// exactly as adopting Full(k) does.
//
// Two facts of legal executions hold for p_k's own entry as well. Node k is
// reg[k]'s only writer, so an index names one value: where the entry has
// the sender's index, it has the sender's value. And an index counts
// writes, so it is ≥ 0: a delta without an entry carries ⊥ at index 0,
// which an entry below 0 would adopt.
func FuzzDeltaGossip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		snd := b.state()
		n := len(snd.Reg)
		k := int(b.next()) % n
		rcv := New(k, n, snd.Pnd != nil)
		b.fill(&rcv)
		own := &rcv.Reg[k]
		own.TS = max(own.TS, 0)
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
