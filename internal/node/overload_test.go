package node

import (
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestCallAcksNotAliased: one arriving message can be accepted by several
// concurrent calls; each call's Rec set holds a private *envelope* (so one
// caller changing its copy's scalars cannot corrupt another's view) while
// the O(n·ν) Reg payload is shared by reference — arriving messages are
// immutable under the zero-copy contract, and the algorithms' merge paths
// only read Rec payloads.
func TestCallAcksNotAliased(t *testing.T) {
	mk := func() *call {
		return newCall(0, 5, 3, func(*wire.Message) bool { return true }, false, simclock.Real().NewSignal())
	}
	c1, c2 := mk(), mk()
	m := &wire.Message{Type: wire.TWriteAck, From: 3, Reg: types.RegVector{{TS: 1, Val: types.Value("v")}}}
	c1.offer(m)
	c2.offer(m)

	msgs1 := c1.take(-1)
	msgs2 := c2.take(-1)
	if msgs1[0] == m || msgs2[0] == m || msgs1[0] == msgs2[0] {
		t.Fatal("calls share the arriving message pointer")
	}
	// Envelope scalars are private to each call's copy.
	msgs1[0].SSN = 999
	if msgs2[0].SSN != 0 || m.SSN != 0 {
		t.Error("envelope mutation leaked across call copies")
	}
	// The payload is shared, not deep-copied: the whole point of accepting
	// acks with a shallow clone.
	if &msgs1[0].Reg[0] != &m.Reg[0] || &msgs2[0].Reg[0] != &m.Reg[0] {
		t.Error("call copies deep-cloned the ack payload instead of sharing it")
	}
	// Replacing a copy's Reg slice wholesale (the only legal way to evolve
	// a payload) stays private to that copy.
	msgs1[0].Reg = types.RegVector{{TS: 9, Val: types.Value("replaced")}}
	if string(msgs2[0].Reg[0].Val) != "v" || string(m.Reg[0].Val) != "v" {
		t.Error("replacing one call's Reg slice leaked into another's")
	}
}

// TestCallTerminatesUnderInboxOverload: with a tiny bounded inbox that
// wraps (evicting queued messages), the quorum call's retransmission must
// still drive it to completion, and every eviction must be metered.
func TestCallTerminatesUnderInboxOverload(t *testing.T) {
	const n = 5
	net := netsim.New(netsim.Config{N: n, Seed: 42, InboxCap: 4})
	defer net.Close()

	// Wrap every inbox before the runtimes start draining.
	for i := 0; i < 50; i++ {
		for k := 0; k < n; k++ {
			net.Send(1, k, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
		}
	}
	if net.Counters().Evictions() == 0 {
		t.Fatal("pre-flood did not wrap the inboxes")
	}

	algs := make([]*echoAlg, n)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		algs[i] = &echoAlg{}
		rts[i] = NewRuntime(i, net, algs[i], fastOpts())
		algs[i].rt = rts[i]
		rts[i].Start()
	}
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()

	// Keep the inboxes churning while the call runs.
	floodDone := make(chan struct{})
	defer close(floodDone)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-floodDone:
				return
			default:
			}
			net.Send(1, i%n, &wire.Message{Type: wire.TGossip, SNS: int64(i)})
			time.Sleep(100 * time.Microsecond)
		}
	}()

	done := make(chan error, 1)
	go func() {
		recs, err := rts[0].Call(CallOpts{
			Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: 11} },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == 11 },
		})
		if err == nil && len(recs) < n/2+1 {
			t.Errorf("quorum call returned %d acks, want ≥ %d", len(recs), n/2+1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quorum call starved by inbox overload")
	}
}
