package main

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
	"time"

	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
)

// quietSpec is Algorithm 1 on netsim with the do-forever loop and the
// retransmission timer parked, so the only traffic is what the operations
// themselves cause and message counts are exactly reproducible.
var quietSpec = &workload{
	name: "quiet", valueSize: 256,
	loopInterval: time.Hour, retxInterval: time.Hour,
}

// fixedOps seeds every register, then drives a write then a snapshot at
// each node in turn and returns the traffic those 80 operations caused. A
// node that has just completed a write has handled everything sent before
// it, so each snapshot takes exactly one round, and with every register
// set every message has the same size, whatever the scheduling.
func fixedOps(t *testing.T, tr *tracer) metrics.Snapshot {
	t.Helper()
	c, err := assemble(quietSpec, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	r := newRunner(c, 1)
	// A quorum call returns at the third ack; settle lets the servers
	// beyond the majority send theirs before the meters are read.
	settle := func(want int64) {
		for deadline := time.Now().Add(5 * time.Second); c.traffic().Messages < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	var ops tally
	r.seedWrites(&ops)
	settle(clusterSize * 2 * clusterSize)
	before := c.traffic()
	if tr != nil {
		tr.start()
	}
	for i := 0; i < 40; i++ {
		cl := r.clients[i%clusterSize]
		r.write(cl, &ops, time.Time{})
		r.snapshot(cl, &ops, time.Time{}, true)
	}
	settle(before.Messages + 80*2*clusterSize)
	if tr != nil {
		tr.stop()
	}
	if st := ops.total(); st.failed != 0 {
		t.Fatalf("%d operations failed: %v", st.failed, st.violation)
	}
	return c.traffic().Sub(before)
}

func TestDecoratorIsTransparent(t *testing.T) {
	bare := fixedOps(t, nil)
	tr := newTracer()
	traced := fixedOps(t, tr)
	if !reflect.DeepEqual(bare.PerType, traced.PerType) {
		t.Fatalf("per-type traffic differs:\nbare   %v\ntraced %v", bare.PerType, traced.PerType)
	}
	if bare.Messages != traced.Messages || bare.Bytes != traced.Bytes {
		t.Fatalf("totals differ: bare %d msgs %d B, traced %d msgs %d B", bare.Messages, bare.Bytes, traced.Messages, traced.Bytes)
	}

	// The runtime must still find the broadcast fast path through the
	// decorator, and must have used it: every request went out as one
	// SendMany to all five nodes.
	net := netsim.New(netsim.Config{N: clusterSize, Seed: 1})
	defer net.Close()
	if _, ok := newTracedTransport(net, tr).(netsim.ManySender); !ok {
		t.Fatal("tracedTransport hides netsim.ManySender")
	}
	st := tr.analyze()
	broadcasts := 0
	for i := range tr.nodes {
		for _, s := range tr.nodes[i].sends {
			if isRequest(s.typ) {
				if bits.OnesCount32(s.to) != clusterSize {
					t.Fatalf("request sent to %d nodes in one call, want %d", bits.OnesCount32(s.to), clusterSize)
				}
				broadcasts++
			}
		}
	}
	if broadcasts != 80 || st.ops != 80 {
		t.Fatalf("%d request broadcasts for %d ops, want 80 and 80", broadcasts, st.ops)
	}
	if st.retx != 0 || st.snapRounds != st.snapOps {
		t.Fatalf("retx %d, %d snapshot rounds for %d snapshots; want 0 and one each", st.retx, st.snapRounds, st.snapOps)
	}
	// Deliveries are joined to their sends: 80 broadcasts x 5 + 400 acks,
	// less the last few whose handle span was still open at the end.
	if n := len(st.sojournNs); n < 760 || n > 800 {
		t.Fatalf("%d deliveries joined to their sends, want about 800", n)
	}
}

// TestSpanAccountingConservesTime checks that, per node, handle time plus
// time blocked in Recv adds up to the traced window: no interval is lost
// or counted twice.
func TestSpanAccountingConservesTime(t *testing.T) {
	tr := newTracer()
	c, err := assemble(findWorkload("sim-alg1"), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	r := newRunner(c, 1)
	var seeded tally
	r.seedWrites(&seeded)
	tr.start()
	loop := r.closedLoop(slicer{}, time.Now().Add(300*time.Millisecond), 0)
	tr.stop()
	c.close()
	if st, got := seeded.total(), loop.total(); got.failed != 0 || st.failed != 0 {
		t.Fatalf("operations failed: %v %v", got.violation, st.violation)
	}
	ts := tr.analyze()
	for i := range ts.handleAllNs {
		sum := time.Duration(ts.handleAllNs[i] + ts.recvWaitNs[i])
		if off := math.Abs(float64(sum-ts.window)) / float64(ts.window); off > 0.02 {
			t.Errorf("node %d: handle %v + recv_wait %v = %v, window %v (off by %.1f%%)",
				i, time.Duration(ts.handleAllNs[i]), time.Duration(ts.recvWaitNs[i]), sum, ts.window, 100*off)
		}
	}
	if ts.ops == 0 || len(ts.sojournNs) == 0 {
		t.Fatalf("no spans recorded: %d ops, %d deliveries", ts.ops, len(ts.sojournNs))
	}
}
