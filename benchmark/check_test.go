package main

import (
	"strings"
	"testing"
	"time"

	"selfstabsnap/internal/types"
)

// checkerAt returns a checker in which node k has issued and completed
// seqs[k] writes, and the snapshot showing exactly those writes.
func checkerAt(seqs seqVector) (*checker, types.RegVector) {
	c := &checker{pay: newPayloads(42, 64)}
	snap := types.NewRegVector(clusterSize)
	for k, seq := range seqs {
		c.issued[k].Store(seq)
		c.completed[k].Store(seq)
		if seq > 0 {
			snap[k] = types.TSValue{TS: int64(seq), Val: c.pay.value(k, seq)}
		}
	}
	return c, snap
}

func TestCheckerRejectsSeededNegatives(t *testing.T) {
	seqs := seqVector{5, 3, 0, 7, 1}
	cases := []struct {
		name    string
		corrupt func(c *checker, snap types.RegVector, prev *seqVector)
		want    string // "" = must pass
	}{
		{"faithful snapshot", func(*checker, types.RegVector, *seqVector) {}, ""},
		{"bottom while nothing completed", func(_ *checker, snap types.RegVector, _ *seqVector) {
			snap[2] = types.TSValue{}
		}, ""},
		{"stale entry below completed", func(c *checker, snap types.RegVector, _ *seqVector) {
			snap[0] = types.TSValue{TS: 4, Val: c.pay.value(0, 4)}
		}, "stale"},
		{"bottom after a completed write", func(_ *checker, snap types.RegVector, _ *seqVector) {
			snap[3] = types.TSValue{}
		}, "stale"},
		{"foreign writer id", func(c *checker, snap types.RegVector, _ *seqVector) {
			snap[1] = types.TSValue{TS: 3, Val: c.pay.value(4, 3)}
		}, "written by node 4"},
		{"regressed vector", func(c *checker, snap types.RegVector, prev *seqVector) {
			c.completed[3].Store(2) // the floor alone would let seq 6 pass
			snap[3] = types.TSValue{TS: 6, Val: c.pay.value(3, 6)}
			prev[3] = 7
		}, "regressed"},
		{"truncated value", func(_ *checker, snap types.RegVector, _ *seqVector) {
			snap[4].Val = snap[4].Val[:20]
		}, "truncated"},
		{"flipped filler byte", func(_ *checker, snap types.RegVector, _ *seqVector) {
			v := snap[0].Val.Clone()
			v[40] ^= 1
			snap[0].Val = v
		}, "filler"},
		{"seq never issued", func(c *checker, snap types.RegVector, _ *seqVector) {
			snap[1] = types.TSValue{TS: 9, Val: c.pay.value(1, 9)}
		}, "never issued"},
		{"short vector", func(*checker, types.RegVector, *seqVector) {}, "entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, snap := checkerAt(seqs)
			var prev seqVector
			tc.corrupt(c, snap, &prev)
			floor := c.floor()
			if tc.name == "short vector" {
				snap = snap[:clusterSize-1]
			}
			err := c.check(&prev, floor, snap)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected a legal snapshot: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted a corrupted snapshot")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("rejected for the wrong reason: %v (want %q)", err, tc.want)
			}
		})
	}
}

// lyingNode returns snapshots whose entry 0 is stuck at node 0's first
// write.
type lyingNode struct {
	snapNode
	pay *payloads
}

func (l lyingNode) Snapshot() (types.RegVector, error) {
	snap, err := l.snapNode.Snapshot()
	if err == nil {
		snap[0] = types.TSValue{TS: 1, Val: l.pay.value(0, 1)}
	}
	return snap, err
}

// TestRunFailsOnCorruptedSnapshot hands the load loop a node that returns
// stale snapshots: the operations must be counted as failed and the
// violation must surface, which is what makes the command exit non-zero.
func TestRunFailsOnCorruptedSnapshot(t *testing.T) {
	var st tally
	r, _, err := setUp(findWorkload("sim-alg1"), 1, nil, false, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer r.c.close()
	// Node 0 has completed two writes, so an entry 0 stuck at the first is
	// below the floor of every snapshot client 1 takes through the liar.
	r.write(r.clients[0], &st, time.Time{})
	r.clients[1].nd = lyingNode{r.clients[1].nd, r.chk.pay}
	loop := r.closedLoop(slicer{}, time.Now().Add(5*time.Second), 100)
	got := loop.total()
	if got.failed == 0 || got.violation == nil {
		t.Fatalf("corrupted snapshots passed: %d of %d failed, violation %v", got.failed, got.attempted, got.violation)
	}
	if !strings.Contains(got.violation.Error(), "stale") {
		t.Fatalf("unexpected violation: %v", got.violation)
	}
}

// TestRealRunPassesBothChecks runs 200 operations of each transport's own
// mix on a fresh cluster: every snapshot must pass the inline check and
// the recorded history must be linearizable.
func TestRealRunPassesBothChecks(t *testing.T) {
	for _, name := range []string{"sim-alg1", "tcp-alg1"} {
		t.Run(name, func(t *testing.T) {
			var t7 tally
			r, _, err := setUp(findWorkload(name), 7, nil, true, &t7)
			if err != nil {
				t.Fatal(err)
			}
			defer r.c.close()
			if err := r.verify(&t7, 30*time.Second, 200); err != nil {
				t.Fatalf("verification pass: %v", err)
			}
			st := t7.total()
			if st.attempted != clusterSize+200 || st.failed != 0 {
				t.Fatalf("attempted %d failed %d, want %d and 0", st.attempted, st.failed, clusterSize+200)
			}
		})
	}
}
