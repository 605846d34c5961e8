package deltasnap

import (
	"testing"

	"selfstabsnap/internal/kernel"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// newIdleNode builds a node whose goroutines are never started, so its
// state can be scripted directly — used to unit-test the pure Δ logic
// (line 70) against hand-crafted states.
func newIdleNode(t *testing.T, n int, delta int64) (*Node, func()) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: 1})
	nd := New(0, net, Config{Delta: delta})
	return nd, net.Close
}

func taskNodes(ts []wire.TaskInfo) []int32 {
	out := make([]int32, len(ts))
	for i, t := range ts {
		out[i] = t.Node
	}
	return out
}

func TestDeltaMacro(t *testing.T) {
	const n = 4
	cases := []struct {
		name  string
		delta int64
		setup func(nd *Node)
		want  []int32
	}{
		{
			name:  "empty state → empty Δ",
			delta: 0,
			setup: func(nd *Node) {},
			want:  nil,
		},
		{
			name:  "own pending task always included",
			delta: 1 << 30,
			setup: func(nd *Node) {
				nd.k.Pnd[0] = kernel.Task{SNS: 1}
			},
			want: []int32{0},
		},
		{
			name:  "own finished task excluded",
			delta: 0,
			setup: func(nd *Node) {
				nd.k.Pnd[0] = kernel.Task{SNS: 1, Fnl: types.NewRegVector(n)}
			},
			want: nil,
		},
		{
			name:  "δ=0 includes every pending foreign task",
			delta: 0,
			setup: func(nd *Node) {
				nd.k.Pnd[1] = kernel.Task{SNS: 3}
				nd.k.Pnd[2] = kernel.Task{SNS: 7}
			},
			want: []int32{1, 2},
		},
		{
			name:  "δ=0 excludes sns=0 (no task ever)",
			delta: 0,
			setup: func(nd *Node) {
				nd.k.Pnd[1] = kernel.Task{SNS: 0}
			},
			want: nil,
		},
		{
			name:  "δ>0 excludes foreign task without vc",
			delta: 2,
			setup: func(nd *Node) {
				nd.k.Pnd[1] = kernel.Task{SNS: 3} // vc = ⊥: concurrency unproven
			},
			want: nil,
		},
		{
			name:  "δ>0 excludes foreign task below threshold",
			delta: 5,
			setup: func(nd *Node) {
				nd.k.Reg[2] = types.TSValue{TS: 4, Val: types.Value("x")} // VC = [0,0,4,0]
				nd.k.Pnd[1] = kernel.Task{SNS: 3, VC: types.VectorClock{0, 0, 0, 0}}
				// DiffSum = 4 < δ = 5
			},
			want: nil,
		},
		{
			name:  "δ>0 includes foreign task at threshold",
			delta: 4,
			setup: func(nd *Node) {
				nd.k.Reg[2] = types.TSValue{TS: 4, Val: types.Value("x")}
				nd.k.Pnd[1] = kernel.Task{SNS: 3, VC: types.VectorClock{0, 0, 0, 0}}
				// DiffSum = 4 ≥ δ = 4
			},
			want: []int32{1},
		},
		{
			name:  "finished foreign task never helped",
			delta: 0,
			setup: func(nd *Node) {
				nd.k.Pnd[1] = kernel.Task{SNS: 3, Fnl: types.NewRegVector(n)}
			},
			want: nil,
		},
		{
			name:  "mixed: own + provably-concurrent foreign",
			delta: 1,
			setup: func(nd *Node) {
				nd.k.Pnd[0] = kernel.Task{SNS: 2}
				nd.k.Reg[3] = types.TSValue{TS: 9, Val: types.Value("w")}
				nd.k.Pnd[1] = kernel.Task{SNS: 1, VC: types.VectorClock{0, 0, 0, 7}} // diff 2 ≥ 1
				nd.k.Pnd[2] = kernel.Task{SNS: 1, VC: types.VectorClock{0, 0, 0, 9}} // diff 0 < 1
			},
			want: []int32{0, 1},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nd, cleanup := newIdleNode(t, n, tc.delta)
			defer cleanup()
			nd.mu.Lock()
			tc.setup(nd)
			got := taskNodes(nd.deltaLocked())
			nd.mu.Unlock()
			if len(got) != len(tc.want) {
				t.Fatalf("Δ = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Δ = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestIntersect(t *testing.T) {
	nd, cleanup := newIdleNode(t, 4, 0)
	defer cleanup()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.k.Pnd[1] = kernel.Task{SNS: 1}
	nd.k.Pnd[2] = kernel.Task{SNS: 1}
	// S = {2, 3}: only task 2 is in both S and Δ.
	got := taskNodes(nd.intersectLocked(map[int32]struct{}{2: {}, 3: {}}))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("S∩Δ = %v, want [2]", got)
	}
	// Empty S: empty intersection regardless of Δ.
	if got := nd.intersectLocked(map[int32]struct{}{}); len(got) != 0 {
		t.Fatalf("∅∩Δ = %v", got)
	}
}

// TestDeltaTaskCarriesSampledVC: the Δ tuples carry each task's vc so
// SNAPSHOT messages propagate the concurrency proof to the other nodes.
func TestDeltaTaskCarriesSampledVC(t *testing.T) {
	nd, cleanup := newIdleNode(t, 3, 0)
	defer cleanup()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	vc := types.VectorClock{1, 2, 3}
	nd.k.Pnd[1] = kernel.Task{SNS: 5, VC: vc.Clone()}
	d := nd.deltaLocked()
	if len(d) != 1 || d[0].SNS != 5 || !d[0].VC.Equal(vc) {
		t.Fatalf("Δ tuple = %+v, want sns=5 vc=%v", d, vc)
	}
	// The tuple shares the sampled clock by reference: clocks are immutable
	// once installed (replaced wholesale, never updated element-wise), so Δ
	// construction is allocation-free per task.
	if &d[0].VC[0] != &nd.k.Pnd[1].VC[0] {
		t.Fatal("Δ should share the sampled clock, not copy it")
	}
}
