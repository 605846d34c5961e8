package node

import (
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/wire"
)

// countAlg counts deliveries per hosted object.
type countAlg struct {
	rt      *ObjView
	handled atomic.Int64
}

func (a *countAlg) HandleMessage(m *wire.Message) { a.handled.Add(1) }
func (a *countAlg) Tick()                         {}

// multiObjectHost builds one runtime on node id hosting `objects`
// countAlg instances.
func multiObjectHost(t *testing.T, net netsim.Transport, id, objects int, opts Options) ([]*countAlg, *Runtime) {
	t.Helper()
	algs := make([]*countAlg, objects)
	var host *Runtime
	for o := 0; o < objects; o++ {
		algs[o] = &countAlg{}
		opt := opts
		if o > 0 {
			opt.Attach = host
		}
		v := Bind(id, net, algs[o], opt)
		algs[o].rt = v
		if o == 0 {
			host = v.Runtime
		}
	}
	host.Start()
	t.Cleanup(host.Close)
	return algs, host
}

// TestDispatchBoundsGuardsObjectIds is the table-driven guard test for
// corrupted object ids: a message whose Obj falls outside the receiver's
// object table must be dropped and metered as InvalidObjs — mirroring the
// InvalidTypes discipline for unknown message types. In-range ids must reach
// exactly their object's handler. (Negative ids can only occur in-memory:
// the wire codec already rejects them at decode with ErrBadObj.)
func TestDispatchBoundsGuardsObjectIds(t *testing.T) {
	const objects = 3
	cases := []struct {
		name string
		obj  int32
		want int // handling object index, -1 = dropped+metered
	}{
		{"object 0", 0, 0},
		{"object 1", 1, 1},
		{"last hosted object", objects - 1, objects - 1},
		{"one past the table", objects, -1},
		{"far out of range", 4095, -1},
		{"max int32", 1<<31 - 1, -1},
		{"negative (in-memory; wire decode rejects)", -1, -1},
	}

	// One subtest: "shards=1" names the one dispatcher, as it did when a
	// sharded router ran beside it.
	t.Run("shards=1", func(t *testing.T) {
		net := netsim.New(netsim.Config{N: 2, Seed: 9})
		defer net.Close()
		algs, _ := multiObjectHost(t, net, 1, objects, fastOpts())

		var wantInvalid int64
		wantHandled := make([]int64, objects)
		for _, tc := range cases {
			net.Send(0, 1, &wire.Message{Type: wire.TWrite, Obj: tc.obj})
			if tc.want < 0 {
				wantInvalid++
			} else {
				wantHandled[tc.want]++
			}
		}

		settled := func() bool {
			if net.Counters().InvalidObjs() != wantInvalid {
				return false
			}
			for o := range algs {
				if algs[o].handled.Load() != wantHandled[o] {
					return false
				}
			}
			return true
		}
		deadline := time.Now().Add(5 * time.Second)
		for !settled() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := net.Counters().InvalidObjs(); got != wantInvalid {
			t.Errorf("invalid-object drops = %d, want %d", got, wantInvalid)
		}
		for o := range algs {
			if got := algs[o].handled.Load(); got != wantHandled[o] {
				t.Errorf("object %d handled %d messages, want %d", o, got, wantHandled[o])
			}
		}
	})
}

// TestAddObjectLifecyclePanics pins the object-table construction
// contract: attaching after Start, binding to a host under a different
// node id, and starting an empty host are all programming errors.
func TestAddObjectLifecyclePanics(t *testing.T) {
	net := netsim.New(netsim.Config{N: 2, Seed: 9})
	defer net.Close()
	_, host := multiObjectHost(t, net, 0, 2, fastOpts())

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddObject after Start", func() { host.AddObject(&countAlg{}) })
	mustPanic("Bind with mismatched id", func() {
		opt := fastOpts()
		opt.Attach = host
		Bind(1, net, &countAlg{}, opt)
	})
	mustPanic("Start with no objects", func() { NewHost(1, net, fastOpts()).Start() })
}

// TestObjViewStampsOutgoing asserts every ObjView send path stamps its
// object id: a message relayed cross-object must arrive at the peer's
// matching instance, not at object 0.
func TestObjViewStampsOutgoing(t *testing.T) {
	net := netsim.New(netsim.Config{N: 2, Seed: 9})
	defer net.Close()
	a, _ := multiObjectHost(t, net, 0, 3, fastOpts())
	b, _ := multiObjectHost(t, net, 1, 3, fastOpts())

	a[2].rt.Send(1, &wire.Message{Type: wire.TWrite})
	a[1].rt.SendToMany([]int{1}, &wire.Message{Type: wire.TWrite})
	a[1].rt.Broadcast(&wire.Message{Type: wire.TWrite})
	a[2].rt.GossipTo(func(k int) *wire.Message { return &wire.Message{Type: wire.TGossip} })

	want := map[int]int64{1: 2, 2: 2} // obj1: SendToMany+Broadcast reach the peer, obj2: Send+GossipTo
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b[1].handled.Load() == want[1] && b[2].handled.Load() == want[2] && b[0].handled.Load() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := b[0].handled.Load(); got != 0 {
		t.Errorf("object 0 received %d cross-object messages", got)
	}
	if got := b[1].handled.Load(); got != want[1] {
		t.Errorf("object 1 handled %d, want %d", got, want[1])
	}
	if got := b[2].handled.Load(); got != want[2] {
		t.Errorf("object 2 handled %d, want %d", got, want[2])
	}
}
