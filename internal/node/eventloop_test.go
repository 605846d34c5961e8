package node

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// parkAlg models the client/loop hand-off of Algorithms 2 and 3: a client
// parks work and kicks; ServePending (on-demand or as the tail of Tick)
// completes it. signal chooses whether completion wakes the client, so a
// test can lose the wake-up on purpose.
type parkAlg struct {
	view   *ObjView
	signal bool

	parked atomic.Bool
	done   atomic.Bool
	ticks  atomic.Int64 // full iterations: what gossips and counts as a cycle
	serves atomic.Int64 // ServePending calls, from Tick and on demand
}

func (a *parkAlg) HandleMessage(*wire.Message) {}

func (a *parkAlg) Tick() {
	a.ticks.Add(1)
	a.ServePending()
}

// onDemand is how many ServePending calls on-demand iterations made.
func (a *parkAlg) onDemand() int64 { return a.serves.Load() - a.ticks.Load() }

func (a *parkAlg) ServePending() {
	a.serves.Add(1)
	if a.parked.Swap(false) {
		a.done.Store(true)
		if a.signal {
			a.view.Wake()
		}
	}
}

// op is one client operation; it returns the virtual time it took.
func (a *parkAlg) op(v *simclock.Virtual) (time.Duration, error) {
	start := v.Now()
	a.done.Store(false)
	a.parked.Store(true)
	a.view.Kick()
	err := a.view.WaitUntil(a.done.Load)
	return v.Since(start), err
}

// virtualHost runs f against one started runtime hosting the given
// algorithms on a virtual clock with LoopInterval li.
func virtualHost(t *testing.T, li time.Duration, algs []*parkAlg, f func(v *simclock.Virtual, rt *Runtime)) {
	t.Helper()
	v := simclock.NewVirtual()
	v.Run(t.Name(), func() {
		net := netsim.New(netsim.Config{N: 1, Seed: 5, Clock: v})
		defer net.Close()
		rt := NewHost(0, net, Options{LoopInterval: li, Clock: v})
		for _, a := range algs {
			a.view = rt.AddObject(a)
		}
		rt.Start()
		defer rt.Close()
		f(v, rt)
	})
}

// TestVirtualKickServesBeforeTheNextTick: a kicked operation whose
// completion is signalled takes no virtual time at all — it waits neither
// for the loop's next tick nor for WaitUntil's — and the on-demand
// iteration that served it is not a cycle.
func TestVirtualKickServesBeforeTheNextTick(t *testing.T) {
	const li = 10 * time.Millisecond
	a := &parkAlg{signal: true}
	virtualHost(t, li, []*parkAlg{a}, func(v *simclock.Virtual, rt *Runtime) {
		v.Sleep(li*3 + li/2) // mid-interval: the next tick is li/2 away
		cycles := rt.LoopCount()
		took, err := a.op(v)
		if err != nil || took != 0 {
			t.Errorf("kicked operation took %v (err %v), want 0", took, err)
		}
		if got := rt.LoopCount(); got != cycles {
			t.Errorf("LoopCount moved %d → %d across an on-demand iteration", cycles, got)
		}
		if rt.LoopKicks() != 1 || rt.OnDemandIterations() != 1 || a.onDemand() != 1 {
			t.Errorf("kicks=%d on-demand=%d served=%d, want 1/1/1",
				rt.LoopKicks(), rt.OnDemandIterations(), a.onDemand())
		}
	})
}

// TestVirtualWaitUntilSurvivesALostWakeup: when the completion signal never
// comes, WaitUntil's LoopInterval ticker re-checks the condition, so the
// operation costs one extra LoopInterval — not forever.
func TestVirtualWaitUntilSurvivesALostWakeup(t *testing.T) {
	const li = 10 * time.Millisecond
	a := &parkAlg{signal: false}
	virtualHost(t, li, []*parkAlg{a}, func(v *simclock.Virtual, rt *Runtime) {
		v.Sleep(li*3 + li/2)
		took, err := a.op(v)
		if err != nil {
			t.Error(err)
		}
		if took <= 0 || took > li {
			t.Errorf("operation with a lost wake-up took %v, want within (0, %v]", took, li)
		}
	})
}

// TestVirtualWaitUntilAbortsOnCrashAndClose: a client blocked in WaitUntil
// on a condition that never holds returns ErrCrashed when the node crashes
// and ErrClosed when it shuts down.
func TestVirtualWaitUntilAbortsOnCrashAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Runtime)
		want error
	}{
		{"crash", (*Runtime).Crash, ErrCrashed},
		{"close", (*Runtime).Close, ErrClosed},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := &parkAlg{}
			virtualHost(t, time.Millisecond, []*parkAlg{a}, func(v *simclock.Virtual, rt *Runtime) {
				var err error
				g := v.NewGroup()
				g.Add(1)
				v.Go("client", func() {
					defer g.Done()
					err = a.view.WaitUntil(func() bool { return false })
				})
				v.Sleep(5 * time.Millisecond)
				tc.stop(rt)
				g.Wait()
				if !errors.Is(err, tc.want) {
					t.Errorf("WaitUntil returned %v, want %v", err, tc.want)
				}
			})
		})
	}
}

// TestVirtualKickIsPerObject hosts two objects on one runtime and keeps
// kicking object 0: object 1 gets no on-demand iteration, and neither
// object gets a full iteration (the one that gossips and counts as a
// cycle) beyond the LoopInterval cadence.
func TestVirtualKickIsPerObject(t *testing.T) {
	const li = time.Millisecond
	const span = 50 * li
	a0, a1 := &parkAlg{signal: true}, &parkAlg{signal: true}
	virtualHost(t, li, []*parkAlg{a0, a1}, func(v *simclock.Virtual, rt *Runtime) {
		ops := 0
		for end := v.Now().Add(span); v.Now().Before(end); v.Sleep(li / 4) {
			if _, err := a0.op(v); err != nil {
				t.Error(err)
				return
			}
			ops++
		}
		if got := a1.onDemand(); got != 0 {
			t.Errorf("object 1 ran %d on-demand iterations for object 0's kicks", got)
		}
		if got := a0.onDemand(); got < int64(ops)/2 {
			t.Errorf("object 0: %d on-demand iterations for %d operations", got, ops)
		}
		cycles := rt.LoopCount()
		if want := int64(span / li); cycles < want-1 || cycles > want {
			t.Errorf("LoopCount = %d after %v at LoopInterval %v under %d kicks, want %d±1", cycles, span, li, ops, want)
		}
		for i, a := range []*parkAlg{a0, a1} {
			if got := a.ticks.Load(); got != cycles {
				t.Errorf("object %d ran %d full iterations, LoopCount says %d", i, got, cycles)
			}
		}
	})
}
