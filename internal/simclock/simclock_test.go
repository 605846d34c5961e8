package simclock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Real-clock semantics: the production backend must behave like the time
// package it wraps, because every pre-existing call site is being ported
// onto it verbatim.

func TestRealTimerFires(t *testing.T) {
	c := Real()
	tm := c.NewTimer(time.Millisecond)
	start := time.Now()
	if got := c.Wait(tm); got != 0 {
		t.Fatalf("Wait = %d, want 0", got)
	}
	if e := time.Since(start); e < 500*time.Microsecond {
		t.Fatalf("timer fired after %v, want >= ~1ms", e)
	}
}

func TestRealTickerRepeatsAndStops(t *testing.T) {
	c := Real()
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		c.Wait(tk)
	}
}

func TestRealEventBroadcast(t *testing.T) {
	c := Real()
	ev := c.NewEvent()
	if ev.Fired() {
		t.Fatal("unfired event reports Fired")
	}
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c.Wait(ev)
			c.Wait(ev) // events stay consumable forever
			done <- struct{}{}
		}()
	}
	ev.Fire()
	ev.Fire() // idempotent
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("event waiter never woke")
		}
	}
	if !ev.Fired() {
		t.Fatal("fired event reports !Fired")
	}
}

func TestRealSignalCoalesces(t *testing.T) {
	c := Real()
	s := c.NewSignal()
	s.Set()
	s.Set()
	if got := c.Wait(s); got != 0 {
		t.Fatalf("Wait = %d, want 0", got)
	}
	// Second Wait must block: two Sets coalesced into one wake.
	tm := c.NewTimer(5 * time.Millisecond)
	if got := c.Wait(s, tm); got != 1 {
		t.Fatalf("Wait = %d, want 1 (timer); signal failed to coalesce", got)
	}
}

func TestRealAfterFuncRunsAndStops(t *testing.T) {
	c := Real()
	var ran atomic.Bool
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { ran.Store(true); close(fired) })
	<-fired
	if !ran.Load() {
		t.Fatal("AfterFunc body did not run")
	}
	var never atomic.Bool
	tm := c.AfterFunc(time.Hour, func() { never.Store(true) })
	tm.Stop()
	if never.Load() {
		t.Fatal("stopped AfterFunc ran")
	}
}

func TestRealGroup(t *testing.T) {
	c := Real()
	g := c.NewGroup()
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		g.Add(1)
		c.Go("w", func() {
			n.Add(1)
			g.Done()
		})
	}
	g.Wait()
	if n.Load() != 8 {
		t.Fatalf("joined with %d/8 workers done", n.Load())
	}
}

// Virtual-clock semantics.

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual()
	wall := time.Now()
	var elapsed time.Duration
	v.Run("root", func() {
		start := v.Now()
		v.Sleep(10 * time.Hour)
		elapsed = v.Since(start)
	})
	if elapsed != 10*time.Hour {
		t.Fatalf("virtual Sleep advanced %v, want 10h", elapsed)
	}
	if w := time.Since(wall); w > 5*time.Second {
		t.Fatalf("10h virtual sleep took %v of wall time", w)
	}
}

func TestVirtualDeterministicInterleaving(t *testing.T) {
	// Three tasks with staggered periodic sleeps: the visit order must be a
	// pure function of the program, identical on every run.
	run := func() string {
		v := NewVirtual()
		var log []string
		v.Run("root", func() {
			g := v.NewGroup()
			for i, period := range []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond} {
				g.Add(1)
				i, period := i, period
				v.Go(fmt.Sprintf("task%d", i), func() {
					defer g.Done()
					for k := 0; k < 5; k++ {
						v.Sleep(period)
						log = append(log, fmt.Sprintf("%d@%v", i, v.Since(epoch)))
					}
				})
			}
			g.Wait()
		})
		return fmt.Sprint(log)
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Spot-check the quiescence jumps: first wakeups at 3, 5, 6 ms.
	want := "[0@3ms 1@5ms 0@6ms"
	if len(first) < len(want) || first[:len(want)] != want {
		t.Fatalf("schedule prefix = %s, want %s...", first, want)
	}
}

func TestVirtualYieldIsFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.Run("root", func() {
		g := v.NewGroup()
		for i := 0; i < 4; i++ {
			g.Add(1)
			i := i
			v.Go(fmt.Sprintf("t%d", i), func() {
				defer g.Done()
				v.Sleep(0) // yield
				order = append(order, i)
			})
		}
		g.Wait()
	})
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("yield order = %v, want FIFO [0 1 2 3]", order)
	}
}

func TestVirtualTimerTieBreakBySequence(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.Run("root", func() {
		g := v.NewGroup()
		g.Add(2)
		v.AfterFunc(time.Millisecond, func() { order = append(order, "a"); g.Done() })
		v.AfterFunc(time.Millisecond, func() { order = append(order, "b"); g.Done() })
		g.Wait()
	})
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("coincident timers fired as %v, want creation order [a b]", order)
	}
}

func TestVirtualEventBroadcastWakesAllWaiters(t *testing.T) {
	v := NewVirtual()
	var woke []int
	v.Run("root", func() {
		ev := v.NewEvent()
		g := v.NewGroup()
		for i := 0; i < 3; i++ {
			g.Add(1)
			i := i
			v.Go(fmt.Sprintf("w%d", i), func() {
				defer g.Done()
				v.Wait(ev)
				woke = append(woke, i)
			})
		}
		v.Sleep(time.Millisecond) // let all three park
		if ev.Fired() {
			panic("unfired event reports Fired")
		}
		ev.Fire()
		g.Wait()
		if !ev.Fired() {
			panic("fired event reports !Fired")
		}
		v.Wait(ev) // still consumable after everyone woke
	})
	if fmt.Sprint(woke) != "[0 1 2]" {
		t.Fatalf("wake order = %v, want registration order [0 1 2]", woke)
	}
}

func TestVirtualSignalWakeOneConsumes(t *testing.T) {
	v := NewVirtual()
	consumed := 0
	v.Run("root", func() {
		s := v.NewSignal()
		stop := v.NewEvent()
		g := v.NewGroup()
		for i := 0; i < 2; i++ {
			g.Add(1)
			v.Go("c", func() {
				defer g.Done()
				for {
					if v.Wait(stop, s) == 0 {
						return
					}
					consumed++
				}
			})
		}
		v.Sleep(time.Millisecond)
		s.Set()
		s.Set() // before any consumer runs: coalesces with the first
		v.Sleep(time.Millisecond)
		stop.Fire()
		g.Wait()
	})
	if consumed != 1 {
		t.Fatalf("consumed %d signals, want 1 (two Sets with no intervening Wait coalesce)", consumed)
	}
}

func TestVirtualTickerCoalescesAndStops(t *testing.T) {
	v := NewVirtual()
	ticks := 0
	v.Run("root", func() {
		tk := v.NewTicker(time.Millisecond)
		for i := 0; i < 3; i++ {
			v.Wait(tk)
			ticks++
		}
		if got := v.Since(epoch); got != 3*time.Millisecond {
			panic(fmt.Sprintf("3 ticks at %v, want 3ms", got))
		}
		tk.Stop()
		// A stopped ticker must not drive time forward any more: this timer
		// is now the only alarm, so the next wait lands exactly on it.
		tm := v.NewTimer(time.Hour)
		v.Wait(tm)
		if got := v.Since(epoch); got != time.Hour+3*time.Millisecond {
			panic(fmt.Sprintf("after Stop, woke at %v, want 1h3ms", got))
		}
	})
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestVirtualWaitPrefersLowestIndex(t *testing.T) {
	v := NewVirtual()
	v.Run("root", func() {
		a, b := v.NewEvent(), v.NewEvent()
		a.Fire()
		b.Fire()
		if got := v.Wait(b, a); got != 0 {
			panic(fmt.Sprintf("Wait = %d, want 0 (lowest ready index)", got))
		}
	})
}

// TestPollConsumesWithoutBlocking pins Poll on both clocks: false on an
// unready waitable, true exactly once per Signal.Set, true forever on a
// fired Event.
func TestPollConsumesWithoutBlocking(t *testing.T) {
	check := func(c Clock) {
		sig, ev := c.NewSignal(), c.NewEvent()
		if c.Poll(sig) || c.Poll(ev) {
			t.Error("Poll reports an unready waitable ready")
		}
		sig.Set()
		ev.Fire()
		if !c.Poll(sig) || c.Poll(sig) {
			t.Error("Poll must consume a set Signal exactly once")
		}
		if !c.Poll(ev) || !c.Poll(ev) {
			t.Error("a fired Event must stay ready")
		}
	}
	check(Real())
	v := NewVirtual()
	v.Run("root", func() { check(v) })
}

func TestVirtualAfterFuncStop(t *testing.T) {
	v := NewVirtual()
	ran := false
	v.Run("root", func() {
		tm := v.AfterFunc(time.Minute, func() { ran = true })
		tm.Stop()
		v.Sleep(2 * time.Minute)
	})
	if ran {
		t.Fatal("stopped AfterFunc ran")
	}
}

func TestVirtualGroupJoins(t *testing.T) {
	v := NewVirtual()
	sum := 0
	v.Run("root", func() {
		g := v.NewGroup()
		for i := 1; i <= 10; i++ {
			g.Add(1)
			i := i
			v.Go("w", func() {
				defer g.Done()
				v.Sleep(time.Duration(11-i) * time.Millisecond)
				sum += i
			})
		}
		g.Wait()
	})
	if sum != 55 {
		t.Fatalf("sum = %d, want 55 (some workers unjoined)", sum)
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	// The panic fires on the goroutine of the task that parks last — here
	// the root, so the test's recover can observe the dump. (A non-root
	// detector aborts the process by design: a deadlock is a harness bug.)
	v := NewVirtual()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked machine did not panic")
		}
		if s := fmt.Sprint(r); !contains(s, "virtual deadlock") || !contains(s, "root") {
			t.Fatalf("panic = %q, want a deadlock dump naming task %q", s, "root")
		}
	}()
	v.Run("root", func() {
		never := v.NewEvent()
		v.Wait(never) // no one will ever fire this
	})
}

func TestVirtualBlockingOutsideTaskPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep outside a task did not panic")
		}
	}()
	v.Sleep(time.Millisecond)
}

func TestVirtualForeignFireKicksParkedMachine(t *testing.T) {
	// After Run returns (root done), a leftover task parked on an Event is
	// not a deadlock; a foreign goroutine firing that event must hand the
	// idle machine's token back out so the task can finish.
	v := NewVirtual()
	ev := v.NewEvent()
	done := make(chan struct{})
	v.Run("root", func() {
		v.Go("drain", func() {
			v.Wait(ev)
			close(done)
		})
		v.Sleep(time.Millisecond) // let drain park before root exits
	})
	ev.Fire()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("external Fire did not resume the idle machine")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
