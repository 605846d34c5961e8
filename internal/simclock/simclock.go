// Package simclock decouples every timed and blocking construct in this
// repository from the wall clock, so the same protocol code can run either
// in real time (production, TCP) or inside a deterministic virtual-time
// simulation (chaos campaigns, fuzz replay).
//
// The paper's guarantees are statements about *asynchronous executions*:
// recovery within O(1) asynchronous cycles, termination under fair
// communication — none of them mention seconds. Validating them against
// time.Sleep therefore wastes wall-clock time (a 300 ms chaos schedule
// costs 300 ms) and couples test outcomes to CI load. simclock makes the
// scheduler a controlled, seeded component, in the spirit of
// FoundationDB-style deterministic simulation: under the virtual clock a
// fault schedule executes in microseconds of CPU and *identically* on
// every run.
//
// # The two implementations
//
// Real() returns a thin wrapper over the time package: timers are runtime
// timers, Wait is a channel select, Go is the go statement. It is the
// default everywhere, and the only mode the TCP transport supports (a
// kernel socket does not consult our clock).
//
// NewVirtual() returns a cooperative lock-step scheduler. Every goroutine
// that participates in the simulation is a *task*, spawned with Go and
// accounted by the scheduler; at most one task executes at any moment, and
// the processor token is handed off only at clock primitives (Sleep, Wait,
// task exit). When no task is runnable — everything is parked on a timer,
// an Event, or a Signal — the clock jumps straight to the next pending
// timer deadline and fires it. That is the quiescence rule: virtual time
// advances exactly when nothing else can happen, so a 300 ms schedule is
// pure CPU, and the interleaving is a deterministic function of the
// program and its seeds (register/park/unpark accounting instead of the OS
// scheduler).
//
// # What may and may not block
//
// Inside a simulation, tasks must block only through this package: Sleep,
// Wait over Waitables (Event, Signal, Timer, Ticker), or Group.Wait.
// Blocking on a bare channel, sync.Cond or sync.WaitGroup that another
// task will release deadlocks the machine — the scheduler cannot see the
// dependency, detects the stall, and panics with a task dump (by design:
// a silent hang would be far harder to debug). Plain mutexes guarding
// short critical sections are fine: tasks are never preempted between
// clock calls, so a well-formed critical section runs to completion before
// any other task resumes.
package simclock

import "time"

// Waitable is anything a task can block on with Clock.Wait: an Event, a
// Signal, a Timer or a Ticker. Waitables are bound to the clock that
// created them; mixing clocks panics.
type Waitable interface {
	isWaitable()
}

// Event is a close-once broadcast: Fire wakes every current and future
// waiter, forever. It replaces the `close(ch)` idiom (shutdown, crash
// notification).
type Event interface {
	Waitable
	// Fire marks the event; idempotent.
	Fire()
	// Fired reports whether Fire has been called (a non-blocking check,
	// the `select { case <-ch: default: }` idiom).
	Fired() bool
}

// Signal is a sticky wake-up: Set makes the signal consumable; a Wait that
// selects it consumes it. It replaces the 1-buffered notification channel
// idiom. With several concurrent waiters all are woken and exactly one
// consumes (the others re-wait), so producers should re-Set while work
// remains.
type Signal interface {
	Waitable
	Set()
}

// Timer is a one-shot alarm. After it fires it stays consumable until a
// Wait selects it. Stop cancels a not-yet-fired timer.
type Timer interface {
	Waitable
	Stop()
}

// Ticker fires repeatedly every interval. Ticks coalesce: like
// time.Ticker, a slow receiver sees at most one pending tick.
type Ticker interface {
	Waitable
	Stop()
}

// Clock is the time source and scheduler interface. Exactly two
// implementations exist: Real() and *Virtual.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine/task for d. Under the virtual
	// clock, d <= 0 yields the processor to the next runnable task.
	Sleep(d time.Duration)
	// Go spawns a goroutine. Under the virtual clock it is registered as
	// a task in the cooperative scheduler; name labels it in stall dumps.
	Go(name string, f func())
	// NewEvent returns an unfired Event.
	NewEvent() Event
	// NewSignal returns an unset Signal.
	NewSignal() Signal
	// NewTimer returns a Timer that fires once after d (d <= 0 fires
	// immediately).
	NewTimer(d time.Duration) Timer
	// NewTicker returns a Ticker firing every d; d must be positive.
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f after d on its own goroutine/task. Stop cancels a
	// not-yet-started f.
	AfterFunc(d time.Duration, f func()) Timer
	// Wait blocks until one of ws is ready, consumes that readiness
	// (Events stay fired) and returns its index. With several ready, the
	// virtual clock deterministically picks the lowest index; the real
	// clock picks like a select statement. At most 5 waitables.
	Wait(ws ...Waitable) int
	// Poll is the non-blocking Wait over one waitable: it reports whether
	// w is ready and, if so, consumes that readiness (Events stay fired).
	// It is how a caller of the real clock's Wait gives one waitable
	// priority over the others.
	Poll(w Waitable) bool
	// NewGroup returns a Group (a clock-aware sync.WaitGroup).
	NewGroup() *Group
	// IsVirtual reports whether this is a virtual (simulated) clock.
	IsVirtual() bool
}

// Or returns c, or the real clock when c is nil — the idiom for Config
// fields whose zero value must mean "real time".
func Or(c Clock) Clock {
	if c == nil {
		return Real()
	}
	return c
}

// Group is a clock-aware replacement for sync.WaitGroup: Wait parks the
// task through the clock, so the counted tasks can still be scheduled to
// run (and call Done) while someone waits. Intended for a single waiter.
type Group struct {
	clk  Clock
	zero Signal
	mu   chMutex
	n    int
}

// NewGroup returns an empty group on clock clk.
func NewGroup(clk Clock) *Group {
	return &Group{clk: clk, zero: clk.NewSignal(), mu: newChMutex()}
}

// Add adds delta to the counter.
func (g *Group) Add(delta int) {
	g.mu.lock()
	g.n += delta
	if g.n < 0 {
		g.mu.unlock()
		panic("simclock: negative Group counter")
	}
	g.mu.unlock()
}

// Done decrements the counter, waking the waiter at zero.
func (g *Group) Done() {
	g.mu.lock()
	g.n--
	neg, wake := g.n < 0, g.n == 0
	g.mu.unlock()
	if neg {
		panic("simclock: negative Group counter")
	}
	if wake {
		g.zero.Set()
	}
}

// Wait blocks until the counter is zero.
func (g *Group) Wait() {
	for {
		g.mu.lock()
		n := g.n
		g.mu.unlock()
		if n == 0 {
			return
		}
		g.clk.Wait(g.zero)
	}
}

// chMutex is a tiny channel-based mutex. A plain sync.Mutex would work
// identically here (Group's critical sections never block on the clock);
// the channel form merely keeps the whole package free of sync primitives
// that could tempt future edits into blocking under them.
type chMutex chan struct{}

func newChMutex() chMutex { return make(chMutex, 1) }

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }
