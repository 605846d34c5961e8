package simclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Virtual is the deterministic lock-step scheduler. It owns a set of
// *tasks* (goroutines spawned with Go, plus the root running inside Run)
// and a single processor token: exactly one task executes at any moment,
// and the token changes hands only inside this package — at Sleep, Wait,
// and task exit. Ready tasks queue FIFO; timers fire in (deadline,
// creation-sequence) order. Because every scheduling decision is a pure
// function of call order, two runs of the same seeded program interleave
// identically — on one core or eight.
//
// Time advances by the quiescence rule: when the ready queue is empty the
// scheduler jumps `now` to the earliest pending timer deadline and fires
// it, repeating until some task becomes runnable. If nothing is runnable
// and no timer is pending while the root is still live, the machine is
// provably stuck and panics with a dump of every parked task.
//
// Goroutines that are not tasks may only touch a Virtual through Now,
// Since, Go, Event.Fire and Signal.Set; the blocking primitives (Sleep,
// Wait, Group.Wait) panic outside a task, because a blocked foreign
// goroutine is invisible to the quiescence rule.
type Virtual struct {
	mu         sync.Mutex
	now        time.Time
	seq        uint64 // orders timers and names anonymous state
	ready      []*vtask
	running    *vtask
	timers     vtimerHeap
	tasks      map[*vtask]struct{}
	rootActive bool
}

// epoch is the virtual time origin. A fixed, zone-free instant keeps
// traces byte-identical across machines.
var epoch = time.Unix(0, 0).UTC()

// NewVirtual returns a virtual clock at the epoch with no tasks.
func NewVirtual() *Virtual {
	return &Virtual{now: epoch, tasks: make(map[*vtask]struct{})}
}

type vtask struct {
	id     uint64
	name   string
	wake   chan struct{} // capacity 1: holds a token grant
	queued bool          // sitting in the ready queue
}

// Run turns the calling goroutine into the root task and executes f under
// the scheduler. It is the entry point of a simulation: everything f
// spawns with Go joins the machine. Run returns when f returns; f should
// join (Group.Wait) every task it spawned first — tasks still parked at
// that point are abandoned where they block.
func (v *Virtual) Run(name string, f func()) {
	v.mu.Lock()
	if v.running != nil || v.rootActive {
		v.mu.Unlock()
		panic("simclock: Virtual.Run while the machine is busy")
	}
	root := v.newTaskLocked(name)
	v.running = root
	v.rootActive = true
	v.mu.Unlock()

	f()

	v.mu.Lock()
	v.rootActive = false
	delete(v.tasks, root)
	next := v.pickLocked()
	v.running = next
	v.mu.Unlock()
	if next != nil {
		next.wake <- struct{}{}
	}
}

func (v *Virtual) newTaskLocked(name string) *vtask {
	v.seq++
	t := &vtask{id: v.seq, name: name, wake: make(chan struct{}, 1)}
	v.tasks[t] = struct{}{}
	return t
}

// Go registers f as a task and queues it; it first runs when the scheduler
// hands it the token. Callable from tasks and foreign goroutines alike.
func (v *Virtual) Go(name string, f func()) {
	v.mu.Lock()
	t := v.newTaskLocked(name)
	go v.taskMain(t, f)
	v.readyLocked(t)
	kicked := v.kickLocked()
	v.mu.Unlock()
	if kicked != nil {
		kicked.wake <- struct{}{}
	}
}

func (v *Virtual) taskMain(t *vtask, f func()) {
	<-t.wake
	f()
	v.mu.Lock()
	delete(v.tasks, t)
	next := v.pickLocked()
	if next == nil && v.rootActive && len(v.tasks) > 0 {
		v.deadlockLocked(fmt.Sprintf("task %q exited", t.name))
	}
	v.running = next
	v.mu.Unlock()
	if next != nil {
		next.wake <- struct{}{}
	}
}

// readyLocked queues t unless it is already queued or currently holds the
// token (waking the running task would mint a second token).
func (v *Virtual) readyLocked(t *vtask) {
	if t.queued || t == v.running {
		return
	}
	t.queued = true
	v.ready = append(v.ready, t)
}

// kickLocked claims the token for the head of the ready queue when no task
// holds it — the foreign-goroutine entry point (Go, Fire, Set called from
// outside the machine). The caller must send on the returned task's wake
// channel after unlocking.
func (v *Virtual) kickLocked() *vtask {
	if v.running != nil || len(v.ready) == 0 {
		return nil
	}
	t := v.ready[0]
	v.ready = v.ready[1:]
	t.queued = false
	v.running = t
	return t
}

// maxBarrenFires bounds consecutive timer firings that ready no task — a
// waiterless ticker rearming forever would otherwise spin the advance loop
// for eternity (virtual time progresses, the program does not).
const maxBarrenFires = 1 << 20

// pickLocked returns the next task to run: the head of the ready queue,
// else it advances `now` timer by timer until a firing readies someone.
// nil means the machine cannot progress (no ready task, no pending timer).
func (v *Virtual) pickLocked() *vtask {
	barren := 0
	for len(v.ready) == 0 {
		if v.timers.Len() == 0 {
			return nil
		}
		tm := heap.Pop(&v.timers).(*vtimer)
		if tm.stopped {
			continue
		}
		if tm.due.After(v.now) {
			v.now = tm.due
		}
		v.fireLocked(tm)
		if barren++; barren > maxBarrenFires {
			panic("simclock: virtual livelock — timers keep firing but no task becomes runnable (orphaned ticker?)")
		}
	}
	t := v.ready[0]
	v.ready = v.ready[1:]
	t.queued = false
	return t
}

func (v *Virtual) fireLocked(tm *vtimer) {
	if tm.fn != nil {
		t := v.newTaskLocked(fmt.Sprintf("afterfunc-%d", tm.vseq))
		go v.taskMain(t, tm.fn)
		v.readyLocked(t)
	} else {
		tm.pending = true
		tm.wakeAllLocked(v)
	}
	if tm.period > 0 {
		tm.due = v.now.Add(tm.period)
		v.seq++
		tm.vseq = v.seq
		heap.Push(&v.timers, tm)
	}
}

// handoffAndPark passes the token on and blocks the calling task until it
// is granted the token again. Called with mu held; returns with mu held.
// The token is released *before* picking, so a timer fired during the
// advance can ready self (readyLocked skips whoever holds the token).
func (v *Virtual) handoffAndPark(self *vtask) {
	v.running = nil
	next := v.pickLocked()
	if next == nil && v.rootActive {
		v.deadlockLocked(fmt.Sprintf("task %q parked", self.name))
	}
	v.running = next
	v.mu.Unlock()
	if next != self {
		if next != nil {
			next.wake <- struct{}{}
		}
		<-self.wake
	}
	v.mu.Lock()
}

func (v *Virtual) deadlockLocked(trigger string) {
	names := make([]string, 0, len(v.tasks))
	for t := range v.tasks {
		names = append(names, fmt.Sprintf("%q(#%d)", t.name, t.id))
	}
	sort.Strings(names)
	panic(fmt.Sprintf("simclock: virtual deadlock after %s at %v — no runnable task, no pending timer; parked: %s",
		trigger, v.now.Sub(epoch), strings.Join(names, ", ")))
}

// currentLocked returns the calling task, panicking for foreign
// goroutines. Only the token holder can be executing clock calls, so the
// caller *is* v.running whenever it is a task at all.
func (v *Virtual) currentLocked(op string) *vtask {
	if v.running == nil {
		v.mu.Unlock()
		panic("simclock: " + op + " on a Virtual clock from outside a task (use Go or Run)")
	}
	return v.running
}

func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

func (v *Virtual) IsVirtual() bool { return true }

func (v *Virtual) NewGroup() *Group { return NewGroup(v) }

// Sleep parks the task until now+d. d <= 0 yields: the task goes to the
// back of the ready queue and resumes after everyone already queued.
func (v *Virtual) Sleep(d time.Duration) {
	v.mu.Lock()
	self := v.currentLocked("Sleep")
	if d <= 0 {
		// Force-enqueue: readyLocked would skip the token holder.
		self.queued = true
		v.ready = append(v.ready, self)
		v.handoffAndPark(self)
		v.mu.Unlock()
		return
	}
	tm := v.newTimerLocked(d, 0, nil)
	for !tm.pending {
		tm.addWaiterLocked(self)
		v.handoffAndPark(self)
		tm.removeWaiterLocked(self)
	}
	v.mu.Unlock()
}

// Wait blocks until one of ws is consumable and returns its index; ties go
// to the lowest index (a deterministic priority order, unlike select).
func (v *Virtual) Wait(ws ...Waitable) int {
	if len(ws) < 1 || len(ws) > 5 {
		panic("simclock: Wait supports 1 to 5 waitables")
	}
	v.mu.Lock()
	self := v.currentLocked("Wait")
	for {
		for i, w := range ws {
			vw := v.state(w)
			if vw.consumable() {
				vw.consume()
				v.mu.Unlock()
				return i
			}
		}
		for _, w := range ws {
			v.state(w).addWaiterLocked(self)
		}
		v.handoffAndPark(self)
		for _, w := range ws {
			v.state(w).removeWaiterLocked(self)
		}
	}
}

// Poll consumes w's readiness if it is ready now. It never parks, so —
// unlike Wait — it is also legal from outside a task.
func (v *Virtual) Poll(w Waitable) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.state(w)
	if !s.consumable() {
		return false
	}
	s.consume()
	return true
}

// ---- waitables ----

// vwstate is the shared core of every virtual waitable: a consumable flag
// plus the ordered list of parked waiters. Waiter wake order is
// registration order — one more interleaving the OS does not get to pick.
type vwstate struct {
	v       *Virtual
	pending bool
	sticky  bool // consume leaves pending set (Event semantics)
	waiters []*vtask
}

func (*vwstate) isWaitable() {}

func (s *vwstate) consumable() bool { return s.pending }

func (s *vwstate) consume() {
	if !s.sticky {
		s.pending = false
	}
}

func (s *vwstate) addWaiterLocked(t *vtask) {
	s.waiters = append(s.waiters, t)
}

func (s *vwstate) removeWaiterLocked(t *vtask) {
	for i, w := range s.waiters {
		if w == t {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

func (s *vwstate) wakeAllLocked(v *Virtual) {
	for _, t := range s.waiters {
		v.readyLocked(t)
	}
}

// state resolves a Waitable to its vwstate, enforcing clock affinity.
func (v *Virtual) state(w Waitable) *vwstate {
	var s *vwstate
	switch x := w.(type) {
	case *vEvent:
		s = &x.vwstate
	case *vSignal:
		s = &x.vwstate
	case *vtimer:
		s = &x.vwstate
	default:
		panic("simclock: waitable from a different clock passed to Virtual.Wait")
	}
	if s.v != v {
		panic("simclock: waitable belongs to a different Virtual clock")
	}
	return s
}

type vEvent struct{ vwstate }

func (v *Virtual) NewEvent() Event {
	return &vEvent{vwstate{v: v, sticky: true}}
}

func (e *vEvent) Fire() {
	v := e.v
	v.mu.Lock()
	if !e.pending {
		e.pending = true
		e.wakeAllLocked(v)
	}
	kicked := v.kickLocked()
	v.mu.Unlock()
	if kicked != nil {
		kicked.wake <- struct{}{}
	}
}

func (e *vEvent) Fired() bool {
	v := e.v
	v.mu.Lock()
	defer v.mu.Unlock()
	return e.pending
}

type vSignal struct{ vwstate }

func (v *Virtual) NewSignal() Signal {
	return &vSignal{vwstate{v: v}}
}

func (s *vSignal) Set() {
	v := s.v
	v.mu.Lock()
	s.pending = true
	s.wakeAllLocked(v)
	kicked := v.kickLocked()
	v.mu.Unlock()
	if kicked != nil {
		kicked.wake <- struct{}{}
	}
}

// vtimer backs Timer, Ticker and AfterFunc. vseq orders simultaneous
// deadlines by creation (and rearm) sequence, so even coincident timers
// fire deterministically.
type vtimer struct {
	vwstate
	due     time.Time
	vseq    uint64
	period  time.Duration // > 0: ticker, rearmed on fire
	fn      func()        // AfterFunc body, spawned as a task on fire
	stopped bool
	index   int // heap position bookkeeping
}

func (v *Virtual) newTimerLocked(d, period time.Duration, fn func()) *vtimer {
	v.seq++
	tm := &vtimer{
		vwstate: vwstate{v: v},
		due:     v.now.Add(d),
		vseq:    v.seq,
		period:  period,
		fn:      fn,
	}
	heap.Push(&v.timers, tm)
	return tm
}

func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerLocked(d, 0, nil)
}

func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker interval")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerLocked(d, d, nil)
}

func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerLocked(d, 0, f)
}

// Stop cancels future firings; the heap entry is skipped lazily when it
// surfaces. An already-pending tick stays consumable.
func (tm *vtimer) Stop() {
	v := tm.v
	v.mu.Lock()
	tm.stopped = true
	v.mu.Unlock()
}

type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }
func (h vtimerHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].vseq < h[j].vseq
}
func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *vtimerHeap) Push(x any) {
	tm := x.(*vtimer)
	tm.index = len(*h)
	*h = append(*h, tm)
}
func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return tm
}
