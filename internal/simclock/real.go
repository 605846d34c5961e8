package simclock

import (
	"sync"
	"time"
)

// realClock is the production backend: a thin veneer over the time package.
// Every Waitable exposes a 1-capacity `chan struct{}` so Wait compiles down
// to a native select with zero allocation — the hot paths (node.Call,
// Runtime.loop) sit behind allocation-ceiling guard tests.
type realClock struct{}

var theRealClock = &realClock{}

// Real returns the wall-clock backend (a shared singleton).
func Real() Clock { return theRealClock }

func (*realClock) Now() time.Time                  { return time.Now() }
func (*realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (*realClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (*realClock) Go(name string, f func())        { go f() }
func (*realClock) IsVirtual() bool                 { return false }
func (c *realClock) NewGroup() *Group              { return NewGroup(c) }

// realWaitable is the common wake channel all real waitables share in shape.
type realWaitable struct {
	ch chan struct{}
}

func (*realWaitable) isWaitable() {}

type realEvent struct {
	realWaitable
	once sync.Once
}

func (*realClock) NewEvent() Event {
	return &realEvent{realWaitable: realWaitable{ch: make(chan struct{})}}
}

func (e *realEvent) Fire() { e.once.Do(func() { close(e.ch) }) }

func (e *realEvent) Fired() bool {
	select {
	case <-e.ch:
		return true
	default:
		return false
	}
}

type realSignal struct {
	realWaitable
}

func (*realClock) NewSignal() Signal {
	return &realSignal{realWaitable{ch: make(chan struct{}, 1)}}
}

func (s *realSignal) Set() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// realTimer backs both Timer and AfterFunc. The fire side runs on the
// runtime timer goroutine: for a plain timer it pushes into the 1-cap
// channel; for AfterFunc it runs f directly (matching time.AfterFunc).
type realTimer struct {
	realWaitable
	t *time.Timer
}

func (c *realClock) NewTimer(d time.Duration) Timer {
	rt := &realTimer{realWaitable: realWaitable{ch: make(chan struct{}, 1)}}
	rt.t = time.AfterFunc(d, func() {
		select {
		case rt.ch <- struct{}{}:
		default:
		}
	})
	return rt
}

func (rt *realTimer) Stop() { rt.t.Stop() }

func (c *realClock) AfterFunc(d time.Duration, f func()) Timer {
	rt := &realTimer{realWaitable: realWaitable{ch: make(chan struct{}, 1)}}
	rt.t = time.AfterFunc(d, f)
	return rt
}

// realTicker rearms itself from the fire callback, preserving time.Ticker's
// coalescing (a 1-cap channel holds at most one pending tick).
type realTicker struct {
	realWaitable
	mu      sync.Mutex
	t       *time.Timer
	d       time.Duration
	stopped bool
}

func (c *realClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker interval")
	}
	tk := &realTicker{realWaitable: realWaitable{ch: make(chan struct{}, 1)}, d: d}
	tk.mu.Lock()
	tk.t = time.AfterFunc(d, tk.fire)
	tk.mu.Unlock()
	return tk
}

func (tk *realTicker) fire() {
	select {
	case tk.ch <- struct{}{}:
	default:
	}
	tk.mu.Lock()
	if !tk.stopped {
		tk.t.Reset(tk.d)
	}
	tk.mu.Unlock()
}

func (tk *realTicker) Stop() {
	tk.mu.Lock()
	tk.stopped = true
	tk.t.Stop()
	tk.mu.Unlock()
}

// wake extracts the backing channel of any real waitable.
func wake(w Waitable) chan struct{} {
	switch x := w.(type) {
	case *realEvent:
		return x.ch
	case *realSignal:
		return x.ch
	case *realTimer:
		return x.ch
	case *realTicker:
		return x.ch
	default:
		panic("simclock: waitable from a different clock passed to Real().Wait")
	}
}

func (*realClock) Poll(w Waitable) bool {
	select {
	case <-wake(w):
		return true
	default:
		return false
	}
}

// Wait is a hand-rolled select over up to five wake channels. reflect.Select
// would handle any arity but allocates; the repo's maximum arity is five
// (node.Call waits on close, crash, ack-notify, the retransmission ticker
// and the reset-abort event), so the explicit forms keep Wait off the
// allocation profile.
func (*realClock) Wait(ws ...Waitable) int {
	switch len(ws) {
	case 1:
		<-wake(ws[0])
		return 0
	case 2:
		select {
		case <-wake(ws[0]):
			return 0
		case <-wake(ws[1]):
			return 1
		}
	case 3:
		select {
		case <-wake(ws[0]):
			return 0
		case <-wake(ws[1]):
			return 1
		case <-wake(ws[2]):
			return 2
		}
	case 4:
		select {
		case <-wake(ws[0]):
			return 0
		case <-wake(ws[1]):
			return 1
		case <-wake(ws[2]):
			return 2
		case <-wake(ws[3]):
			return 3
		}
	case 5:
		select {
		case <-wake(ws[0]):
			return 0
		case <-wake(ws[1]):
			return 1
		case <-wake(ws[2]):
			return 2
		case <-wake(ws[3]):
			return 3
		case <-wake(ws[4]):
			return 4
		}
	}
	panic("simclock: Wait supports 1 to 5 waitables")
}
