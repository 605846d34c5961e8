// Package mailbox provides the bounded drop-oldest queue both transports
// use as their per-node inbox — and, on the TCP transport, as the per-peer
// outbound frame queue. It models the paper's §2 bounded-capacity
// communication channels: overload loses the *oldest* queued element
// instead of blocking the sender or growing without bound, and every loss
// is reported to the caller so it can be metered.
//
// Extracting the queue into a shared package guarantees that the in-memory
// simulator (netsim) and the TCP transport (tcpnet) exhibit identical
// overload semantics — a property the shared conformance test in
// internal/transporttest asserts against both. The queue is generic so the
// same code bounds message inboxes (*wire.Message) and encoded frame
// outboxes ([]byte).
//
// Every queue has exactly one consumer: a transport inbox is drained by its
// node's dispatcher, a tcpnet outbox by its peer's writer. Any number of
// goroutines may Push. The single consumer only parks on an empty queue, so
// Push wakes it only when the queue goes from empty to non-empty.
//
// Pop blocks through a simclock.Clock rather than a sync.Cond, so a queue
// built on a virtual clock parks its consumer as a schedulable task inside
// the deterministic simulation. The signal is sticky (a Set before the
// consumer parks is not lost), which is what makes the unlock-then-wait
// window below safe.
package mailbox

import (
	"sync"
	"sync/atomic"

	"selfstabsnap/internal/simclock"
)

// Queue is a bounded FIFO with blocking receive. When full, the oldest
// element is discarded. The zero value is not usable; construct with New
// or NewClocked. All methods are safe for concurrent use, but Pop and
// TryPop have one consumer goroutine per queue (see the package doc).
type Queue[T any] struct {
	clk    simclock.Clock
	avail  simclock.Signal
	wait   []simclock.Waitable // 1-element list, hoisted so Pop stays allocation-free
	mu     sync.Mutex
	buf    []T
	head   int
	count  int
	closed bool

	// evictions is maintained inside Push's critical section but read
	// lock-free, so a meter polling Evictions never contends with a
	// concurrent Push/Pop storm.
	evictions atomic.Int64
}

// New creates a queue holding at most capacity elements (minimum 1),
// blocking on the real clock.
func New[T any](capacity int) *Queue[T] {
	return NewClocked[T](simclock.Real(), capacity)
}

// NewClocked creates a queue whose Pop parks through clk.
func NewClocked[T any](clk simclock.Clock, capacity int) *Queue[T] {
	if capacity <= 0 {
		capacity = 1
	}
	q := &Queue[T]{clk: clk, avail: clk.NewSignal(), buf: make([]T, capacity)}
	q.wait = []simclock.Waitable{q.avail}
	return q
}

// Push enqueues v, evicting the oldest entry if the queue is full. It
// reports whether an eviction happened; pushes to a closed queue are
// discarded and report false.
func (q *Queue[T]) Push(v T) (evicted bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	wake := q.count == 0
	if q.count == len(q.buf) {
		var zero T
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.count--
		q.evictions.Add(1)
		evicted = true
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	q.mu.Unlock()
	if wake {
		// The consumer parks only on an empty queue; a Push onto a
		// non-empty one finds it awake or already signalled.
		q.avail.Set()
	}
	return evicted
}

// Pop blocks until an element is available or the queue is closed. After
// close, buffered elements are still drained; ok is false once empty.
func (q *Queue[T]) Pop() (T, bool) {
	for {
		q.mu.Lock()
		if q.count > 0 {
			var zero T
			v := q.buf[q.head]
			q.buf[q.head] = zero
			q.head = (q.head + 1) % len(q.buf)
			q.count--
			q.mu.Unlock()
			return v, true
		}
		if q.closed {
			var zero T
			q.mu.Unlock()
			q.avail.Set() // keep the close wake-up for the next Pop
			return zero, false
		}
		q.mu.Unlock()
		q.clk.Wait(q.wait...)
	}
}

// TryPop dequeues the oldest element without blocking. ok is false when
// the queue is currently empty (regardless of closed state). It is for the
// queue's one consumer, like Pop: that consumer coalesces a burst — one
// blocking Pop, then TryPop until dry — so a drain cycle pays one wakeup
// for many elements (tcpnet's vectored writer).
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	if q.count == 0 {
		var zero T
		q.mu.Unlock()
		return zero, false
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.mu.Unlock()
	return v, true
}

// Drain discards all queued elements (used when a node crashes with a
// detectable restart: its channel content is lost).
func (q *Queue[T]) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head, q.count = 0, 0
}

// Close wakes all receivers; subsequent Pops return false once empty.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.avail.Set()
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Cap returns the queue's fixed capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Evictions returns the number of elements ever discarded by drop-oldest
// overflow. The count is incremented inside Push's critical section (so it
// can never disagree with the sequence of evicted elements) but read
// without the lock.
func (q *Queue[T]) Evictions() int64 { return q.evictions.Load() }
