package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/history"
	"selfstabsnap/internal/types"
)

type opKind uint8

const (
	opWrite opKind = iota
	opSnap
)

// opStats is what one goroutine (or one segment, once merged) observed.
type opStats struct {
	attempted, failed int64
	writeNs, snapNs   []int64 // latencies of successful ops
	violation         error   // first output-check failure
}

func (s *opStats) merge(o *opStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.writeNs = append(s.writeNs, o.writeNs...)
	s.snapNs = append(s.snapNs, o.snapNs...)
	if s.violation == nil {
		s.violation = o.violation
	}
}

func (s *opStats) succeeded() int64 { return s.attempted - s.failed }

func (s *opStats) fail(err error) {
	s.failed++
	if s.violation == nil {
		s.violation = err
	}
}

// sliceCount is how many equal slices a measured segment is cut into. The
// rate and median metrics are the median over the slices, so a burst of
// interference from the machine moves one slice, not the result.
const sliceCount = 5

// slicer assigns instants to slices; the zero slicer has one slice.
type slicer struct {
	t0    time.Time
	width time.Duration
}

func (s slicer) slot(at time.Time) int {
	if s.width <= 0 {
		return 0
	}
	i := int(at.Sub(s.t0) / s.width)
	if i < 0 {
		return 0
	}
	if i >= sliceCount {
		return sliceCount - 1
	}
	return i
}

// tally is what one goroutine observed, by the slice each operation
// completed in.
type tally struct {
	sl    slicer
	slots [sliceCount]opStats
}

func (t *tally) at(end time.Time) *opStats { return &t.slots[t.sl.slot(end)] }

func (t *tally) merge(o *tally) {
	for i := range t.slots {
		t.slots[i].merge(&o.slots[i])
	}
}

// total folds the slices into one.
func (t *tally) total() opStats {
	var sum opStats
	for i := range t.slots {
		sum.merge(&t.slots[i])
	}
	return sum
}

// client issues the operations of one node. Each node's operations are
// serial, so prev — the last snapshot this client was returned — only ever
// moves forward.
type client struct {
	id   int
	nd   snapNode
	prev seqVector
}

// runner drives one assembled cluster.
type runner struct {
	c       *cluster
	chk     *checker
	clients []*client
	seed    int64
	rec     *history.Recorder // non-nil only during the verification pass
}

func newRunner(c *cluster, seed int64) *runner {
	r := &runner{c: c, chk: &checker{pay: newPayloads(seed, c.spec.valueSize)}, seed: seed}
	for i, nd := range c.nodes {
		r.clients = append(r.clients, &client{id: i, nd: nd})
	}
	return r
}

// write performs one write at cl. from is when the latency clock starts
// (the due time in the open loop); zero means now.
func (r *runner) write(cl *client, t *tally, from time.Time) {
	v, seq := r.chk.beginWrite(cl.id)
	var done func()
	if r.rec != nil {
		done = r.rec.BeginWrite(cl.id, v)
	}
	start := time.Now()
	if from.IsZero() {
		from = start
	}
	err := cl.nd.Write(v)
	end := time.Now()
	st := t.at(end)
	st.attempted++
	if err != nil {
		st.fail(fmt.Errorf("write at node %d: %w", cl.id, err))
		return
	}
	r.chk.endWrite(cl.id, seq)
	if done != nil {
		done()
	}
	r.c.tracer.recordOp(cl.id, opWrite, start, end)
	st.writeNs = append(st.writeNs, int64(end.Sub(from)))
}

// snapshot performs one snapshot at cl. strict applies the inline output
// check; between a transient fault and the re-seeding writes after it, a
// snapshot may legally show corrupted registers, so only errors fail it.
func (r *runner) snapshot(cl *client, t *tally, from time.Time, strict bool) {
	floor := r.chk.floor()
	var done func(types.RegVector)
	if r.rec != nil {
		done = r.rec.BeginSnapshot(cl.id)
	}
	start := time.Now()
	if from.IsZero() {
		from = start
	}
	snap, err := cl.nd.Snapshot()
	end := time.Now()
	st := t.at(end)
	st.attempted++
	if err != nil {
		st.fail(fmt.Errorf("snapshot at node %d: %w", cl.id, err))
		return
	}
	if done != nil {
		done(snap)
	}
	r.c.tracer.recordOp(cl.id, opSnap, start, end)
	if strict {
		if err := r.chk.check(&cl.prev, floor, snap); err != nil {
			st.fail(fmt.Errorf("snapshot at node %d: %w", cl.id, err))
			return
		}
	}
	st.snapNs = append(st.snapNs, int64(end.Sub(from)))
}

// seedWrites performs one write at every node, two clients at a time.
func (r *runner) seedWrites(t *tally) {
	var wg sync.WaitGroup
	parts := [2]tally{{sl: t.sl}, {sl: t.sl}}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(r.clients); i += 2 {
				r.write(r.clients[i], &parts[g], time.Time{})
			}
		}(g)
	}
	wg.Wait()
	t.merge(&parts[0])
	t.merge(&parts[1])
}

// traceFull reports whether the span logs of a traced window are full.
func (r *runner) traceFull() bool { return r.c.tracer != nil && r.c.tracer.full.Load() }

// stop reports whether a load loop should end.
func (r *runner) stop(deadline time.Time) bool {
	return r.traceFull() || !time.Now().Before(deadline)
}

// closedLoop runs 2 clients, one each at nodes 0 and 1, each repeating
// cycles of 4 writes and 1 snapshot (the snapshot's position in the cycle
// drawn from the seed) until the deadline or maxOps operations per client.
func (r *runner) closedLoop(sl slicer, deadline time.Time, maxOps int) tally {
	var wg sync.WaitGroup
	parts := [2]tally{{sl: sl}, {sl: sl}}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, t := r.clients[g], &parts[g]
			rng := rand.New(rand.NewSource(r.seed + int64(g)))
			for done := 0; ; {
				snapAt := rng.Intn(5)
				for i := 0; i < 5; i++ {
					if r.stop(deadline) || (maxOps > 0 && done >= maxOps) {
						return
					}
					if i == snapAt {
						r.snapshot(cl, t, time.Time{}, true)
					} else {
						r.write(cl, t, time.Time{})
					}
					done++
				}
			}
		}(g)
	}
	wg.Wait()
	parts[0].merge(&parts[1])
	return parts[0]
}

// genStats says how late the open-loop generator ran.
type genStats struct {
	lagNs      []int64
	backlogMax int64
}

// maxOutstanding bounds the open loop's backlog; an arrival beyond it is
// refused and counts as failed. It is 3.4 s of arrivals at 300 ops/s: a
// shared machine freezes the whole process for a few hundred ms now and
// then, which must show as latency (timed from the due time), not fail
// the run; a system that stops serving for seconds must fail it.
const maxOutstanding = 1024

// spinBefore is how long before an arrival's due time the generator stops
// sleeping and yield-spins, so timer slack does not become generator lag.
// Measured on the 2-core VM this was written on, sleeps overshoot by about
// 0.5 ms: at 200 µs the lag p50 was 307 µs, at 500 µs it is 36 µs (p99
// 741 µs); at 1 ms the generator's spinning doubles the process's CPU.
const spinBefore = 500 * time.Microsecond

// openLoop issues operations at a fixed rate whatever the system's speed:
// arrival i is due at t0 + i/rate, alternates write/snapshot and goes
// round-robin over all nodes (the starting node drawn from the seed).
// Latency is timed from the due time, so a stall shows in the operations
// queued behind it.
func (r *runner) openLoop(sl slicer, deadline time.Time, maxOps int) (tally, genStats) {
	type job struct {
		kind opKind
		due  time.Time
	}
	n := len(r.clients)
	queues := make([]chan job, n)
	parts := make([]tally, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for i := range queues {
		// Sized to the most jobs that can be outstanding, so the
		// generator never blocks on a send.
		queues[i] = make(chan job, maxOutstanding)
		parts[i].sl = sl
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range queues[i] {
				if j.kind == opWrite {
					r.write(r.clients[i], &parts[i], j.due)
				} else {
					r.snapshot(r.clients[i], &parts[i], j.due, true)
				}
				outstanding.Add(-1)
			}
		}(i)
	}

	var gen genStats
	refused := tally{sl: sl}
	interval := time.Second / time.Duration(r.c.spec.openLoopRate)
	first := rand.New(rand.NewSource(r.seed)).Intn(n)
	t0 := time.Now()
	for i := 0; maxOps <= 0 || i < maxOps; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(deadline) || r.traceFull() {
			break
		}
		if d := time.Until(due) - spinBefore; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		gen.lagNs = append(gen.lagNs, int64(time.Since(due)))
		if out := outstanding.Load(); out >= maxOutstanding {
			st := refused.at(due)
			st.attempted++
			st.fail(fmt.Errorf("open loop: arrival %d refused, %d operations outstanding", i, out))
			continue
		}
		if out := outstanding.Add(1); out > gen.backlogMax {
			gen.backlogMax = out
		}
		queues[(first+i)%n] <- job{kind: opKind(i % 2), due: due}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for i := range parts {
		refused.merge(&parts[i])
	}
	return refused, gen
}

// steady runs the workload's steady load.
func (r *runner) steady(sl slicer, deadline time.Time, maxOps int) (tally, genStats) {
	if r.c.spec.openLoopRate > 0 {
		return r.openLoop(sl, deadline, maxOps)
	}
	return r.closedLoop(sl, deadline, maxOps), genStats{}
}

// faultStats is what a run of fault rounds measured.
type faultStats struct {
	ops            tally
	rounds         int
	timeoutErr     error
	recoverNs      []int64 // corruptAll → invariants held across a cycle
	cycles         []int64 // do-forever cycles the slowest node took
	firstOpNs      []int64 // write + snapshot right after recovery
	timeouts       int
	recoverBytes   int64 // traffic while recovering
	recoverGossips int64 // full-vector gossip fallbacks while recovering
}

const recoverTimeout = 5 * time.Second

// faultRounds repeats, until the deadline: corrupt every node → wait for
// the invariants → time a write at node 0 and a snapshot at node 1 (the
// first operations after the fault) → every node writes again → one
// strictly checked snapshot.
func (r *runner) faultRounds(sl slicer, deadline time.Time) faultStats {
	fs := faultStats{ops: tally{sl: sl}}
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	for round := 0; !r.stop(deadline); round++ {
		// A fault strikes at an arbitrary instant. Without this pause every
		// round would start right after a tick (that is when the previous
		// one ended), and whether recovery then takes 3 cycles or 4 would
		// be one coin toss per run instead of one per round.
		time.Sleep(time.Duration(rng.Int63n(int64(r.c.spec.loopInterval))))
		before := r.c.traffic()
		start := time.Now()
		r.c.corruptAll(rng)
		cycles, err := r.c.cyclesToInvariant(recoverTimeout)
		took := time.Since(start)
		fs.rounds++
		if err != nil {
			fs.timeouts++
			if fs.timeoutErr == nil {
				fs.timeoutErr = fmt.Errorf("fault round %d: %w", round, err)
			}
		} else {
			fs.recoverNs = append(fs.recoverNs, int64(took))
			fs.cycles = append(fs.cycles, cycles)
			d := r.c.traffic().Sub(before)
			fs.recoverBytes += d.Bytes
			fs.recoverGossips += d.GossipFull
		}

		var first tally
		start = time.Now()
		r.write(r.clients[0], &first, time.Time{})
		r.snapshot(r.clients[1], &first, time.Time{}, false)
		firstOps := first.total()
		if firstOps.failed == 0 {
			fs.firstOpNs = append(fs.firstOpNs, int64(time.Since(start)))
		}
		// Their latencies are reported as first_op, not as write/snapshot.
		firstOps.writeNs, firstOps.snapNs = nil, nil
		fs.ops.at(time.Now()).merge(&firstOps)

		r.seedWrites(&fs.ops)
		r.snapshot(r.clients[round%len(r.clients)], &fs.ops, time.Time{}, true)
	}
	return fs
}

// verifyLimit bounds the recorded history: history.Check is O(S²).
const verifyLimit = 2000

// beginHistory starts recording operations for the verification pass. It
// must be called on a fresh cluster, before its first write: the history
// checker identifies a register's value by its write index.
func (r *runner) beginHistory() { r.rec = history.NewRecorder() }

// verify runs up to maxOps operations of the workload's own mix on top of
// the recorded set-up writes and requires the whole recorded history to be
// linearizable, besides passing the inline check. A violation is recorded
// in t and returned.
func (r *runner) verify(t *tally, budget time.Duration, maxOps int) error {
	if r.c.spec.openLoopRate == 0 {
		maxOps /= 2 // per client
	}
	mix, _ := r.steady(slicer{}, time.Now().Add(budget), maxOps)
	t.merge(&mix)
	st := &t.slots[0]
	if st.violation == nil {
		if v := r.rec.Check(); v != nil {
			st.fail(v)
		}
	}
	r.rec = nil
	return st.violation
}
