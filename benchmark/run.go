package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/wire"
)

// plan is how one run spends its time.
type plan struct {
	setupReps    int           // set-ups timed at least; the median is setup_s
	setupBudget  time.Duration // keep repeating set-up this long, so a fast one is timed often
	verifyBudget time.Duration // recorded verification pass
	verifyOps    int
	warmup       time.Duration
	window       time.Duration // untraced measured window (steady + fault segment)
	traced       time.Duration // traced window; 0 = none
	ladderRung   time.Duration // per ladder rung; 0 = no ladder
}

// makePlan splits seconds by trace mode: 0 = untraced window only (the
// end-to-end metrics), 1 = ladder + shorter untraced reference + traced
// window (the per-layer metrics), -1 = both in full.
func makePlan(seconds float64, trace int, quick bool) plan {
	total := time.Duration(seconds * float64(time.Second))
	p := plan{
		setupReps: 9, setupBudget: 400 * time.Millisecond,
		verifyBudget: 1500 * time.Millisecond, verifyOps: verifyLimit, warmup: 2 * time.Second,
	}
	if quick {
		total = 300 * time.Millisecond
		p = plan{setupReps: 3, verifyBudget: 150 * time.Millisecond, verifyOps: 200, warmup: 50 * time.Millisecond}
	}
	switch trace {
	case 0:
		p.window = total
	case 1:
		p.window, p.traced, p.ladderRung = total/2, total/4, total/4/ladderRungs
	default:
		p.window, p.traced, p.ladderRung = total, total/4, total/4/ladderRungs
	}
	if quick {
		p.traced = p.window
	}
	return p
}

// mark is the process's and the cluster's counters at one instant.
type mark struct {
	at         time.Time
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	heapBytes  uint64
	traffic    metrics.Snapshot
}

func (r *runner) mark() mark {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		heapBytes:  ms.HeapAlloc,
		traffic:    r.c.traffic(),
	}
}

// stretch is what was counted between two marks, with the operations that
// completed between them.
type stretch struct {
	ops      opStats
	from, to mark
}

func (s *stretch) dur() time.Duration { return s.to.at.Sub(s.from.at) }
func (s *stretch) cpu() time.Duration { return s.to.cpu - s.from.cpu }
func (s *stretch) traffic() metrics.Snapshot {
	return s.to.traffic.Sub(s.from.traffic)
}

// segment is one part of a window — steady load or fault rounds — cut
// into sliceCount slices with a mark at every boundary.
type segment struct {
	ops   tally
	marks []mark // sliceCount+1 of them, fewer if the load ended early
}

// runSegment runs load for dur, taking a mark at every slice boundary.
func (r *runner) runSegment(dur time.Duration, load func(sl slicer, deadline time.Time) tally) segment {
	first := r.mark()
	sl := slicer{t0: first.at, width: dur / sliceCount}
	var inner []mark
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < sliceCount; k++ {
			select {
			case <-done:
				return
			case <-time.After(time.Until(sl.t0.Add(time.Duration(k) * sl.width))):
				inner = append(inner, r.mark())
			}
		}
	}()
	ops := load(sl, sl.t0.Add(dur))
	close(done)
	wg.Wait()
	marks := append(append([]mark{first}, inner...), r.mark())
	return segment{ops: ops, marks: marks}
}

// extent is the segment's first and last mark, without its operations.
func (s *segment) extent() stretch {
	if len(s.marks) == 0 {
		return stretch{}
	}
	return stretch{from: s.marks[0], to: s.marks[len(s.marks)-1]}
}

// whole is the segment as one stretch.
func (s *segment) whole() stretch {
	w := s.extent()
	w.ops = s.ops.total()
	return w
}

// slices is the segment slice by slice, or as one stretch when the load
// ended before every boundary was marked.
func (s *segment) slices() []stretch {
	if len(s.marks) != sliceCount+1 {
		return []stretch{s.whole()}
	}
	out := make([]stretch, sliceCount)
	for k := range out {
		out[k] = stretch{ops: s.ops.slots[k], from: s.marks[k], to: s.marks[k+1]}
	}
	return out
}

// windowResult is one measured window on one freshly assembled cluster.
type windowResult struct {
	setupS []float64
	verify tally
	steady segment
	fault  segment
	faults faultStats
	gen    genStats
	trace  *traceStats
}

// opSegment is where the operation metrics come from: the steady segment,
// or the fault rounds when the workload has no steady share.
func (w *windowResult) opSegment(spec *workload) *segment {
	if spec.steadyShare > 0 {
		return &w.steady
	}
	return &w.fault
}

func (w *windowResult) totals() (attempted, failed int64, violation error) {
	for _, t := range []*tally{&w.verify, &w.steady.ops, &w.fault.ops} {
		s := t.total()
		attempted += s.attempted
		failed += s.failed
		if violation == nil {
			violation = s.violation
		}
	}
	attempted += int64(w.faults.rounds)
	failed += int64(w.faults.timeouts)
	if violation == nil {
		violation = w.faults.timeoutErr
	}
	return
}

// maxSetupReps bounds the sockets a run's repeated TCP set-ups leave in
// TIME_WAIT.
const maxSetupReps = 100

// setUp assembles a cluster and completes one write at every node — the
// point from which the system serves — and returns how long that took.
func setUp(spec *workload, seed int64, tr *tracer, record bool, t *tally) (*runner, float64, error) {
	start := time.Now()
	c, err := assemble(spec, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	r := newRunner(c, seed)
	if record {
		r.beginHistory()
	}
	r.seedWrites(t)
	return r, time.Since(start).Seconds(), nil
}

// measure runs one window: repeated set-up, verification pass, warm-up,
// steady segment, fault segment. With traced, spans are recorded across
// the two measured segments.
func measure(spec *workload, seed int64, p plan, window time.Duration, traced bool) (*windowResult, error) {
	w := &windowResult{}
	reps, budget := p.setupReps, p.setupBudget
	if traced {
		reps, budget = 1, 0 // setup_s comes from the untraced window
	}
	for start := time.Now(); len(w.setupS) < reps-1 || (time.Since(start) < budget && len(w.setupS) < maxSetupReps); {
		r, took, err := setUp(spec, seed, nil, false, &w.verify)
		if err != nil {
			return nil, err
		}
		r.c.close()
		w.setupS = append(w.setupS, took)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, took, err := setUp(spec, seed, tr, true, &w.verify)
	if err != nil {
		return nil, err
	}
	defer r.c.close()
	w.setupS = append(w.setupS, took)

	if err := r.verify(&w.verify, p.verifyBudget, p.verifyOps); err != nil {
		return w, nil // recorded in w.verify
	}
	warm, _ := r.steady(slicer{}, time.Now().Add(p.warmup), 0)
	w.verify.merge(&warm)
	// Only the counts of the unmeasured phases matter.
	w.verify.slots[0].writeNs, w.verify.slots[0].snapNs = nil, nil

	steadyDur := time.Duration(float64(window) * spec.steadyShare)
	runtime.GC() // start every window from the same heap state
	if tr != nil {
		tr.start()
	}
	if steadyDur > 0 {
		w.steady = r.runSegment(steadyDur, func(sl slicer, deadline time.Time) tally {
			var ops tally
			ops, w.gen = r.steady(sl, deadline, 0)
			return ops
		})
	}
	if faultDur := window - steadyDur; faultDur > 0 {
		w.fault = r.runSegment(faultDur, func(sl slicer, deadline time.Time) tally {
			w.faults = r.faultRounds(sl, deadline)
			return w.faults.ops
		})
	}
	if tr != nil {
		tr.stop()
		r.c.close() // the dispatcher-owned span logs are readable once the nodes stopped
		st := tr.analyze()
		w.trace = &st
	}
	return w, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantiles sorts ns in place and returns the q-quantiles in µs, linearly
// interpolated between order statistics.
func quantiles(ns []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(ns) == 0 {
		return out
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	for i, q := range qs {
		pos := q * float64(len(ns)-1)
		lo := int(pos)
		hi := lo
		if lo+1 < len(ns) {
			hi = lo + 1
		}
		frac := pos - float64(lo)
		out[i] = (float64(ns[lo])*(1-frac) + float64(ns[hi])*frac) / 1000
	}
	return out
}

func meanOf(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

func perOp(x float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

func perSecond(x float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return x / d.Seconds()
}

// report is the computed metrics of one run with, for timings, the number
// of samples behind them.
type report struct {
	values  map[string]float64
	samples map[string]int
}

func (rp *report) set(name string, v float64) { rp.values[name] = v }

func (rp *report) setN(name string, v float64, n int) {
	rp.values[name] = v
	rp.samples[name] = n
}

// overSlices is the median over the segment's slices of f.
func overSlices(seg *segment, f func(*stretch) float64) float64 {
	var v []float64
	for _, s := range seg.slices() {
		v = append(v, f(&s))
	}
	return median(v)
}

// endToEnd fills the end-to-end metrics, and the counts taken at the same
// boundaries, from the untraced window. Rates, latency quantiles and
// per-operation costs are the median over the slices of the operation
// segment: this machine freezes the whole process for tens of ms now and
// then, and over a whole segment a few such freezes decide the tail. The
// guarded tail is p95 because the thinnest slices (sim-recover snapshots,
// wan-alg3) hold 240-450 samples: p95 leaves ten beyond it, p99 does not.
func (rp *report) endToEnd(spec *workload, w *windowResult) {
	seg := w.opSegment(spec)
	all := seg.whole()
	ok := all.ops.succeeded()
	rp.set("ops_s", overSlices(seg, func(s *stretch) float64 { return perSecond(float64(s.ops.succeeded()), s.dur()) }))
	var wp50, wp95, sp50, sp95 []float64
	for _, s := range seg.slices() {
		wq, sq := quantiles(s.ops.writeNs, 0.5, 0.95), quantiles(s.ops.snapNs, 0.5, 0.95)
		wp50, wp95 = append(wp50, wq[0]), append(wp95, wq[1])
		sp50, sp95 = append(sp50, sq[0]), append(sp95, sq[1])
	}
	rp.setN("write_p50_us", median(wp50), len(all.ops.writeNs))
	rp.setN("write_p95_us", median(wp95), len(all.ops.writeNs))
	rp.setN("snap_p50_us", median(sp50), len(all.ops.snapNs))
	rp.setN("snap_p95_us", median(sp95), len(all.ops.snapNs))
	rp.set("cpu_us_per_op", overSlices(seg, func(s *stretch) float64 {
		return perOp(float64(s.cpu().Microseconds()), s.ops.succeeded())
	}))
	rp.set("msgs_per_op", overSlices(seg, func(s *stretch) float64 {
		return perOp(float64(s.traffic().Messages), s.ops.succeeded())
	}))
	rp.set("wire_bytes_per_op", overSlices(seg, func(s *stretch) float64 {
		return perOp(float64(s.traffic().Bytes), s.ops.succeeded())
	}))
	rq := quantiles(w.faults.recoverNs, 0.9, 0.99)
	rp.setN("recover_mean_us", meanOf(w.faults.recoverNs)/1000, len(w.faults.recoverNs))
	rp.setN("recover_p90_us", rq[0], len(w.faults.recoverNs))
	rp.setN("recover_cycles_mean", meanOf(w.faults.cycles), len(w.faults.cycles))
	rp.setN("first_op_p50_us", quantiles(w.faults.firstOpNs, 0.5)[0], len(w.faults.firstOpNs))
	rp.setN("setup_s", median(w.setupS), len(w.setupS))

	wq := quantiles(all.ops.writeNs, 0.99, 0.999)
	sq := quantiles(all.ops.snapNs, 0.99, 0.999)
	rp.setN("op.write_p99_us", wq[0], len(all.ops.writeNs))
	rp.setN("op.snap_p99_us", sq[0], len(all.ops.snapNs))
	rp.setN("op.write_p999_us", wq[1], len(all.ops.writeNs))
	rp.setN("op.snap_p999_us", sq[1], len(all.ops.snapNs))
	rp.setN("recover.p99_us", rq[1], len(w.faults.recoverNs))
	tr, dur := all.traffic(), all.dur()
	rp.set("msgs.request_per_op", perOp(float64(tr.MessagesOf(wire.TWrite, wire.TSnapshot, wire.TSave)), ok))
	rp.set("msgs.ack_per_op", perOp(float64(tr.MessagesOf(wire.TWriteAck, wire.TSnapshotAck, wire.TSaveAck)), ok))
	rp.set("msgs.gossip_per_s", perSecond(float64(tr.MessagesOf(wire.TGossip, wire.TGossipAck)), dur))
	rp.set("bytes.gossip_per_s", perSecond(float64(tr.BytesOf(wire.TGossip, wire.TGossipAck)), dur))
	rp.set("gossip.full_per_s", perSecond(float64(tr.GossipFull), dur))
	rp.set("gossip.delta_per_s", perSecond(float64(tr.GossipDelta), dur))
	rp.set("gossip.suppressed_per_s", perSecond(float64(tr.GossipSuppressed), dur))
	if spec.delta {
		rp.set("deltasnap.ticks_per_snap", meanOf(all.ops.snapNs)/float64(spec.loopInterval))
	} else {
		rp.set("deltasnap.ticks_per_snap", 0)
	}
	faults := int64(len(w.faults.recoverNs))
	rp.set("recover.gossip_full_per_fault", perOp(float64(w.faults.recoverGossips), faults))
	rp.set("recover.bytes_per_fault", perOp(float64(w.faults.recoverBytes), faults))
	rp.set("recover.timeout_count", float64(w.faults.timeouts))
	steady, fault := w.steady.extent(), w.fault.extent()
	var drops, dups, evictions, reconnects, writeFails, invalid int64
	for _, s := range []metrics.Snapshot{steady.traffic(), fault.traffic()} {
		drops += s.Drops
		dups += s.Dups
		evictions += s.Evictions
		reconnects += s.Reconnects
		writeFails += s.WriteFailures
		invalid += s.InvalidTypes + s.InvalidObjs
	}
	rp.set("transport.drops", float64(drops))
	rp.set("transport.dups", float64(dups))
	rp.set("transport.evictions", float64(evictions))
	rp.set("tcpnet.reconnects", float64(reconnects))
	rp.set("tcpnet.write_failures", float64(writeFails))
	rp.set("node.invalid_msgs", float64(invalid))
	lag := quantiles(w.gen.lagNs, 0.5, 0.99)
	rp.setN("gen.lag_p50_us", lag[0], len(w.gen.lagNs))
	rp.setN("gen.lag_p99_us", lag[1], len(w.gen.lagNs))
	rp.set("gen.backlog_max", float64(w.gen.backlogMax))
	rp.set("proc.allocs_per_op", perOp(float64(all.to.mallocs-all.from.mallocs), ok))
	rp.set("proc.alloc_bytes_per_op", perOp(float64(all.to.allocBytes-all.from.allocBytes), ok))
	rp.set("proc.gc_pause_ms_per_s", perSecond(float64(all.to.gcPauseNs-all.from.gcPauseNs)/1e6, dur))
	rp.set("proc.heap_mb", float64(all.to.heapBytes)/(1<<20))
	rp.set("proc.cpu_ms_per_s", perSecond(float64(all.cpu().Milliseconds()), dur))
}

// traced fills the span-derived metrics from the traced window; ref is the
// untraced window its throughput is compared with.
func (rp *report) traced(spec *workload, tw, ref *windowResult) {
	st := tw.trace
	ops := int64(st.ops)
	rp.setN("client.op_us", perOp(float64(st.opNs)/1000, ops), st.ops)
	rp.set("transport.send_us_per_op", perOp(float64(st.sendNs)/1000, ops))
	rp.set("node.handle_us_per_op", perOp(float64(st.handleNs)/1000, ops))
	rp.set("node.gossip_busy_ms_per_s", perSecond(float64(st.gossipNs)/1e6, st.window))
	var busy, busiest int64
	for _, ns := range st.handleAllNs {
		busy += ns
		if ns > busiest {
			busiest = ns
		}
	}
	rp.set("node.dispatch_busy_ratio", perSecond(float64(busy)/float64(len(st.handleAllNs)), st.window)/1e9)
	rp.set("node.dispatch_busy_ratio_max", perSecond(float64(busiest), st.window)/1e9)
	soj := quantiles(st.sojournNs, 0.5, 0.99)
	rp.setN("link.sojourn_p50_us", soj[0], len(st.sojournNs))
	rp.setN("link.sojourn_p99_us", soj[1], len(st.sojournNs))
	rp.set("op.wait_us_per_op", perOp(float64(st.waitNs)/1000, ops))
	rp.set("node.retx_per_op", perOp(float64(st.retx), ops))
	if spec.delta {
		rp.set("nonblocking.snap_rounds_per_op", 0)
	} else {
		rp.set("nonblocking.snap_rounds_per_op", perOp(float64(st.snapRounds), int64(st.snapOps)))
	}
	tseg, rseg := tw.opSegment(spec).whole(), ref.opSegment(spec).whole()
	tracedRate := perSecond(float64(tseg.ops.succeeded()), tseg.dur())
	refRate := perSecond(float64(rseg.ops.succeeded()), rseg.dur())
	if refRate > 0 {
		rp.set("trace.overhead_ratio", tracedRate/refRate)
	} else {
		rp.set("trace.overhead_ratio", 0)
	}
}

// runWorkload runs spec once and returns its report, the contract's
// attempted/failed counts and the first output violation.
func runWorkload(spec *workload, seed int64, p plan, log func(string, ...any)) (*report, int64, int64, error) {
	rp := &report{values: map[string]float64{}, samples: map[string]int{}}
	var attempted, failed int64
	var violation error
	note := func(w *windowResult) {
		a, f, v := w.totals()
		attempted += a
		failed += f
		if violation == nil {
			violation = v
		}
	}

	var ladder map[string]float64
	if p.ladderRung > 0 {
		var err error
		if ladder, err = runLadder(p.ladderRung); err != nil {
			return nil, 0, 0, err
		}
		for name, v := range ladder {
			rp.set(name, v)
		}
	}

	ref, err := measure(spec, seed, p, p.window, false)
	if err != nil {
		return nil, 0, 0, err
	}
	note(ref)
	rp.endToEnd(spec, ref)
	if lag, p50 := rp.values["gen.lag_p99_us"], rp.values["write_p50_us"]; spec.openLoopRate > 0 && lag > p50 {
		log("warning: generator lag p99 %.0f us exceeds write p50 %.0f us; the box is too busy for this rate", lag, p50)
	}

	if p.traced > 0 {
		tw, err := measure(spec, seed, p, p.traced, true)
		if err != nil {
			return nil, 0, 0, err
		}
		note(tw)
		if tw.trace != nil {
			rp.traced(spec, tw, ref)
			if tw.trace.truncated {
				log("note: span logs filled; the traced window ended after %v", tw.trace.window.Round(time.Millisecond))
			}
		}
	}

	if ladder != nil {
		for _, suffix := range []string{"sim", "tcp"} {
			name := "ladder.residue_ratio." + suffix
			// The ladder models an Algorithm 1 write on its own transport.
			if spec.delta || spec.openLoopRate > 0 || spec.tcp != (suffix == "tcp") {
				rp.set(name, 0)
				continue
			}
			table, ratio := ladderBudget(ladder, suffix, rp.values["write_p50_us"])
			rp.set(name, ratio)
			log("%s", table)
		}
	}
	if violation != nil {
		return rp, attempted, failed, fmt.Errorf("output check: %w", violation)
	}
	return rp, attempted, failed, nil
}
