package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/history"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// RunE6 sweeps Algorithm 3's δ and measures the trade-off the paper
// designs for, under two workloads. With moderate write concurrency a
// large δ keeps snapshots solo (Θ(n) messages, helpers=1) while δ=0
// recruits every node (Θ(n²)). Under a sustained write storm, snapshot
// latency grows with δ (the O(δ) bound) and at least δ writes are admitted
// while the snapshot runs.
func RunE6(p Params) []*Table {
	t := &Table{
		ID:      "E6",
		Title:   "Algorithm 3 δ sweep (n=5): latency vs communication trade-off",
		Headers: []string{"workload", "δ", "snap latency avg", "snap msgs/op", "writes during snaps", "helpers"},
	}
	deltas := []int64{0, 1, 2, 4, 8, 16, 32}
	if p.Quick {
		deltas = []int64{0, 2, 8}
	}
	for _, workload := range []string{"moderate", "storm"} {
		for _, delta := range deltas {
			t.AddRow(runE6Case(p, workload, delta)...)
		}
	}
	t.AddNote("moderate concurrency: large δ keeps snapshots solo (helpers=1, Θ(n) msgs); δ=0 recruits every node (Θ(n²) msgs)")
	t.AddNote("write storm: snapshot latency grows with δ (the O(δ) bound) and at least δ writes are admitted during the snapshot; δ=0 blocks writes immediately for the fastest snapshot")
	return []*Table{t}
}

func runE6Case(p Params, workload string, delta int64) []string {
	const n = 5
	cfg := fastCfg(core.DeltaSS, n, 600+delta)
	cfg.Delta = delta
	cfg.Adversary = realisticDelay()
	c := mustCluster(cfg)
	defer c.Close()

	stop := make(chan struct{})
	var writes atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer func() { close(stop) }()
	writers := n - 1
	pause := time.Duration(0)
	if workload == "moderate" {
		writers = 1
		pause = 3 * time.Millisecond
	}
	for i := 1; i <= writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if c.Write(i, value(8, byte(j))) == nil {
					writes.Add(1)
				}
				if pause > 0 {
					time.Sleep(pause)
				}
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // workload reaches steady state

	snaps := 4
	if p.Quick {
		snaps = 2
	}
	before := c.Metrics()
	writesBefore := writes.Load()
	ssnBefore := make([]int64, n)
	for i := 0; i < n; i++ {
		ssnBefore[i] = c.Delta(i).StateSummary().SSN
	}
	var total time.Duration
	for k := 0; k < snaps; k++ {
		start := time.Now()
		if _, err := c.Snapshot(0); err != nil {
			panic(err)
		}
		total += time.Since(start)
	}
	helperSet := map[int]bool{}
	for i := 0; i < n; i++ {
		if c.Delta(i).StateSummary().SSN > ssnBefore[i] {
			helperSet[i] = true
		}
	}
	diff := c.Metrics().Sub(before)
	writesDuring := writes.Load() - writesBefore

	opMsgs := diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck, wire.TSave, wire.TSaveAck)
	return []string{
		workload,
		fmt.Sprint(delta),
		d2(total / time.Duration(snaps)),
		f1(float64(opMsgs) / float64(snaps)),
		fmt.Sprint(writesDuring),
		fmt.Sprint(len(helperSet)),
	}
}

// RunE7 reproduces the recovery theorems: after a transient fault corrupts
// every node's full state, the consistency invariants return within O(1)
// asynchronous cycles — independent of n — and operations linearize again.
func RunE7(p Params) []*Table {
	t := &Table{
		ID:      "E7",
		Title:   "recovery from full-state corruption (cycles to consistency)",
		Headers: []string{"algorithm", "n", "recovery cycles", "first op after fault"},
	}
	ns := []int{4, 8, 16, 32}
	if p.Quick {
		ns = []int{4, 8}
	}
	for _, alg := range []core.Algorithm{core.NonBlockingSS, core.DeltaSS} {
		for _, n := range ns {
			cfg := fastCfg(alg, n, int64(700+n))
			cfg.Delta = 2
			// An asynchronous cycle includes the round trips of the messages
			// sent in it (§2), so the do-forever ticker must be slow enough
			// for each iteration's O(n²) gossip to be dispatched before the
			// next iteration fires — otherwise timer ticks overcount cycles
			// at large n on a fixed number of cores.
			cfg.LoopInterval = time.Duration(n/4+1) * time.Millisecond
			c := mustCluster(cfg)
			for i := 0; i < n; i++ {
				mustDo(c.Write(i, value(8, byte(i))))
			}
			mustDo(c.CorruptAll())
			cycles, err := c.CyclesToInvariant(10 * time.Second)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			mustDo(c.Write(0, value(8, 'p')))
			opLat := time.Since(start)
			c.Close()
			t.AddRow(alg.String(), fmt.Sprint(n), fmt.Sprint(cycles), d2(opLat))
		}
	}
	t.AddNote("recovery cycles stay O(1) — a small constant that does not grow with n (Theorems 1 and 2)")
	return []*Table{t}
}

// RunE8 contrasts liveness: under a sustained write storm the non-blocking
// Algorithm 1 (and the stacked baseline) starve snapshots, while the
// always-terminating algorithms complete them.
func RunE8(p Params) []*Table {
	budget := time.Second
	if p.Quick {
		budget = 300 * time.Millisecond
	}
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("snapshot under write storm (n=5, budget %v)", budget),
		Headers: []string{"algorithm", "terminated", "latency"},
	}
	const n = 5
	algs := []struct {
		alg   core.Algorithm
		delta int64
	}{
		{core.NonBlockingSS, 0},
		{core.StackedABD, 0},
		{core.AlwaysTerminatingDG, 0},
		{core.DeltaSS, 0},
		{core.DeltaSS, 4},
	}
	for _, a := range algs {
		cfg := fastCfg(a.alg, n, 800+a.delta)
		cfg.Delta = a.delta
		cfg.Adversary = realisticDelay()
		c := mustCluster(cfg)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = c.Write(i, value(8, byte(j)))
				}
			}(i)
		}
		time.Sleep(10 * time.Millisecond)

		type result struct {
			lat time.Duration
			err error
		}
		done := make(chan result, 1)
		start := time.Now()
		go func() {
			_, err := c.Snapshot(0)
			done <- result{time.Since(start), err}
		}()
		name := a.alg.String()
		if a.alg == core.DeltaSS {
			name = fmt.Sprintf("%s(δ=%d)", name, a.delta)
		}
		select {
		case r := <-done:
			if r.err != nil {
				t.AddRow(name, "error", r.err.Error())
			} else {
				t.AddRow(name, "yes", d2(r.lat))
			}
			close(stop)
		case <-time.After(budget):
			t.AddRow(name, "NO (starved)", fmt.Sprintf(">%v", budget))
			close(stop)
			// Unblock the pending snapshot by stopping the writers: the
			// non-blocking algorithm then completes and the goroutine exits.
			<-done
		}
		wg.Wait()
		c.Close()
	}
	t.AddNote("the non-blocking algorithm and the stacked baseline cannot finish while writes keep landing; Algorithms 2 and 3 always terminate — Alg 3 via δ-triggered global helping")
	return []*Table{t}
}

// RunE9 exercises §5: a small MAXINT forces index wraparound; the cluster
// runs the consensus-based global reset, preserving register values and
// aborting/deferring only a bounded number of operations.
func RunE9(p Params) []*Table {
	t := &Table{
		ID:      "E9",
		Title:   "bounded counters (n=4, MaxInt=48): wraparound and global reset",
		Headers: []string{"variant", "policy", "writes issued", "resets", "epoch", "deferred", "aborted", "values preserved", "post-reset snapshot"},
	}
	cases := []struct {
		alg   core.Algorithm
		abort bool
	}{
		{core.BoundedSS, false},
		{core.BoundedSS, true},
		{core.BoundedDeltaSS, false},
	}
	for _, tc := range cases {
		abort := tc.abort
		cfg := fastCfg(tc.alg, 4, 900)
		cfg.MaxInt = 48
		cfg.Delta = 2
		cfg.AbortDuringReset = abort
		c := mustCluster(cfg)

		writes := 0
		var lastOK string
		// An aborted write returns no response, so like any such operation
		// it may still take effect: its value is installed locally before
		// the reset that aborts it decides which register values survive.
		abortedSince := map[string]bool{} // aborted after lastOK
		for i := 0; i < 120; i++ {
			v := fmt.Sprintf("w%d", i)
			err := c.Write(0, types.Value(v))
			switch {
			case err == nil:
				writes++
				lastOK, abortedSince = v, map[string]bool{}
			case errors.Is(err, node.ErrAborted):
				// permitted during the seldom reset; retry later
				abortedSince[v] = true
				time.Sleep(2 * time.Millisecond)
			default:
				panic(err)
			}
			if c.Bounded(0).Resets() >= 2 {
				break
			}
		}
		// Wait for the overflow watcher to notice and the reset machinery to
		// settle. The writes above pushed indices past MaxInt, so at least
		// one reset is guaranteed — but on a fast transport the write loop
		// can finish before the watcher's next tick, so wait for the reset
		// itself, not merely for quiescence.
		deadline := time.Now().Add(10 * time.Second)
		for (c.Bounded(0).Resets() == 0 || c.Bounded(0).ResetActive()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		snap, err := c.Snapshot(1)
		for errors.Is(err, node.ErrAborted) && time.Now().Before(deadline) {
			// A later overflow's reset aborted it (abort policy): retry.
			time.Sleep(time.Millisecond)
			snap, err = c.Snapshot(1)
		}
		post := "ok"
		preserved := "yes"
		if err != nil {
			post = err.Error()
		} else if got := string(snap[0].Val); got != lastOK && !abortedSince[got] {
			preserved = fmt.Sprintf("NO (%q ≠ %q)", got, lastOK)
		}
		b := c.Bounded(0)
		var deferred, aborted int64
		for i := 0; i < 4; i++ {
			deferred += c.Bounded(i).DeferredOps()
			aborted += c.Bounded(i).AbortedOps()
		}
		policy := "defer"
		if abort {
			policy = "abort"
		}
		t.AddRow(tc.alg.String(), policy, fmt.Sprint(writes), fmt.Sprint(b.Resets()), fmt.Sprint(b.Epoch()),
			fmt.Sprint(deferred), fmt.Sprint(aborted), preserved, post)
		c.Close()
	}
	t.AddNote("each overflow triggers one global reset; register values survive, indices collapse to 1, and only a bounded number of operations are deferred/aborted while the seldom reset runs (§5)")
	return []*Table{t}
}

// RunE10 validates the fault model end to end: operations complete with
// f < n/2 crashes, undetectable restarts are tolerated, and histories stay
// linearizable under a lossy/duplicating/reordering adversary.
func RunE10(p Params) []*Table {
	t := &Table{
		ID:      "E10",
		Title:   "crash tolerance and linearizability (n=5, lossy+dup+reorder network)",
		Headers: []string{"algorithm", "f", "ops ok", "ops failed", "linearizable"},
	}
	rounds := 6
	if p.Quick {
		rounds = 3
	}
	for _, alg := range []core.Algorithm{core.NonBlockingSS, core.DeltaSS, core.AlwaysTerminatingDG} {
		for _, f := range []int{0, 2} {
			cfg := fastCfg(alg, 5, int64(1000+f))
			cfg.Delta = 2
			cfg.Adversary = lossy()
			c := mustCluster(cfg)
			rec := history.NewRecorder()

			for i := 0; i < f; i++ {
				c.Crash(4 - i)
			}
			live := 5 - f

			var ok, failed atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < live; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < rounds; j++ {
						v := types.Value(fmt.Sprintf("n%dv%d", i, j))
						end := rec.BeginWrite(i, v)
						if err := c.Write(i, v); err != nil {
							failed.Add(1)
							continue
						}
						end()
						ok.Add(1)
						if j%2 == 1 {
							endS := rec.BeginSnapshot(i)
							snap, err := c.Snapshot(i)
							if err != nil {
								failed.Add(1)
								continue
							}
							endS(snap)
							ok.Add(1)
						}
					}
				}(i)
			}
			wg.Wait()
			lin := "yes"
			if v := rec.Check(); v != nil {
				lin = "VIOLATION: " + v.Detail
			}
			c.Close()
			t.AddRow(alg.String(), fmt.Sprint(f), fmt.Sprint(ok.Load()), fmt.Sprint(failed.Load()), lin)
		}
	}
	t.AddNote("all operations complete with f<n/2 crashes and every recorded history passes the snapshot-object linearizability checker")
	return []*Table{t}
}

func lossy() netsim.Adversary {
	return netsim.Adversary{DropProb: 0.08, DupProb: 0.08, MaxDelay: 2 * time.Millisecond}
}
