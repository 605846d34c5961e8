package node

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/obs"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// echoAlg acknowledges every TWrite with a TWriteAck and counts ticks.
type echoAlg struct {
	rt    *Runtime
	ticks atomic.Int64

	mu       sync.Mutex
	received []*wire.Message
}

func (a *echoAlg) HandleMessage(m *wire.Message) {
	a.mu.Lock()
	a.received = append(a.received, m)
	a.mu.Unlock()
	if m.Type == wire.TWrite {
		a.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteAck, SSN: m.SSN})
	}
}

func (a *echoAlg) Tick() { a.ticks.Add(1) }

func fastOpts() Options {
	return Options{LoopInterval: time.Millisecond, RetxInterval: 2 * time.Millisecond}
}

// newEchoCluster builds n echo nodes over a network.
func newEchoCluster(t *testing.T, n int, adv netsim.Adversary) ([]*echoAlg, []*Runtime, *netsim.Network) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: 77, Adversary: adv})
	algs := make([]*echoAlg, n)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		algs[i] = &echoAlg{}
		rts[i] = NewRuntime(i, net, algs[i], fastOpts())
		algs[i].rt = rts[i]
		rts[i].Start()
	}
	t.Cleanup(func() {
		for _, rt := range rts {
			rt.Close()
		}
		net.Close()
	})
	return algs, rts, net
}

func TestMajority(t *testing.T) {
	net := netsim.New(netsim.Config{N: 5, Seed: 1})
	defer net.Close()
	rt := NewRuntime(0, net, &echoAlg{}, Options{})
	if rt.Majority() != 3 {
		t.Errorf("majority of 5 = %d, want 3", rt.Majority())
	}
	if rt.N() != 5 || rt.ID() != 0 {
		t.Error("identity accessors broken")
	}
}

func TestCallReachesQuorum(t *testing.T) {
	_, rts, _ := newEchoCluster(t, 5, netsim.Adversary{})
	recs, err := rts[0].Call(CallOpts{
		Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: 7} },
		Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == 7 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Errorf("collected %d acks, want ≥ 3", len(recs))
	}
	seen := map[int32]bool{}
	for _, m := range recs {
		if seen[m.From] {
			t.Error("duplicate sender in Rec set")
		}
		seen[m.From] = true
	}
}

// TestShardedCallReachesQuorum runs consecutive quorum calls on one
// cluster: each returns a majority of acks, at most one per sender (the
// Rec set). The name dates from the sharded dispatcher this was first
// written for; it now drives the one dispatcher.
func TestShardedCallReachesQuorum(t *testing.T) {
	_, rts, _ := newEchoCluster(t, 5, netsim.Adversary{})
	for op := int64(1); op <= 3; op++ {
		recs, err := rts[0].Call(CallOpts{
			Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: op} },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == op },
		})
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if len(recs) < 3 {
			t.Errorf("op %d: collected %d acks, want ≥ 3", op, len(recs))
		}
		seen := map[int32]bool{}
		for _, m := range recs {
			if seen[m.From] {
				t.Errorf("op %d: duplicate sender in Rec set", op)
			}
			seen[m.From] = true
		}
	}
}

func TestCallRetransmitsThroughLoss(t *testing.T) {
	_, rts, _ := newEchoCluster(t, 5, netsim.Adversary{DropProb: 0.5})
	done := make(chan error, 1)
	go func() {
		_, err := rts[0].Call(CallOpts{
			Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: 8} },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == 8 },
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Call did not survive 50% loss")
	}
}

func TestCallStopEarlyExit(t *testing.T) {
	_, rts, net := newEchoCluster(t, 5, netsim.Adversary{})
	// Cut every outbound link so no ack can arrive; rely on Stop.
	for k := 1; k < 5; k++ {
		net.SetCut(0, k, true)
	}
	var polls atomic.Int64
	recs, err := rts[0].Call(CallOpts{
		Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: 9} },
		Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck },
		Stop:   func() bool { return polls.Add(1) >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the self-delivered ack can arrive; Stop must fire well before a
	// (never reachable) majority of 3.
	if len(recs) > 1 {
		t.Errorf("expected ≤1 acks (self only), got %d", len(recs))
	}
}

func TestCallAbortsOnCrash(t *testing.T) {
	_, rts, net := newEchoCluster(t, 5, netsim.Adversary{})
	for k := 1; k < 5; k++ {
		net.SetCut(0, k, true) // prevent completion
	}
	done := make(chan error, 1)
	go func() {
		_, err := rts[0].Call(CallOpts{
			Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite} },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck },
		})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	rts[0].Crash()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("err = %v, want ErrCrashed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Call not aborted by crash")
	}
}

func TestCallFailsWhenAlreadyCrashed(t *testing.T) {
	_, rts, _ := newEchoCluster(t, 3, netsim.Adversary{})
	rts[0].Crash()
	_, err := rts[0].Call(CallOpts{
		Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite} },
		Accept: func(m *wire.Message) bool { return true },
	})
	if !errors.Is(err, ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
}

// TestCrashStopsStepsAndResumeRestores runs on a virtual clock, which
// turns what used to be sleep-and-hope timing windows (and a wall-clock
// poll for the resumed node's first tick) into exact assertions: virtual
// sleeps advance simulated time precisely, so a crashed node must tick
// zero times and a resumed node must tick again within its loop interval,
// deterministically, regardless of machine load.
func TestCrashStopsStepsAndResumeRestores(t *testing.T) {
	v := simclock.NewVirtual()
	v.Run("crash-resume-test", func() {
		net := netsim.New(netsim.Config{N: 3, Seed: 77, Clock: v})
		defer net.Close()
		algs := make([]*echoAlg, 3)
		rts := make([]*Runtime, 3)
		for i := range rts {
			algs[i] = &echoAlg{}
			opts := fastOpts()
			opts.Clock = v
			rts[i] = NewRuntime(i, net, algs[i], opts)
			algs[i].rt = rts[i]
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()
		for _, rt := range rts {
			rt.Start()
		}

		v.Sleep(10 * time.Millisecond)
		rts[1].Crash()
		if !rts[1].Crashed() {
			t.Error("not crashed")
			return
		}
		ticksAtCrash := algs[1].ticks.Load()
		v.Sleep(15 * time.Millisecond)
		if got := algs[1].ticks.Load(); got != ticksAtCrash {
			t.Errorf("crashed node ticked %d times", got-ticksAtCrash)
		}
		// Messages to a crashed node are lost (consumed without processing).
		rts[0].Send(1, &wire.Message{Type: wire.TWrite, SSN: 5})
		v.Sleep(10 * time.Millisecond)
		algs[1].mu.Lock()
		for _, m := range algs[1].received {
			if m.SSN == 5 {
				t.Error("crashed node processed a message")
			}
		}
		algs[1].mu.Unlock()

		rts[1].Resume()
		if rts[1].Crashed() {
			t.Error("still crashed after resume")
			return
		}
		// One loop interval of virtual time is exactly enough for the next
		// do-forever iteration — no polling loop, no deadline slack.
		v.Sleep(2 * fastOpts().LoopInterval)
		if algs[1].ticks.Load() == ticksAtCrash {
			t.Error("resumed node does not tick")
		}
	})
}

// TestLoopCountAdvances runs on a virtual clock: five loop intervals of
// virtual time are exactly enough for five do-forever iterations, so the
// old wall-clock deadline poll becomes a deterministic assertion.
func TestLoopCountAdvances(t *testing.T) {
	v := simclock.NewVirtual()
	v.Run("loop-count-advances", func() {
		net := netsim.New(netsim.Config{N: 3, Seed: 77, Clock: v})
		defer net.Close()
		rts := make([]*Runtime, 3)
		for i := range rts {
			alg := &echoAlg{}
			opts := fastOpts()
			opts.Clock = v
			rts[i] = NewRuntime(i, net, alg, opts)
			alg.rt = rts[i]
			rts[i].Start()
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		v.Sleep(6 * fastOpts().LoopInterval)
		if got := rts[0].LoopCount(); got < 5 {
			t.Errorf("LoopCount = %d after 6 loop intervals, want ≥ 5", got)
		}
	})
}

func TestGossipToExcludesSelf(t *testing.T) {
	algs, rts, _ := newEchoCluster(t, 3, netsim.Adversary{})
	rts[0].GossipTo(func(k int) *wire.Message {
		return &wire.Message{Type: wire.TGossip, SSN: int64(k)}
	})
	time.Sleep(20 * time.Millisecond)
	algs[0].mu.Lock()
	for _, m := range algs[0].received {
		if m.Type == wire.TGossip && m.From == 0 {
			t.Error("gossip delivered to self")
		}
	}
	algs[0].mu.Unlock()
	algs[1].mu.Lock()
	found := false
	for _, m := range algs[1].received {
		if m.Type == wire.TGossip && m.SSN == 1 {
			found = true
		}
	}
	algs[1].mu.Unlock()
	if !found {
		t.Error("gossip did not reach peer with per-peer payload")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	algs, rts, _ := newEchoCluster(t, 3, netsim.Adversary{})
	rts[0].Broadcast(&wire.Message{Type: wire.TSnapshot, SSN: 123})
	time.Sleep(20 * time.Millisecond)
	algs[0].mu.Lock()
	defer algs[0].mu.Unlock()
	found := false
	for _, m := range algs[0].received {
		if m.Type == wire.TSnapshot && m.SSN == 123 {
			found = true
		}
	}
	if !found {
		t.Error("broadcast must include the sender")
	}
}

// TestPerSenderFIFO floods one receiver from several concurrent senders:
// the dispatcher hands each sender's stream to the handler in send order
// (register k is written only by node k, so per-sender FIFO is
// per-register FIFO).
func TestPerSenderFIFO(t *testing.T) {
	const n, msgs = 5, 200
	algs, rts, _ := newEchoCluster(t, n, netsim.Adversary{})
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := int64(0); i < msgs; i++ {
				rts[s].Send(0, &wire.Message{Type: wire.TGossip, SSN: i})
			}
		}(s)
	}
	wg.Wait()
	bySrc := func() (map[int32][]int64, int) {
		algs[0].mu.Lock()
		defer algs[0].mu.Unlock()
		out := make(map[int32][]int64)
		for _, m := range algs[0].received {
			out[m.From] = append(out[m.From], m.SSN)
		}
		return out, len(algs[0].received)
	}
	got, total := bySrc()
	for deadline := time.Now().Add(5 * time.Second); total < (n-1)*msgs && time.Now().Before(deadline); got, total = bySrc() {
		time.Sleep(time.Millisecond)
	}
	for src := int32(1); src < n; src++ {
		ssns := got[src]
		if len(ssns) != msgs {
			t.Fatalf("sender %d: delivered %d/%d (loss-free net must not drop)", src, len(ssns), msgs)
		}
		for i, ssn := range ssns {
			if ssn != int64(i) {
				t.Fatalf("sender %d: position %d got SSN %d — per-sender FIFO violated", src, i, ssn)
			}
		}
	}
}

// TestShardedCrashLosesMessages pins the crash semantics on the real
// clock: a message arriving while a node is crashed is lost, and once
// resumed the node handles arriving messages again. The name dates from
// the sharded dispatcher this was first written for; it now drives the
// one dispatcher.
func TestShardedCrashLosesMessages(t *testing.T) {
	algs, rts, _ := newEchoCluster(t, 3, netsim.Adversary{})
	handled := func() int {
		algs[1].mu.Lock()
		defer algs[1].mu.Unlock()
		return len(algs[1].received)
	}
	rts[1].Crash()
	if !rts[1].Crashed() {
		t.Fatal("not crashed")
	}
	before := handled()
	rts[0].Send(1, &wire.Message{Type: wire.TGossip, SSN: 99})
	time.Sleep(20 * time.Millisecond)
	if got := handled(); got != before {
		t.Errorf("crashed node handled %d messages", got-before)
	}
	rts[1].Resume()
	rts[0].Send(1, &wire.Message{Type: wire.TGossip, SSN: 100})
	deadline := time.Now().Add(2 * time.Second)
	for handled() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled() == before {
		t.Error("resumed node handles no messages")
	}
}

func TestWaitUntil(t *testing.T) {
	_, rts, _ := newEchoCluster(t, 3, netsim.Adversary{})
	var flag atomic.Bool
	time.AfterFunc(10*time.Millisecond, func() { flag.Store(true) })
	if err := rts[0].WaitUntil(flag.Load); err != nil {
		t.Fatal(err)
	}

	rts[1].Crash()
	err := rts[1].WaitUntil(func() bool { return false })
	if !errors.Is(err, ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
}

func TestCloseIsIdempotentAndAbortsCalls(t *testing.T) {
	_, rts, net := newEchoCluster(t, 3, netsim.Adversary{})
	for k := 1; k < 3; k++ {
		net.SetCut(0, k, true)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rts[0].Call(CallOpts{
			Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite} },
			Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck },
		})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	rts[0].Close()
	rts[0].Close() // idempotent
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrCrashed) {
			t.Errorf("err = %v, want ErrClosed/ErrCrashed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Call not aborted by Close")
	}
}

// TestLastTickAndJournal pins the observability surface added to the
// runtime: LastTick advances with the do-forever loop (and is zero before
// the first iteration), and RecordEvent lands in the configured journal —
// nil-safely when no journal is wired.
func TestLastTickAndJournal(t *testing.T) {
	v := simclock.NewVirtual()
	v.Run("last-tick-journal", func() {
		net := netsim.New(netsim.Config{N: 1, Seed: 9, Clock: v})
		defer net.Close()
		alg := &echoAlg{}
		opts := fastOpts()
		opts.Clock = v
		opts.Journal = obs.NewJournal(4)
		rt := NewRuntime(0, net, alg, opts)
		alg.rt = rt
		defer rt.Close()

		if !rt.LastTick().IsZero() {
			t.Error("LastTick nonzero before Start")
		}
		rt.Start()
		v.Sleep(5 * time.Millisecond)
		first := rt.LastTick()
		if first.IsZero() {
			t.Error("LastTick still zero after ticking")
		}
		v.Sleep(5 * time.Millisecond)
		if !rt.LastTick().After(first) {
			t.Errorf("LastTick did not advance: %v then %v", first, rt.LastTick())
		}

		rt.RecordEvent("ts-repair", "test detail")
		if got := opts.Journal.Counts()["ts-repair"]; got != 1 {
			t.Errorf("journal count = %d, want 1", got)
		}
	})

	// A runtime without a journal must accept RecordEvent as a no-op.
	_, rts, _ := newEchoCluster(t, 1, netsim.Adversary{})
	rts[0].RecordEvent("ts-repair", "discarded")
}
