package selfstabsnap_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/reset"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Allocation-regression guard: hard ceilings on the hot path's allocs/op
// and B/op, enforced in CI. The zero-deep-copy refactor cut the write path
// from 230 to ~113 allocs/op and the snapshot path from ~1078 to ~115 at
// n=16, ν=256; these ceilings sit ~60% above the new steady state so noise
// from background gossip never trips them, while reintroducing even one
// O(n·ν) deep copy per operation (≥ n extra allocations and ν·n extra
// bytes) fails the guard immediately.

type allocCeiling struct {
	op       string
	n, nu    int
	allocsOp int64
	bytesOp  int64
}

func allocCeilings() []allocCeiling {
	return []allocCeiling{
		{"write", 4, 256, 65, 9_500},
		{"snapshot", 4, 256, 70, 10_000},
		{"write", 16, 256, 185, 45_000},
		{"snapshot", 16, 256, 195, 48_000},
	}
}

// skipUnlessAllocationsRepresentative skips an allocation guard in builds
// whose allocation counts say nothing about production.
func skipUnlessAllocationsRepresentative(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated and non-representative under -race")
	}
	if types.MutcheckEnabled {
		t.Skip("mutcheck's fingerprint registry allocates by design; ceilings hold for production builds")
	}
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
}

// measureOp runs fn ops times and returns per-op allocation count and bytes
// from the runtime's cumulative counters — whole-process numbers, the same
// source `go test -benchmem` reads.
func measureOp(t *testing.T, ops int, fn func() error) (allocsOp, bytesOp int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := int64(ops)
	return int64(after.Mallocs-before.Mallocs) / n, int64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestHotpathAllocationCeilingsWrapTick guards the reset engine's wrap
// tick. While frozen the engine broadcasts MAXIDX gossip once per tick
// with the caller's shared-structure register snapshot attached by
// reference; the tick's cost must stay O(1) in ν. A reintroduced
// reg.Clone() on this path costs ≥ n extra allocations and n·ν extra
// bytes per tick (n=16, ν=256 → ≥4 KB/tick) and trips both ceilings
// immediately. The name shares the TestHotpathAllocationCeilings prefix
// so CI's existing `-run TestHotpathAllocationCeilings` leg picks it up.
func TestHotpathAllocationCeilingsWrapTick(t *testing.T) {
	skipUnlessAllocationsRepresentative(t)
	const n, nu, ops = 16, 256, 200
	payload := make([]byte, nu)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	reg := types.NewRegVector(n)
	for k := range reg {
		reg[k] = types.TSValue{TS: int64(k + 1), Val: payload}
	}
	shared := reg.Share()

	eng := reset.NewEngine(0, n)
	eng.Trigger()
	allocs, bytes := measureOp(t, ops, func() error {
		res := eng.OnTick(shared, true)
		if len(res.Outputs) == 0 {
			return fmt.Errorf("wrap tick produced no MAXIDX broadcast")
		}
		return nil
	})
	const allocCeil, byteCeil = 12, 1_600
	t.Logf("wrap tick n=%d ν=%d: %d allocs/op, %d B/op (ceiling %d / %d)", n, nu, allocs, bytes, allocCeil, byteCeil)
	if allocs > allocCeil {
		t.Errorf("allocs/op regression: %d > ceiling %d — a register deep copy crept back onto the wrap tick?", allocs, allocCeil)
	}
	if bytes > byteCeil {
		t.Errorf("B/op regression: %d > ceiling %d — a register deep copy crept back onto the wrap tick?", bytes, byteCeil)
	}
}

// TestHotpathAllocationCeilingsTCPHop guards the TCP transport's frame
// path: one 5-entry ν = 1024 WRITE sent over a loopback pair and received,
// sender and receiver together, where four of the five entries repeat the
// previous frame — the shape of Algorithm 1's traffic. What may be allocated
// per delivered frame is the message itself: the sender's envelope, and the
// receiver's struct, entry array and the one payload that changed (≈ 1.6 KB,
// 4 allocations). A per-frame buffer on either side, or a decoder that
// copies repeated payloads again, costs ≥ 4 KB more and trips the ceiling (the path this replaced spent
// ≈ 16 KB per frame). The name shares the TestHotpathAllocationCeilings
// prefix so CI's existing `-run TestHotpathAllocationCeilings` leg picks it
// up.
func TestHotpathAllocationCeilingsTCPHop(t *testing.T) {
	skipUnlessAllocationsRepresentative(t)
	const n, nu, warmup, ops = 5, 1024, 200, 2000
	mesh, err := tcpnet.NewMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	from, to := mesh.Transports[0], mesh.Transports[1]

	// Two vectors that differ in entry 0 only, sent alternately.
	var regs [2]types.RegVector
	for v := range regs {
		regs[v] = types.NewRegVector(n)
		for k := range regs[v] {
			payload := make([]byte, nu)
			for i := range payload {
				payload[i] = byte('a' + (i+k)%26)
			}
			regs[v][k] = types.TSValue{TS: int64(k + 1), Val: payload}
		}
	}
	regs[1][0].Val[0] = '!'
	msg := &wire.Message{Type: wire.TWrite}
	i := 0
	hop := func() error {
		i++
		msg.SSN, msg.Reg = int64(i), regs[i%2]
		from.Send(0, 1, msg)
		got, ok := to.Recv(1)
		if !ok || got.SSN != int64(i) || len(got.Reg) != n {
			return fmt.Errorf("frame %d not delivered: %+v", i, got)
		}
		return nil
	}
	measureOp(t, warmup, hop) // connect, grow the writer's buffer, fill the codec caches
	allocs, bytes := measureOp(t, ops, hop)
	const allocCeil, byteCeil = 6, 2_048
	t.Logf("tcp hop n=%d ν=%d: %d allocs/frame, %d B/frame (ceiling %d / %d)", n, nu, allocs, bytes, allocCeil, byteCeil)
	if allocs > allocCeil {
		t.Errorf("allocs/frame regression: %d > ceiling %d — a per-frame buffer crept back onto the TCP frame path?", allocs, allocCeil)
	}
	if bytes > byteCeil {
		t.Errorf("B/frame regression: %d > ceiling %d — a per-frame buffer crept back onto the TCP frame path?", bytes, byteCeil)
	}
}

func TestHotpathAllocationCeilings(t *testing.T) {
	skipUnlessAllocationsRepresentative(t)
	const ops = 150
	for _, c := range allocCeilings() {
		t.Run(fmt.Sprintf("%s/n=%d/nu=%d", c.op, c.n, c.nu), func(t *testing.T) {
			cl, err := core.NewCluster(core.Config{
				N:            c.n,
				Algorithm:    core.NonBlockingSS,
				Seed:         42,
				LoopInterval: time.Millisecond,
				RetxInterval: 3 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			payload := make([]byte, c.nu)
			for i := range payload {
				payload[i] = byte('a' + i%26)
			}
			for w := 0; w < c.n; w++ { // fill registers + warm-up
				if err := cl.Write(w, payload); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cl.Snapshot(1); err != nil {
				t.Fatal(err)
			}

			var run func() error
			switch c.op {
			case "write":
				run = func() error { return cl.Write(0, payload) }
			case "snapshot":
				run = func() error { _, err := cl.Snapshot(1); return err }
			}
			allocs, bytes := measureOp(t, ops, run)
			t.Logf("%s n=%d ν=%d: %d allocs/op, %d B/op (ceiling %d / %d)",
				c.op, c.n, c.nu, allocs, bytes, c.allocsOp, c.bytesOp)
			if allocs > c.allocsOp {
				t.Errorf("allocs/op regression: %d > ceiling %d — a deep copy crept back onto the hot path?", allocs, c.allocsOp)
			}
			if bytes > c.bytesOp {
				t.Errorf("B/op regression: %d > ceiling %d — a deep copy crept back onto the hot path?", bytes, c.bytesOp)
			}
		})
	}
}
