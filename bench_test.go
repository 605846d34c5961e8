// Package selfstabsnap_test holds the top-level benchmark harness:
// per-operation microbenchmarks for every algorithm. The paper's
// experiments E1–E10 are not benchmarks: internal/bench runs them on a
// virtual clock and TestClaims pins every cell.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package selfstabsnap_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/wire"
)

// ---- per-operation microbenchmarks ----

func benchCluster(b *testing.B, alg core.Algorithm, n int, delta int64) *core.Cluster {
	b.Helper()
	c, err := core.NewCluster(core.Config{
		N:            n,
		Algorithm:    alg,
		Delta:        delta,
		Seed:         42,
		LoopInterval: time.Millisecond,
		RetxInterval: 3 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func benchAlgorithms() []struct {
	name  string
	alg   core.Algorithm
	delta int64
} {
	return []struct {
		name  string
		alg   core.Algorithm
		delta int64
	}{
		{"DG-nonblocking", core.NonBlockingDG, 0},
		{"SS-nonblocking", core.NonBlockingSS, 0},
		{"DG-alwaysterm", core.AlwaysTerminatingDG, 0},
		{"SS-delta0", core.DeltaSS, 0},
		{"SS-delta8", core.DeltaSS, 8},
		{"stacked-ABD", core.StackedABD, 0},
		{"SS-bounded", core.BoundedSS, 0},
	}
}

// BenchmarkWrite measures write latency and messages/op per algorithm on a
// 5-node cluster.
func BenchmarkWrite(b *testing.B) {
	for _, a := range benchAlgorithms() {
		b.Run(a.name, func(b *testing.B) {
			c := benchCluster(b, a.alg, 5, a.delta)
			payload := []byte("benchmark-payload")
			before := c.Metrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Write(0, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			diff := c.Metrics().Sub(before)
			b.ReportMetric(float64(diff.Messages)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(diff.Bytes)/float64(b.N), "netB/op")
		})
	}
}

// BenchmarkSnapshot measures quiescent snapshot latency and messages/op.
func BenchmarkSnapshot(b *testing.B) {
	for _, a := range benchAlgorithms() {
		b.Run(a.name, func(b *testing.B) {
			c := benchCluster(b, a.alg, 5, a.delta)
			if err := c.Write(0, []byte("seed")); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Snapshot(1); err != nil { // warm-up
				b.Fatal(err)
			}
			before := c.Metrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Snapshot(1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			diff := c.Metrics().Sub(before)
			b.ReportMetric(float64(diff.MessagesOf(
				wire.TSnapshot, wire.TSnapshotAck, wire.TSave, wire.TSaveAck,
				wire.TCollect, wire.TCollectAck, wire.TWriteBack, wire.TWriteBackAck,
				wire.TRBCast, wire.TRBAck, wire.TSnap, wire.TEnd))/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkSnapshotScaling sweeps n for the self-stabilizing non-blocking
// algorithm: latency and msgs/op should both scale Θ(n).
func BenchmarkSnapshotScaling(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := benchCluster(b, core.NonBlockingSS, n, 0)
			if err := c.Write(0, []byte("seed")); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Snapshot(1); err != nil {
				b.Fatal(err)
			}
			before := c.Metrics()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Snapshot(1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			diff := c.Metrics().Sub(before)
			b.ReportMetric(float64(diff.MessagesOf(wire.TSnapshot, wire.TSnapshotAck))/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkConcurrentWriters measures aggregate write throughput with all
// nodes writing at once (SWMR: no conflicts, majority quorums shared).
func BenchmarkConcurrentWriters(b *testing.B) {
	for _, a := range benchAlgorithms() {
		b.Run(a.name, func(b *testing.B) {
			const n = 5
			c := benchCluster(b, a.alg, n, a.delta)
			payload := []byte("concurrent")
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if err := c.Write(w, payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
