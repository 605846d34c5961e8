package selfstabsnap_test

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/core"
)

// Hot-path benchmarks: end-to-end write and snapshot cost of the
// self-stabilizing Algorithm 1 across cluster size n and payload size ν,
// reported with allocs/op and B/op (run with -benchmem). These are the
// benchmarks the allocation-regression guard (allocguard_test.go) is
// built on: they measure the
// memory traffic of the whole operation pipeline — client install, quorum
// broadcast, server merge + reply, ack collection, final merge — not just
// one layer, so a deep copy reintroduced anywhere on the path shows up.

func hotpathCluster(b *testing.B, n int) *core.Cluster {
	b.Helper()
	c, err := core.NewCluster(core.Config{
		N:            n,
		Algorithm:    core.NonBlockingSS,
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

func hotpathGrid() []struct{ n, nu int } {
	return []struct{ n, nu int }{
		{4, 16}, {4, 256}, {16, 16}, {16, 256},
	}
}

func hotpathPayload(nu int) []byte {
	v := make([]byte, nu)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// BenchmarkWritePath measures one write operation end to end.
func BenchmarkWritePath(b *testing.B) {
	for _, g := range hotpathGrid() {
		b.Run(fmt.Sprintf("n=%d/nu=%d", g.n, g.nu), func(b *testing.B) {
			c := hotpathCluster(b, g.n)
			payload := hotpathPayload(g.nu)
			if err := c.Write(0, payload); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Write(0, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotPath measures one quiescent snapshot operation end to
// end, with every register holding a ν-byte payload.
func BenchmarkSnapshotPath(b *testing.B) {
	for _, g := range hotpathGrid() {
		b.Run(fmt.Sprintf("n=%d/nu=%d", g.n, g.nu), func(b *testing.B) {
			c := hotpathCluster(b, g.n)
			payload := hotpathPayload(g.nu)
			for w := 0; w < g.n; w++ {
				if err := c.Write(w, payload); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Snapshot(1); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Snapshot(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
