package bench

import "testing"

// TestMultiObjectScalingFloor is the cheap always-on acceptance check for
// the multi-object tentpole's throughput half: at a 64-object mix the
// aggregate message rate with 8 shards must be at least 3× the classic
// single dispatcher's. Virtual-clock determinism makes the ratio exact per
// build, not load-dependent.
func TestMultiObjectScalingFloor(t *testing.T) {
	base := runMultiObject(moSenders, 64, 100, 1)
	sharded := runMultiObject(moSenders, 64, 100, 8)
	if base.msgPerS <= 0 || sharded.msgPerS/base.msgPerS < 3 {
		t.Fatalf("speedup = %.2fx (%.0f vs %.0f msg/s), want ≥ 3x",
			sharded.msgPerS/base.msgPerS, sharded.msgPerS, base.msgPerS)
	}
}

// TestMultiObjectIsolationFloor is the acceptance check for the isolation
// half: saturating object 0 must leave the cold objects' p99 within 2× of
// the quiet baseline — the per-object fair lanes, not luck, bound the
// interference.
func TestMultiObjectIsolationFloor(t *testing.T) {
	quietP99, quietOps := runMultiObjectIsolation(16, 60, 0, 4)
	hotP99, hotOps := runMultiObjectIsolation(16, 60, 400, 4)
	if want := int64(moSenders * 60); quietOps < want || hotOps < want {
		t.Fatalf("cold traffic did not complete: quiet %d, hot %d, want %d", quietOps, hotOps, want)
	}
	if quietP99 <= 0 {
		t.Fatal("no cold latency recorded")
	}
	if degr := float64(hotP99) / float64(quietP99); degr >= 2 {
		t.Fatalf("cold p99 degraded %.2fx under a hot neighbour (%v vs %v), want < 2x",
			degr, hotP99, quietP99)
	}
}

// TestMultiObjectRegressionGuard replays the full multi-object grid and
// compares every throughput, tail-latency and isolation cell against the
// committed baseline (BENCH_multiobject.json at the repo root), failing on
// >10% regression. Gated behind MULTIOBJECT_GUARD=1 like the dispatch and
// deltagossip guards; improvements pass, and the baseline is regenerated
// with `go run ./cmd/benchrunner -exp multiobject -json` to ratchet.
func TestMultiObjectRegressionGuard(t *testing.T) {
	base := loadGuardBaseline(t, "MULTIOBJECT_GUARD", "multiobject", 2)
	fresh := RunMultiObject(Params{})
	// Scaling: column 5 is msg/s (higher is better), column 6 is p99.9 in
	// ms (lower is better).
	guardTable(t, fresh[0], base.Tables[0], []int{0, 1, 3},
		[]guarded{{col: 5, higherBetter: true}, {col: 6}})
	// Isolation: column 4 is cold p99 in ms, column 5 the degradation
	// factor; both lower is better.
	guardTable(t, fresh[1], base.Tables[1], []int{0},
		[]guarded{{col: 4}, {col: 5}})
}
