package bench

import "testing"

// TestDispatchSpeedupFloor is the cheap always-on acceptance check for the
// sharded-dispatch tentpole: at 4 shards the mixed workload must move at
// least 3× the messages per virtual second of the classic single
// dispatcher, and the p99.9 sojourn time must drop. Virtual-clock
// determinism makes both assertions stable, not load-dependent.
func TestDispatchSpeedupFloor(t *testing.T) {
	base := runDispatch(dispatchSenders, 100, 1)
	sharded := runDispatch(dispatchSenders, 100, 4)
	if base.msgPerS <= 0 || sharded.msgPerS/base.msgPerS < 3 {
		t.Fatalf("speedup = %.2fx (%.0f vs %.0f msg/s), want ≥ 3x",
			sharded.msgPerS/base.msgPerS, sharded.msgPerS, base.msgPerS)
	}
	if sharded.p999 >= base.p999 {
		t.Errorf("p99.9 did not improve: %v (shards=4) vs %v (shards=1)", sharded.p999, base.p999)
	}
}

// TestDispatchRegressionGuard replays the full dispatch grid and compares
// every throughput and p99.9 cell against the committed baseline
// (BENCH_dispatch.json at the repo root), failing on >10% regression —
// lower msg/s or higher p99.9. Gated behind DISPATCH_GUARD=1, like the
// deltagossip guard; improvements pass, and the baseline is then
// regenerated with `go run ./cmd/benchrunner -exp dispatch -json` to
// ratchet the bar.
func TestDispatchRegressionGuard(t *testing.T) {
	base := loadGuardBaseline(t, "DISPATCH_GUARD", "dispatch", 1)
	// Column 4 is msg/s (higher is better), column 5 is p99.9 in ms (lower
	// is better); both are guarded so a throughput loss and a tail-latency
	// blowup are each caught on their own.
	guardTable(t, RunDispatch(Params{})[0], base.Tables[0], []int{0, 2},
		[]guarded{{col: 4, higherBetter: true}, {col: 5}})
}
