package bench

import "testing"

// TestDeltaGossipReductionFloor is the cheap always-on acceptance check:
// at the quick grid the delta mode must cut idle gossip bandwidth by at
// least 5× — the tentpole claim. Virtual-clock determinism makes this a
// stable equality-grade assertion, not a flaky perf test.
func TestDeltaGossipReductionFloor(t *testing.T) {
	full, delta := dgBytesPerTick(16, 4096)
	if delta <= 0 || full/delta < 5 {
		t.Fatalf("reduction = %.1fx (full %.0f, delta %.0f B/tick), want ≥ 5x", full/delta, full, delta)
	}
}

// TestDeltaGossipRegressionGuard replays the full deltagossip grid and
// compares every bytes/tick cell against the committed baseline
// (BENCH_deltagossip.json at the repo root), failing on >10% regression.
// Gated behind DELTAGOSSIP_GUARD=1 — CI's nightly job runs it; local `go
// test` skips the ~1.5s sweep. Improvements (lower bytes/tick) pass; the
// committed baseline should then be regenerated with
// `go run ./cmd/benchrunner -exp deltagossip -json` to ratchet the bar.
func TestDeltaGossipRegressionGuard(t *testing.T) {
	base := loadGuardBaseline(t, "DELTAGOSSIP_GUARD", "deltagossip", 1)
	// Columns 2 and 3 are full and delta bytes/tick; both are guarded so a
	// growth of the full send, the decisions per tick or the delta traffic
	// (acks included) is caught.
	guardTable(t, RunDeltaGossip(Params{})[0], base.Tables[0], []int{0, 1},
		[]guarded{{col: 2}, {col: 3}})
}
