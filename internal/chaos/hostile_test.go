package chaos

import (
	"errors"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/faults"
)

// hostileConfig is the combined hostile-topology mix the nightly campaign
// sweeps: asymmetric WAN matrix, periodic flapping partitions, slow-but-
// alive nodes, skewed detectable restarts, the classic rated faults, and
// the checkpoint/restore bank workload on top — all on the virtual clock.
// The flap train's gaps are sized so restart quiet windows can still land.
func hostileConfig(seed int64) Config {
	return Config{
		N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: seed,
		WAN: &faults.WANSpec{
			Regions: 3, Cross: time.Millisecond, DropProb: 0.05,
		},
		Flapping: &FlappingSpec{
			Count: 2, Period: 150 * time.Millisecond, Duty: 0.1,
		},
		SlowNodeRate:      4,
		SlowNodeFactor:    4,
		SkewedRestartRate: 8,
		CrashRate:         4,
		PartitionRate:     3,
		AckCorruptRate:    8,
		Bank:              &BankSpec{},
		Duration:          600 * time.Millisecond,
		Virtual:           true,
		Hash:              true,
	}
}

// TestVirtualRunDeterministicHostile pins the combined hostile mix to the
// determinism contract: identical TraceHash/HistoryHash across repeated
// runs and across GOMAXPROCS 1 and 4, with no history or bank violation.
// Every new nemesis — WAN matrix draws, flap pulses, slowdown application,
// restart recovery merges, bank restores — sits on this path.
func TestVirtualRunDeterministicHostile(t *testing.T) {
	assertReplaysAcrossGOMAXPROCS(t, hostileConfig(29))
}

// TestHostileNemesesFire checks the combined mix actually exercises every
// nemesis across a handful of seeds — flap pulses land, slowdowns apply,
// skewed restarts complete and trigger bank restores — and that no seed
// violates the checker or the bank's conservation invariant, under both
// self-stabilizing algorithms (each has its own restart-recovery path).
func TestHostileNemesesFire(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, alg := range []core.Algorithm{core.DeltaSS, core.NonBlockingSS} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			var total Result
			for _, seed := range seeds {
				cfg := hostileConfig(seed)
				cfg.Algorithm = alg
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatalf("seed %d: %v", seed, res.Violation)
				}
				if res.Writes == 0 || res.Snapshots == 0 {
					t.Fatalf("seed %d: workload starved: %v", seed, res)
				}
				total.Writes += res.Writes
				total.Flaps += res.Flaps
				total.SlowNodes += res.SlowNodes
				total.Restarts += res.Restarts
				total.Restores += res.Restores
			}
			if total.Flaps == 0 {
				t.Error("no flap pulse fired across all seeds")
			}
			if total.SlowNodes == 0 {
				t.Error("no slow-node window fired across all seeds")
			}
			if total.Restarts == 0 {
				t.Error("no skewed restart completed across all seeds")
			}
			if total.Restores == 0 {
				t.Error("no bank checkpoint restore happened across all seeds")
			}
		})
	}
}

// TestGenScheduleEnvelope is the table of negative cases: a nemesis
// configured beyond its legal envelope must be rejected with its exact
// sentinel error at GenSchedule (or Run) time — never silently clamped
// into a "nearby" legal schedule.
func TestGenScheduleEnvelope(t *testing.T) {
	t.Parallel()
	base := func() Config {
		return Config{
			N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: 1,
			Duration: 200 * time.Millisecond, Virtual: true,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"flap-count-zero", func(c *Config) {
			c.Flapping = &FlappingSpec{Count: 0}
		}, ErrFlapSpec},
		{"flap-count-over-n", func(c *Config) {
			c.Flapping = &FlappingSpec{Count: 6}
		}, ErrFlapSpec},
		{"flap-duty-out-of-range", func(c *Config) {
			c.Flapping = &FlappingSpec{Count: 2, Duty: 1.5}
		}, ErrFlapSpec},
		{"flap-negative-period", func(c *Config) {
			c.Flapping = &FlappingSpec{Count: 2, Period: -time.Millisecond}
		}, ErrFlapSpec},
		{"flap-occupancy-over-f", func(c *Config) {
			// 5 staggered nodes at 90% duty keep ~4 cut at once; f=2.
			c.Flapping = &FlappingSpec{Count: 5, Duty: 0.9}
		}, ErrFlapEnvelope},
		{"slow-factor-below-one", func(c *Config) {
			c.SlowNodeRate, c.SlowNodeFactor = 5, 0.5
		}, ErrSlowSpec},
		{"skew-inside-flush-window", func(c *Config) {
			c.SkewedRestartRate, c.MaxSkew = 5, time.Millisecond
		}, ErrSkewEnvelope},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base()
			tc.mutate(&cfg)
			if _, err := GenSchedule(cfg); !errors.Is(err, tc.wantErr) {
				t.Fatalf("GenSchedule error = %v, want %v", err, tc.wantErr)
			}
			// Run must surface the same rejection, not swallow it.
			if _, err := Run(cfg); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsBadHostileConfigs covers the Run-level envelope: WAN specs
// and bank workload combinations that GenSchedule never sees.
func TestRunRejectsBadHostileConfigs(t *testing.T) {
	t.Parallel()
	base := func() Config {
		return Config{
			N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: 1,
			Duration: 50 * time.Millisecond, Virtual: true,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"wan-one-region", func(c *Config) {
			c.WAN = &faults.WANSpec{Regions: 1}
		}, faults.ErrBadWANSpec},
		{"wan-more-regions-than-nodes", func(c *Config) {
			c.WAN = &faults.WANSpec{Regions: 9}
		}, faults.ErrBadWANSpec},
		{"wan-unfair-loss", func(c *Config) {
			c.WAN = &faults.WANSpec{Regions: 3, DropProb: 0.7}
		}, faults.ErrBadWANSpec},
		{"bank-with-corruption", func(c *Config) {
			c.Bank, c.Corrupt = &BankSpec{}, true
		}, ErrBankSpec},
		{"bank-multi-object", func(c *Config) {
			c.Bank, c.Objects = &BankSpec{}, 3
		}, ErrBankSpec},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestGenScheduleHostileSound: generated hostile schedules keep the
// harness's structural guarantees — the ≤f bound counts flapped and
// restarting nodes too, every skewed restart's skew clears the network-
// flush window, and its padded quiet window overlaps no other disturbance.
func TestGenScheduleHostileSound(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 5, 9, 13} {
		cfg := hostileConfig(seed)
		evs, err := GenSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := (cfg.N - 1) / 2
		downKinds := map[FaultKind]bool{
			FaultCrash: true, FaultPartition: true, FaultFlap: true, FaultSkewedRestart: true,
		}
		for at := time.Duration(0); at <= cfg.Duration; at += time.Millisecond {
			down := map[int]bool{}
			for _, e := range evs {
				if downKinds[e.Kind] && e.At <= at && at < e.At+e.Down {
					down[e.Node] = true
				}
			}
			if len(down) > f {
				t.Fatalf("seed %d: %d nodes down at %v, bound is %d", seed, len(down), at, f)
			}
		}
		flush := cfg.flushWindow()
		for i, e := range evs {
			if e.Kind != FaultSkewedRestart {
				continue
			}
			if e.Down < flush {
				t.Fatalf("seed %d: restart skew %v below flush window %v", seed, e.Down, flush)
			}
			from, to := e.At-flush, e.At+e.Down+flush
			for j, o := range evs {
				if i == j || o.Kind == FaultAckCorrupt {
					continue
				}
				if from < o.At+o.Down && o.At < to {
					t.Fatalf("seed %d: restart window [%v,%v] disturbed by %v", seed, from, to, o)
				}
			}
		}
	}
}

// TestScheduleReplayHostileMinimized: ddmin-minimizing a flapping-partition
// failure yields a minimal schedule whose replay is digest-deterministic.
// The failure predicate is synthetic (two flap pulses on node 1) so the
// test pins the mechanics — subset search, replay, hashing — without
// needing a real protocol bug.
func TestScheduleReplayHostileMinimized(t *testing.T) {
	t.Parallel()
	cfg := Config{
		N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: 7,
		Flapping:  &FlappingSpec{Count: 2, Period: 60 * time.Millisecond, Duty: 0.2},
		CrashRate: 10,
		Duration:  300 * time.Millisecond,
		Virtual:   true,
		Hash:      true,
	}
	sched, err := GenSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := func(evs []FaultEvent) bool {
		n := 0
		for _, e := range evs {
			if e.Kind == FaultFlap && e.Node == 1 {
				n++
			}
		}
		return n >= 2
	}
	if !fails(sched) {
		t.Fatalf("generated schedule lacks two node-1 flap pulses:\n%v", sched)
	}
	got := minimize(sched, fails)
	if len(got) != 2 {
		t.Fatalf("ddmin left %d events, want exactly the 2 failing pulses:\n%v", len(got), got)
	}
	for _, e := range got {
		if e.Kind != FaultFlap || e.Node != 1 {
			t.Fatalf("ddmin kept a non-failing event: %v", e)
		}
	}
	cfg.Schedule = got
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash || a.HistoryHash != b.HistoryHash {
		t.Errorf("minimized replay diverged: trace %#x vs %#x, history %#x vs %#x",
			a.TraceHash, b.TraceHash, a.HistoryHash, b.HistoryHash)
	}
}
