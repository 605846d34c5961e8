package chaos

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"selfstabsnap/internal/core"
)

// detConfig is the config the determinism tests replay: every fault class
// on, hostile network, hashing enabled.
func detConfig(seed int64) Config {
	return Config{
		N: 5, Algorithm: core.DeltaSS, Delta: 2, Seed: seed,
		Adversary:      hostileNet(),
		Duration:       300 * time.Millisecond,
		CrashRate:      15,
		PartitionRate:  10,
		AckCorruptRate: 20,
		Virtual:        true,
		Hash:           true,
	}
}

// TestVirtualRunDeterministic replays the same seed and asserts the two
// executions are byte-identical: same message trace digest, same operation
// history digest (which covers every value, index and virtual timestamp),
// and same counters. This is the acceptance check for the virtual time
// domain — any stray real-time dependency or unserialized goroutine in the
// cluster stack would diverge the hashes.
func TestVirtualRunDeterministic(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3, 17, 99} {
		a, err := Run(detConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(detConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.TraceHash == 0 || a.HistoryHash == 0 {
			t.Fatalf("seed %d: hashes not computed: %+v", seed, a)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("seed %d: trace diverged: %#x vs %#x", seed, a.TraceHash, b.TraceHash)
		}
		if a.HistoryHash != b.HistoryHash {
			t.Errorf("seed %d: history diverged: %#x vs %#x", seed, a.HistoryHash, b.HistoryHash)
		}
		a.Violation, b.Violation = nil, nil // pointer identity differs
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: results diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestVirtualRunDeterministicAcrossGOMAXPROCS proves the token-passing
// scheduler makes the simulation independent of OS-level parallelism:
// repeated runs with one processor and with four hash identically, with
// no history violation. (CI also runs the whole package under -cpu 1,4,
// which re-executes every determinism test in both regimes.)
func TestVirtualRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertReplaysAcrossGOMAXPROCS(t, detConfig(23))
}

// TestVirtualRunDeterministicSharded replays seed 67 across repeated runs
// and GOMAXPROCS 1 and 4. The name dates from sharded dispatch, whose
// shards=4 half is gone; the shards=1 half it kept is the one dispatcher.
func TestVirtualRunDeterministicSharded(t *testing.T) {
	assertReplaysAcrossGOMAXPROCS(t, detConfig(67))
}

// TestVirtualRunDeterministicMultiObject is the acceptance check for
// multi-object hosting inside the deterministic simulation: a cluster
// whose nodes each host six objects over one shared dispatcher must hash
// identically across repeated runs and across GOMAXPROCS. The object
// table, the per-object worker picks and the per-object history recorders
// are all on this path, so any OS-scheduling leak in them diverges the
// digests.
func TestVirtualRunDeterministicMultiObject(t *testing.T) {
	cfg := detConfig(83)
	cfg.Objects = 6
	assertReplaysAcrossGOMAXPROCS(t, cfg)
}

// assertReplaysAcrossGOMAXPROCS runs cfg twice with one processor and
// twice with four: every run must be violation-free and all four must
// agree on TraceHash and HistoryHash.
func assertReplaysAcrossGOMAXPROCS(t *testing.T, cfg Config) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var hashes [][2]uint64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("seed %d objects=%d: %v", cfg.Seed, cfg.Objects, res.Violation)
			}
			hashes = append(hashes, [2]uint64{res.TraceHash, res.HistoryHash})
		}
	}
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			t.Errorf("seed %d objects=%d: hashes diverge across runs/GOMAXPROCS: %#x vs %#x",
				cfg.Seed, cfg.Objects, hashes[0], h)
		}
	}
}

// TestVirtualRunFast: the virtual clock must collapse a 300ms schedule to
// a small fraction of wall time — the property the campaign driver relies
// on. The bound is loose (CI machines vary) but still far under 300ms.
// Skipped under -race: instrumentation slows the run several-fold, and the
// determinism tests above already exercise the same path there. It runs
// serially: the package's parallel tests wait until it has finished, so
// they cannot share its cores while the clock runs.
func TestVirtualRunFast(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound is meaningless under race instrumentation")
	}
	start := time.Now()
	if _, err := Run(detConfig(31)); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 150*time.Millisecond {
		t.Errorf("300ms virtual run took %v of wall clock", wall)
	}
}

// TestGenScheduleDeterministicAndSound: the generator is a pure function
// of the config, and never exceeds f = ⌊(N−1)/2⌋ simultaneous down nodes.
func TestGenScheduleDeterministicAndSound(t *testing.T) {
	t.Parallel()
	cfg := detConfig(41)
	a, errA := GenSchedule(cfg)
	b, errB := GenSchedule(cfg)
	if errA != nil || errB != nil {
		t.Fatalf("GenSchedule failed: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("generator not deterministic:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("schedule empty at these rates")
	}
	f := (cfg.N - 1) / 2
	for at := time.Duration(0); at <= cfg.Duration; at += time.Millisecond {
		down := 0
		for _, e := range a {
			if e.At <= at && at < e.At+e.Down {
				down++
			}
		}
		if down > f {
			t.Fatalf("%d nodes down at %v, soundness bound is %d", down, at, f)
		}
	}
	for _, e := range a {
		if e.Node < 0 || e.Node >= cfg.N || e.Down <= 0 || e.At <= 0 {
			t.Fatalf("malformed event %v", e)
		}
	}
}

// TestScheduleReplay: passing a run's recorded schedule back in reproduces
// the execution exactly — the property minimization depends on.
func TestScheduleReplay(t *testing.T) {
	t.Parallel()
	cfg := detConfig(53)
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule = orig.Schedule
	replay, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig.TraceHash != replay.TraceHash || orig.HistoryHash != replay.HistoryHash {
		t.Errorf("replay diverged: trace %#x vs %#x, history %#x vs %#x",
			orig.TraceHash, replay.TraceHash, orig.HistoryHash, replay.HistoryHash)
	}
}
