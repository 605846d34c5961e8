package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/faults"
)

// corpusEntry is one stored regression seed. The corpus collects runs that
// were interesting at some point — crash-heavy, partition-heavy,
// corruption-enabled, odd cluster shapes — so every future change replays
// them cheaply under virtual time. To add one, append an object to
// testdata/corpus.json; docs/TESTING.md documents the workflow.
type corpusEntry struct {
	Name       string  `json:"name"`
	Alg        string  `json:"alg"`
	N          int     `json:"n"`
	Delta      int64   `json:"delta,omitempty"`
	Seed       int64   `json:"seed"`
	Crash      float64 `json:"crash,omitempty"`
	Partition  float64 `json:"partition,omitempty"`
	AckCorrupt float64 `json:"ack_corrupt,omitempty"`
	Corrupt    bool    `json:"corrupt,omitempty"`
	Hostile    bool    `json:"hostile,omitempty"`
	Objects    int     `json:"objects,omitempty"` // hosted snapshot objects per node (0 = 1)
	DurationMS int64   `json:"duration_ms"`

	// Hostile-topology nemeses (all zero = classic uniform network).
	WANRegions    int     `json:"wan_regions,omitempty"`    // >0 installs an asymmetric WAN link matrix
	WANCrossUS    int64   `json:"wan_cross_us,omitempty"`   // cross-region delay bound, µs
	WANDrop       float64 `json:"wan_drop,omitempty"`       // cross-region drop probability
	FlapCount     int     `json:"flap_count,omitempty"`     // nodes on the flapping-partition train
	FlapPeriodMS  int64   `json:"flap_period_ms,omitempty"` // flap period, ms
	FlapDuty      float64 `json:"flap_duty,omitempty"`      // fraction of each period spent cut
	SlowNode      float64 `json:"slow_node,omitempty"`      // slow-but-alive windows per second
	SlowFactor    float64 `json:"slow_factor,omitempty"`    // delay inflation while slowed
	SkewedRestart float64 `json:"skewed_restart,omitempty"` // detectable restarts per second
	Bank          bool    `json:"bank,omitempty"`           // checkpoint/restore bank workload
	BankInitial   int64   `json:"bank_initial,omitempty"`   // starting balance (0 = default)

	// Bounded-counter reset scenarios (§5 + consensus-based global reset).
	MaxInt       int64 `json:"max_int,omitempty"`       // overflow threshold (>0 makes resets fire)
	PinCrash     bool  `json:"pin_crash,omitempty"`     // node 0 down for the whole checked phase
	AbortReset   bool  `json:"abort_reset,omitempty"`   // abort (not defer) ops during a reset
	ExpectResets bool  `json:"expect_resets,omitempty"` // fail unless ≥1 reset committed

	// Pinned digests of the run (Result.TraceHash / Result.HistoryHash, hex).
	// TestSeedCorpus fails when a run no longer reproduces them.
	TraceHash   string `json:"trace_hash,omitempty"`
	HistoryHash string `json:"history_hash,omitempty"`
}

func (e corpusEntry) config() (Config, error) {
	alg, err := core.ParseAlgorithm(e.Alg)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		N: e.N, Algorithm: alg, Delta: e.Delta, Seed: e.Seed,
		Duration:       time.Duration(e.DurationMS) * time.Millisecond,
		CrashRate:      e.Crash,
		PartitionRate:  e.Partition,
		AckCorruptRate: e.AckCorrupt,
		Corrupt:        e.Corrupt,
		Objects:        e.Objects,
		Virtual:        true,
		Hash:           true,
	}
	if e.Hostile {
		cfg.Adversary = hostileNet()
	}
	if e.WANRegions > 0 {
		cfg.WAN = &faults.WANSpec{
			Regions:  e.WANRegions,
			Cross:    time.Duration(e.WANCrossUS) * time.Microsecond,
			DropProb: e.WANDrop,
		}
	}
	if e.FlapCount > 0 {
		cfg.Flapping = &FlappingSpec{
			Count:  e.FlapCount,
			Period: time.Duration(e.FlapPeriodMS) * time.Millisecond,
			Duty:   e.FlapDuty,
		}
	}
	cfg.SlowNodeRate = e.SlowNode
	cfg.SlowNodeFactor = e.SlowFactor
	cfg.SkewedRestartRate = e.SkewedRestart
	if e.Bank {
		cfg.Bank = &BankSpec{Initial: e.BankInitial}
	}
	cfg.MaxInt = e.MaxInt
	cfg.PinCrash = e.PinCrash
	cfg.AbortDuringReset = e.AbortReset
	return cfg, nil
}

const corpusPath = "testdata/corpus.json"

// updateCorpus re-pins the corpus digests: `go test ./internal/chaos -run
// TestSeedCorpus -update` rewrites every entry's trace_hash/history_hash
// with what the run produced (docs/TESTING.md).
var updateCorpus = flag.Bool("update", false, "rewrite the pinned digests in "+corpusPath)

// TestSeedCorpus replays every stored regression seed under virtual time.
// The whole corpus runs even in -short mode — that is the point: virtual
// time makes a dozen full chaos schedules cheap enough to be PR-blocking.
// Each run must reproduce its pinned trace and history digests, which makes
// the corpus a byte-identity check on the whole execution: a refactor that
// claims to change nothing must leave every digest as it was.
func TestSeedCorpus(t *testing.T) {
	raw, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []corpusEntry
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatalf("corpus.json: %v", err)
	}
	if len(corpus) == 0 {
		t.Fatal("corpus is empty")
	}
	if *updateCorpus {
		// Cleanup runs once every parallel subtest below has finished.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			out, err := json.MarshalIndent(corpus, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corpusPath, append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	seen := map[string]bool{}
	for i := range corpus {
		e := &corpus[i]
		if e.Name == "" || seen[e.Name] {
			t.Fatalf("corpus entries need unique names, got %q twice", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := e.config()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			if res.Writes == 0 {
				t.Errorf("no progress: %v", res)
			}
			if e.ExpectResets && res.Resets == 0 {
				t.Errorf("expected ≥1 committed global reset: %v", res)
			}
			trace, hist := fmt.Sprintf("%#016x", res.TraceHash), fmt.Sprintf("%#016x", res.HistoryHash)
			switch {
			case *updateCorpus:
				e.TraceHash, e.HistoryHash = trace, hist
			case trace != e.TraceHash || hist != e.HistoryHash:
				t.Errorf("digests moved: trace %s (pinned %s), history %s (pinned %s); re-pin with -update if intended",
					trace, e.TraceHash, hist, e.HistoryHash)
			}
		})
	}
}
