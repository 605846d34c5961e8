// Package bench implements the paper-reproduction experiments E1–E10
// catalogued in DESIGN.md and EXPERIMENTS.md, and a deterministic model
// of delta-gossip bandwidth. Each experiment builds clusters via the public
// core API on a virtual clock, drives a workload, meters traffic and emits
// Tables whose rows correspond to the quantitative claims (message/bit
// complexities, the δ trade-off, O(1)-cycle recovery, liveness contrasts)
// or figures (execution traces) of the paper. Every cell is an exact
// function of the code and its seeds; time columns are virtual.
//
// TestClaims runs every experiment once and compares each cell with the
// committed BENCH_<id>.json; `go test ./internal/bench -run TestClaims
// -update` re-pins those files and the tables in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
)

// Table is one regenerated result table (or figure summary). The JSON tags
// define the schema of the pinned BENCH_<id>.json files (see Report). The
// first Keys columns (at least one) identify a row.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Keys    int        `json:"keys,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// AddNote appends an interpretation note, pinned with the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table's headers and rows as a GitHub table, the
// form EXPERIMENTS.md quotes.
func (t *Table) Markdown() string {
	var b strings.Builder
	line := func(cols []string) { b.WriteString("| " + strings.Join(cols, " | ") + " |\n") }
	line(t.Headers)
	b.WriteString(strings.Repeat("|---", len(t.Headers)) + "|\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() []*Table
}

// All returns every experiment in catalogue order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: executions of DG vs self-stabilizing Algorithm 1", RunE1},
		{"E2", "Per-operation message/bit complexity of Algorithm 1", RunE2},
		{"E3", "Stacked (ABD+Afek) vs direct snapshot: the 8n-vs-2n claim", RunE3},
		{"E4", "Figure 2: Algorithm 2 always-terminating, O(n²) messages", RunE4},
		{"E5", "Figure 3: Algorithm 3 message savings and batched snapshots", RunE5},
		{"E6", "The δ trade-off: latency vs communication", RunE6},
		{"E7", "Theorems 1-2: O(1)-cycle recovery from transient faults", RunE7},
		{"E8", "Non-blocking vs always-terminating under a write storm", RunE8},
		{"E9", "§5 bounded counters: MAXINT wraparound and global reset", RunE9},
		{"E10", "Crash tolerance and linearizability under adversary", RunE10},
		{"deltagossip", "Delta gossip: idle bandwidth of full-vector vs ack-tracked gossip", RunDeltaGossip},
	}
}

// ---- shared helpers ----

// simulate runs f as the root task of a fresh virtual clock.
func simulate(name string, f func(v *simclock.Virtual)) {
	v := simclock.NewVirtual()
	v.Run(name, func() { f(v) })
}

// fastCfg returns a cluster config on clock v with a 1 ms do-forever loop.
// The clusters run delta gossip, the only gossip there is; where a paper
// figure counts the full-vector gossip of line 11/78, the experiment reads
// it from the per-peer gossip decisions (metrics.Snapshot.GossipDecisions).
func fastCfg(v *simclock.Virtual, alg core.Algorithm, n int, seed int64) core.Config {
	return core.Config{
		N:            n,
		Algorithm:    alg,
		Seed:         seed,
		LoopInterval: time.Millisecond,
		RetxInterval: 3 * time.Millisecond,
		Clock:        v,
	}
}

func mustCluster(cfg core.Config) *core.Cluster {
	c, err := core.NewCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: cluster: %v", err))
	}
	return c
}

func value(size int, tag byte) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = tag
	}
	return v
}

// realisticDelay makes query rounds span multiple do-forever iterations so
// concurrency effects (helping, deferral) are observable.
func realisticDelay() netsim.Adversary {
	return netsim.Adversary{MinDelay: 200 * time.Microsecond, MaxDelay: 1500 * time.Microsecond}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func d2(v time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(v.Microseconds())/1000)
}
