// Package bench implements the paper-reproduction experiments E1–E10
// catalogued in DESIGN.md and EXPERIMENTS.md. Each experiment builds
// clusters via the public core API, drives a workload, meters traffic and
// latency, and emits a Table whose rows correspond to the quantitative
// claims (message/bit complexities, the δ trade-off, O(1)-cycle recovery,
// liveness contrasts) or figures (execution traces) of the paper.
//
// The same functions back the root-level testing.B benchmarks and the
// cmd/benchrunner tool, so `go test -bench` and `benchrunner -exp all`
// regenerate identical tables.
package bench

import (
	"fmt"
	"strings"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/netsim"
)

// Params tunes experiment scale. Quick keeps every experiment below a
// couple of seconds, for use inside benchmarks and CI; the full runs sweep
// wider parameter ranges.
type Params struct {
	Quick bool
}

// Table is one regenerated result table (or figure summary). The JSON tags
// define the schema of benchrunner's -json output (see Report).
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// AddNote appends an interpretation note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) []*Table
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
		{"hotpath", "Hot-path allocation profile: write/snapshot ns, B and allocs per op", RunHotpath},
		{"deltagossip", "Delta gossip: idle bandwidth of full-vector vs ack-tracked gossip", RunDeltaGossip},
		{"dispatch", "Sharded dispatch: mixed-workload throughput and tail latency", RunDispatch},
		{"multiobject", "Multi-object hosting: aggregate throughput scaling and hot-object isolation", RunMultiObject},
	}
}

// Lookup returns the experiment with the given id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers ----

// fastCfg returns a cluster config tuned for sub-second experiments. The
// clusters run delta gossip, the only gossip there is; where a paper
// figure counts the full-vector gossip of line 11/78, the experiment reads
// it from the per-peer gossip decisions (metrics.Snapshot.GossipDecisions).
func fastCfg(alg core.Algorithm, n int, seed int64) core.Config {
	return core.Config{
		N:            n,
		Algorithm:    alg,
		Seed:         seed,
		LoopInterval: time.Millisecond,
		RetxInterval: 3 * time.Millisecond,
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
