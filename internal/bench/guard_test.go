package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// guardTolerance is how far a guarded cell may move in its bad direction
// before a regression guard fails.
const guardTolerance = 0.10

// guarded is one column a regression guard watches, with the direction it
// must not regress in.
type guarded struct {
	col          int
	higherBetter bool // msg/s; otherwise lower is better (bytes, latency)
}

// loadGuardBaseline skips the test unless env is set, then loads the
// committed BENCH_<id>.json at the repo root and checks it is a full
// (non-quick) run with the given number of tables.
func loadGuardBaseline(t *testing.T, env, id string, tables int) *Report {
	t.Helper()
	if os.Getenv(env) == "" {
		t.Skipf("set %s=1 to compare against the committed baseline", env)
	}
	raw, err := os.ReadFile("../../BENCH_" + id + ".json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.Quick || len(base.Tables) != tables {
		t.Fatalf("baseline must be a full (non-quick) %d-table run, got quick=%v tables=%d",
			tables, base.Quick, len(base.Tables))
	}
	return &base
}

// guardTable compares a fresh table with its baseline row by row. The key
// columns must match exactly — otherwise the grid changed and the baseline
// needs regenerating — and each guarded column may regress by at most
// guardTolerance. Cells are parsed after trimming an "x" or "ms" suffix.
func guardTable(t *testing.T, fresh, base *Table, keys []int, cols []guarded) {
	t.Helper()
	if len(fresh.Rows) != len(base.Rows) {
		t.Fatalf("%s: grid changed: %d rows vs %d in baseline — regenerate the baseline",
			base.ID, len(fresh.Rows), len(base.Rows))
	}
	cell := func(row []string, col int) float64 {
		s := strings.TrimSuffix(strings.TrimSuffix(row[col], "x"), "ms")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: unparseable cell %q: %v", base.ID, row[col], err)
		}
		return v
	}
	for i, got := range fresh.Rows {
		want := base.Rows[i]
		var label []string
		for _, k := range keys {
			if got[k] != want[k] {
				t.Fatalf("%s row %d grid mismatch: %s=%s vs baseline %s — regenerate the baseline",
					base.ID, i, base.Headers[k], got[k], want[k])
			}
			label = append(label, fmt.Sprintf("%s=%s", base.Headers[k], got[k]))
		}
		for _, c := range cols {
			g, w := cell(got, c.col), cell(want, c.col)
			worse := g > w*(1+guardTolerance)
			if c.higherBetter {
				worse = g < w*(1-guardTolerance)
			}
			if worse {
				t.Errorf("%s %s: %s regressed to %s, baseline %s (%+.1f%%)",
					base.ID, strings.Join(label, " "), base.Headers[c.col], got[c.col], want[c.col], 100*(g/w-1))
			}
		}
	}
}
