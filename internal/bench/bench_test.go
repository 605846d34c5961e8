package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(row[col], "ms"), "x"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", row[col], err)
	}
	return v
}

func TestCatalogue(t *testing.T) {
	all := All()
	if len(all) != 11 { // E1–E10, deltagossip
		t.Fatalf("catalogue has %d experiments, want 11", len(all))
	}
	for _, e := range all {
		if claims[e.ID] == nil {
			t.Errorf("%s has no formula check", e.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	if got, want := tab.Markdown(), "| a | bb |\n|---|---|\n| 1 | 2 |\n"; got != want {
		t.Errorf("markdown = %q, want %q", got, want)
	}
}

// claims holds, per experiment, the paper's formulas asserted on its
// tables. TestClaims applies them to every fresh run; the TestE<k> and
// floor tests below apply them to the pinned reports that TestClaims
// proves equal to a fresh run.
var claims = map[string]func(t *testing.T, tables []*Table){
	"E1":          checkE1,
	"E2":          checkE2,
	"E3":          checkE3,
	"E4":          checkE4,
	"E5":          checkE5,
	"E6":          checkE6,
	"E7":          checkE7,
	"E8":          checkE8,
	"E9":          checkE9,
	"E10":         checkE10,
	"deltagossip": checkDeltaGossip,
}

// pinned returns the tables of the pinned report of experiment id.
func pinned(t *testing.T, id string) []*Table { return loadPinned(t, id).Tables }

func TestE1(t *testing.T)  { checkE1(t, pinned(t, "E1")) }
func TestE2(t *testing.T)  { checkE2(t, pinned(t, "E2")) }
func TestE3(t *testing.T)  { checkE3(t, pinned(t, "E3")) }
func TestE4(t *testing.T)  { checkE4(t, pinned(t, "E4")) }
func TestE5(t *testing.T)  { checkE5(t, pinned(t, "E5")) }
func TestE6(t *testing.T)  { checkE6(t, pinned(t, "E6")) }
func TestE7(t *testing.T)  { checkE7(t, pinned(t, "E7")) }
func TestE8(t *testing.T)  { checkE8(t, pinned(t, "E8")) }
func TestE9(t *testing.T)  { checkE9(t, pinned(t, "E9")) }
func TestE10(t *testing.T) { checkE10(t, pinned(t, "E10")) }

func TestDeltaGossipReductionFloor(t *testing.T) { checkDeltaGossip(t, pinned(t, "deltagossip")) }

// checkE1: Figure 1's property. Operation message counts match across the
// DG baseline and the self-stabilizing variant; only gossip differs, by
// exactly n(n−1) = 12 per cycle.
func checkE1(t *testing.T, tables []*Table) {
	counts := tables[0]
	if len(counts.Rows) != 2 {
		t.Fatalf("want 2 algorithm rows, got %d", len(counts.Rows))
	}
	dg, ss := counts.Rows[0], counts.Rows[1]
	for col := 1; col <= 4; col++ { // WRITE..SNAPSHOTack
		if dg[col] != ss[col] {
			t.Errorf("operation traffic differs at col %d: %s vs %s", col, dg[col], ss[col])
		}
	}
	if g := cellFloat(t, dg, 5); g != 0 {
		t.Errorf("baseline gossips: %v", g)
	}
	if g := cellFloat(t, ss, 5); g != 12 {
		t.Errorf("self-stabilizing gossip/cycle = %v, want n(n-1) = 12", g)
	}
}

// checkE2: Algorithm 1's counts, exactly: 2n messages per write and per
// snapshot, and n(n−1) gossip decisions per cycle.
func checkE2(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		n := cellFloat(t, row, 0)
		if w := cellFloat(t, row, 2); w != 2*n {
			t.Errorf("n=%v: write msgs/op = %v, want 2n", n, w)
		}
		if s := cellFloat(t, row, 4); s != 2*n {
			t.Errorf("n=%v: snapshot msgs/op = %v, want 2n", n, s)
		}
		if g := cellFloat(t, row, 6); g != n*(n-1) {
			t.Errorf("n=%v: gossip/cycle = %v, want n(n-1) = %v", n, g, n*(n-1))
		}
	}
}

// checkE3: the introduction's 8n-vs-2n claim, exactly: a stacked snapshot
// is 8n messages in 4 round trips, a direct one 2n messages in 1.
func checkE3(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		n := cellFloat(t, row, 0)
		if m := cellFloat(t, row, 1); m != 8*n {
			t.Errorf("n=%v: stacked msgs/op = %v, want 8n", n, m)
		}
		if rt := cellFloat(t, row, 3); rt != 4 {
			t.Errorf("n=%v: stacked round trips = %v, want 4", n, rt)
		}
		if m := cellFloat(t, row, 4); m != 2*n {
			t.Errorf("n=%v: direct msgs/op = %v, want 2n", n, m)
		}
		if rt := cellFloat(t, row, 6); rt != 1 {
			t.Errorf("n=%v: direct round trips = %v, want 1", n, rt)
		}
	}
}

// e4Exponent is the band E4's fitted exponent of SNAPSHOT msgs/op over n
// must lie in: Θ(n²), closer to 2 than to the linear or cubic neighbours.
var e4Exponent = [2]float64{1.5, 2.5}

// checkE4: Algorithm 2's SNAPSHOT traffic is Θ(n²) as a fitted exponent,
// and every storm snapshot terminated.
func checkE4(t *testing.T, tables []*Table) {
	rows := tables[0].Rows
	fit := rows[len(rows)-1]
	if fit[0] != "fitted exponent" {
		t.Fatalf("last row is %q, want the fitted exponent", fit)
	}
	if e := cellFloat(t, fit, 1); e < e4Exponent[0] || e > e4Exponent[1] {
		t.Errorf("fitted exponent %v outside %v", e, e4Exponent)
	}
	for _, row := range rows[:len(rows)-1] {
		cellFloat(t, row, 4) // a storm latency, not a failure
	}
}

// checkE5: Figure 3. Algorithm 3 uses at most half of Algorithm 2's
// messages solo, and fewer per operation when all nodes snapshot at once.
func checkE5(t *testing.T, tables []*Table) {
	single := tables[0]
	a2 := cellFloat(t, single.Rows[0], 1)
	a3 := cellFloat(t, single.Rows[1], 1)
	if a3*2 > a2 {
		t.Errorf("solo snapshot: Alg3 = %v msgs vs Alg2 = %v, want ≥2× saving", a3, a2)
	}
	conc := tables[1]
	c2 := cellFloat(t, conc.Rows[0], 2)
	c3 := cellFloat(t, conc.Rows[1], 2)
	if c3 >= c2 {
		t.Errorf("concurrent snapshots: Alg3 = %v msgs/op vs Alg2 = %v, want fewer", c3, c2)
	}
}

// checkE6: the δ trade-off. Under moderate concurrency δ=0 recruits more
// helpers than a large δ; under a storm, at least δ writes are admitted
// while the snapshots run, and a large δ admits more than δ=0.
func checkE6(t *testing.T, tables []*Table) {
	byWorkload := map[string][][]string{}
	for _, row := range tables[0].Rows {
		byWorkload[row[0]] = append(byWorkload[row[0]], row)
	}
	mod := byWorkload["moderate"]
	if h0, hBig := cellFloat(t, mod[0], 5), cellFloat(t, mod[len(mod)-1], 5); hBig >= h0 {
		t.Errorf("moderate: helpers at δ=0 (%v) should exceed helpers at large δ (%v)", h0, hBig)
	}
	storm := byWorkload["storm"]
	for _, row := range storm {
		if w, delta := cellFloat(t, row, 4), cellFloat(t, row, 1); w < delta {
			t.Errorf("storm δ=%v: %v writes admitted during the snapshots, want ≥ δ", delta, w)
		}
	}
	w0 := cellFloat(t, storm[0], 4)
	wBig := cellFloat(t, storm[len(storm)-1], 4)
	if wBig <= w0 {
		t.Errorf("storm: writes admitted at large δ (%v) should exceed δ=0 (%v)", wBig, w0)
	}
}

// e7MaxCycles is the constant E7's recovery must stay within at every n:
// Theorems 1 and 2 bound recovery by O(1) asynchronous cycles.
const e7MaxCycles = 4

// checkE7: recovery takes at most e7MaxCycles cycles, independent of n.
func checkE7(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		if c := cellFloat(t, row, 2); c > e7MaxCycles {
			t.Errorf("%s n=%s: recovery took %v cycles, want ≤ %d", row[0], row[1], c, e7MaxCycles)
		}
	}
}

// checkE8: the liveness contrast. Algorithms 2 and 3 terminate under the
// storm. The non-blocking algorithm and the stacked baseline guarantee
// termination only once writes cease, so either outcome is legal for them.
func checkE8(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		alg, terminated := row[0], row[1]
		nonBlocking := strings.HasPrefix(alg, "SS-nonblocking") || strings.HasPrefix(alg, "stacked")
		if !nonBlocking && terminated != "yes" {
			t.Errorf("%s failed to terminate: %v", alg, row)
		}
	}
}

// checkE9: §5 for both bounded variants (Algorithms 1 and 3): resets
// happen, values survive, the post-reset snapshot completes — and a reset
// meets operations in flight: some row defers or aborts one, and the abort
// policy's row is not the defer policy's.
func checkE9(t *testing.T, tables []*Table) {
	tab := tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("want rows for SS-bounded(defer/abort) + SS-bounded-delta, got %d", len(tab.Rows))
	}
	if slices.Equal(tab.Rows[0][2:], tab.Rows[1][2:]) {
		t.Errorf("the abort policy's row equals the defer policy's: %v", tab.Rows[1])
	}
	held := 0.0
	for _, row := range tab.Rows {
		held += cellFloat(t, row, 5) + cellFloat(t, row, 6)
	}
	if held == 0 {
		t.Error("no row deferred or aborted an operation: no reset met an operation in flight")
	}
	for _, row := range tab.Rows {
		if cellFloat(t, row, 3) < 1 {
			t.Errorf("%s/%s: no reset occurred: %v", row[0], row[1], row)
		}
		if row[7] != "yes" {
			t.Errorf("%s/%s: values not preserved: %v", row[0], row[1], row)
		}
		if row[8] != "ok" {
			t.Errorf("%s/%s: post-reset snapshot failed: %v", row[0], row[1], row)
		}
	}
}

// checkE10: linearizability and no failed operation under crashes and a
// hostile network.
func checkE10(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		if row[4] != "yes" {
			t.Errorf("%s f=%s: %s", row[0], row[1], row[4])
		}
		if cellFloat(t, row, 3) != 0 {
			t.Errorf("%s f=%s: %s operations failed", row[0], row[1], row[3])
		}
	}
}

// checkDeltaGossip: per-peer ack tracking cuts idle gossip bandwidth by at
// least 5× at every grid point.
func checkDeltaGossip(t *testing.T, tables []*Table) {
	for _, row := range tables[0].Rows {
		if r := cellFloat(t, row, 4); r < 5 {
			t.Errorf("n=%s ν=%s: reduction %vx, want ≥ 5x", row[0], row[1], r)
		}
	}
}
