package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-pin BENCH_<id>.json and the EXPERIMENTS.md tables from this run")

// repoRoot holds the pinned reports and EXPERIMENTS.md.
const repoRoot = "../.."

func pinnedPath(id string) string { return filepath.Join(repoRoot, "BENCH_"+id+".json") }

// TestClaims runs every experiment once. Each subtest asserts the paper's
// formulas on the fresh tables and compares every cell, exactly, with the
// pinned BENCH_<id>.json. Under -update it instead rewrites those files and
// the generated tables in EXPERIMENTS.md.
func TestClaims(t *testing.T) {
	var fresh []*Report
	for _, e := range All() {
		r := &Report{Experiment: e.ID, Title: e.Title, Tables: e.Run()}
		fresh = append(fresh, r)
		t.Run(e.ID, func(t *testing.T) {
			t.Run("formula", func(t *testing.T) { claims[e.ID](t, r.Tables) })
			if *update {
				return
			}
			t.Run("pinned", func(t *testing.T) {
				for _, d := range diff(loadPinned(t, e.ID), r) {
					t.Error(d)
				}
			})
		})
	}
	if !*update || t.Failed() {
		return
	}
	files, err := render(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for path, b := range files {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateIsIdempotent: rendering the pinned reports reproduces every
// file -update writes byte for byte, so -update on a tree whose runs match
// their pins leaves the tree unchanged.
func TestUpdateIsIdempotent(t *testing.T) {
	var pinned []*Report
	for _, e := range All() {
		pinned = append(pinned, loadPinned(t, e.ID))
	}
	files, err := render(pinned)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range files {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the rendering of the pinned reports", path)
		}
	}
}

// TestComparatorNamesTheCell seeds one changed cell into a copy of a pinned
// report: the comparator must report exactly that cell, naming experiment,
// table, row key, column, and both values.
func TestComparatorNamesTheCell(t *testing.T) {
	pinned := loadPinned(t, "E2")
	fresh := loadPinned(t, "E2")
	row := fresh.Tables[0].Rows[3]
	was := row[2]
	row[2] = "9.9"
	got := diff(pinned, fresh)
	if len(got) != 1 {
		t.Fatalf("want one difference, got %q", got)
	}
	for _, want := range []string{"E2", "table E2", "row 3 (n=8 ν(B)=256)", `column "write msgs/op"`,
		fmt.Sprintf("pinned %q", was), `fresh "9.9"`} {
		if !strings.Contains(got[0], want) {
			t.Errorf("%q does not name %s", got[0], want)
		}
	}
	if d := diff(pinned, loadPinned(t, "E2")); d != nil {
		t.Errorf("identical reports differ: %q", d)
	}
	fresh.Tables[0].Rows = fresh.Tables[0].Rows[1:]
	if d := diff(pinned, fresh); len(d) != 1 || !strings.Contains(d[0], "rows") {
		t.Errorf("a dropped row must be reported: %q", d)
	}
}

func loadPinned(t *testing.T, id string) *Report {
	t.Helper()
	b, err := os.ReadFile(pinnedPath(id))
	if err != nil {
		t.Fatalf("pinned report: %v (run go test ./internal/bench -run TestClaims -update)", err)
	}
	r, err := ParseReport(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// diff compares a fresh report with a pinned one by exact string equality
// and returns one line per difference. A cell difference names the
// experiment, the table, the row by its key columns, the column, and the
// pinned and fresh values.
func diff(pinned, fresh *Report) []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, pinned.Experiment+": "+fmt.Sprintf(format, args...))
	}
	if pinned.Experiment != fresh.Experiment || pinned.Title != fresh.Title {
		add("experiment: pinned %q %q, fresh %q %q", pinned.Experiment, pinned.Title, fresh.Experiment, fresh.Title)
	}
	if len(pinned.Tables) != len(fresh.Tables) {
		add("pinned %d tables, fresh %d", len(pinned.Tables), len(fresh.Tables))
		return out
	}
	for i, p := range pinned.Tables {
		f := fresh.Tables[i]
		if p.ID != f.ID || p.Title != f.Title || p.Keys != f.Keys || !slices.Equal(p.Headers, f.Headers) {
			add("table %d: pinned %s %q keys %d %q, fresh %s %q keys %d %q",
				i, p.ID, p.Title, p.Keys, p.Headers, f.ID, f.Title, f.Keys, f.Headers)
			continue
		}
		if len(p.Rows) != len(f.Rows) {
			add("table %s: pinned %d rows, fresh %d", p.ID, len(p.Rows), len(f.Rows))
			continue
		}
		for r, prow := range p.Rows {
			frow := f.Rows[r]
			for c := 0; c < max(len(prow), len(frow)); c++ {
				if pv, fv := cell(prow, c), cell(frow, c); pv != fv {
					add("table %s row %s column %q: pinned %q, fresh %q", p.ID, rowKey(p, r), cell(p.Headers, c), pv, fv)
				}
			}
		}
		if !slices.Equal(p.Notes, f.Notes) {
			add("table %s notes: pinned %q, fresh %q", p.ID, p.Notes, f.Notes)
		}
	}
	return out
}

// rowKey names row r by its key columns, e.g. "3 (n=8 ν(B)=256)".
func rowKey(t *Table, r int) string {
	var kv []string
	for c := 0; c < max(t.Keys, 1); c++ {
		kv = append(kv, cell(t.Headers, c)+"="+cell(t.Rows[r], c))
	}
	return fmt.Sprintf("%d (%s)", r, strings.Join(kv, " "))
}

func cell(row []string, c int) string {
	if c < len(row) {
		return row[c]
	}
	return ""
}

// generated matches one generated table in EXPERIMENTS.md: the lines
// between "<!-- BENCH <table id> -->" and "<!-- /BENCH -->".
var generated = regexp.MustCompile(`(?s)(<!-- BENCH (\S+) -->\n).*?(<!-- /BENCH -->)`)

// render returns every file -update writes for reports: one
// BENCH_<id>.json each, and EXPERIMENTS.md with each generated table
// re-rendered from the report table of that id.
func render(reports []*Report) (map[string][]byte, error) {
	files := map[string][]byte{}
	tables := map[string]*Table{}
	for _, r := range reports {
		b, err := r.JSON()
		if err != nil {
			return nil, err
		}
		files[pinnedPath(r.Experiment)] = b
		for _, t := range r.Tables {
			tables[t.ID] = t
		}
	}
	path := filepath.Join(repoRoot, "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var missing []string
	doc = generated.ReplaceAllFunc(doc, func(m []byte) []byte {
		sub := generated.FindSubmatch(m)
		t := tables[string(sub[2])]
		if t == nil {
			missing = append(missing, string(sub[2]))
			return m
		}
		return slices.Concat(sub[1], []byte(t.Markdown()), sub[3])
	})
	if missing != nil {
		return nil, fmt.Errorf("EXPERIMENTS.md names unknown tables %q", missing)
	}
	files[path] = doc
	return files, nil
}
