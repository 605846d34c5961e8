package bench

import (
	"reflect"
	"testing"
)

// TestReportRoundTrip: a report must survive a parse round-trip unchanged,
// so the pinned files and the comparator agree on the schema.
func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Experiment: "E2",
		Title:      "per-operation complexity",
		Tables: []*Table{{
			ID:      "E2",
			Title:   "per-operation complexity",
			Keys:    2,
			Headers: []string{"n", "op", "messages"},
			Rows:    [][]string{{"4", "write", "8"}, {"4", "snapshot", "8"}},
			Notes:   []string{"2n messages per write"},
		}},
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mutated the report:\n got %+v\nwant %+v", got, r)
	}
}

// TestReportFromExperiment: every pinned report parses, names its
// experiment, and re-serialises to the bytes on disk.
func TestReportFromExperiment(t *testing.T) {
	for _, e := range All() {
		r := loadPinned(t, e.ID)
		if r.Experiment != e.ID || r.Title != e.Title || len(r.Tables) == 0 {
			t.Errorf("%s: pinned report is %s %q with %d tables", e.ID, r.Experiment, r.Title, len(r.Tables))
		}
		for _, tab := range r.Tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s table %s has no rows", e.ID, tab.ID)
			}
		}
	}
}

// TestParseReportRejectsGarbage: corrupted files must fail loudly, not
// yield a zero report.
func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
