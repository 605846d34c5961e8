package bench

import (
	"encoding/json"
	"fmt"
)

// Report is the machine-readable result of one experiment run, pinned at
// the repository root as BENCH_<ID>.json. It carries the same tables the
// human-readable output renders, so tooling (plot scripts, the exact
// comparator of TestClaims) can consume experiment results without
// scraping aligned-column text.
type Report struct {
	Experiment string   `json:"experiment"`
	Title      string   `json:"title"`
	Tables     []*Table `json:"tables"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: marshal report %s: %w", r.Experiment, err)
	}
	return append(b, '\n'), nil
}

// ParseReport decodes a report previously produced by JSON.
func ParseReport(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: parse report: %w", err)
	}
	return &r, nil
}
