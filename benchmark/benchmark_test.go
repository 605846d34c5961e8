package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func sameMetrics(t *testing.T, what string, defs []metricDef, listed []manifestMetric, bounded bool) {
	t.Helper()
	if len(defs) != len(listed) {
		t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", what, len(defs), len(listed))
	}
	for i, d := range defs {
		l := listed[i]
		better := "lower"
		if d.higherBetter {
			better = "higher"
		}
		if l.Name != d.name || l.Unit != d.unit || l.Better != better {
			t.Errorf("%s[%d]: program has %s (%s, %s), BENCHMARK.json has %s (%s, %s)",
				what, i, d.name, d.unit, better, l.Name, l.Unit, l.Better)
		}
		if bounded != (l.Bound != nil) {
			t.Errorf("%s %s: bound present = %v, want %v", what, l.Name, l.Bound != nil, bounded)
		}
		if l.Bound != nil && (*l.Bound <= 0 || *l.Bound > 0.25) {
			t.Errorf("%s %s: bound %g outside (0, 0.25]", what, l.Name, *l.Bound)
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart.
func TestManifestMatchesProgram(t *testing.T) {
	m := loadManifest(t)
	sameMetrics(t, "end_to_end", endToEndMetrics, m.EndToEnd, true)
	sameMetrics(t, "per_layer", perLayerMetrics, m.PerLayer, false)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(workloads), len(m.Workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json has %q (%q)",
				i, w.name, w.why, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`).MatchString(d.name) {
			t.Errorf("metric name %q is not a valid name", d.name)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.unit) {
			t.Errorf("unit %q of %s is not a valid unit", d.unit, d.name)
		}
	}
}

// TestQuickRunPrintsEveryMetric is the smoke test: all four workloads with
// 300 ms windows, every metric printed once per workload by name with its
// unit, nothing failed, and the summary line is valid JSON that survives a
// round trip.
func TestQuickRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run(options{seed: 1, seconds: 20, trace: -1, quick: true}, &out); err != nil {
		t.Fatalf("quick run failed: %v\n%s", err, out.String())
	}
	text := strings.TrimRight(out.String(), "\n")
	cut := strings.LastIndex(text, "\n")
	body, last := text[:cut], text[cut+1:]

	var results map[string]result
	if err := json.Unmarshal([]byte(last), &results); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, last)
	}
	again, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != last {
		t.Errorf("summary does not round-trip through encoding/json")
	}

	sections := strings.Split(body, "\n== ")[1:]
	if len(sections) != len(workloads) {
		t.Fatalf("%d workload sections printed, want %d", len(sections), len(workloads))
	}
	all := append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...)
	for i, w := range workloads {
		section := sections[i]
		if !strings.HasPrefix(section, w.name+": ") {
			t.Fatalf("section %d is not %s:\n%s", i, w.name, section)
		}
		res, ok := results[w.name]
		if !ok {
			t.Fatalf("%s missing from the summary", w.name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(all) {
			t.Errorf("%s: %d metrics in the summary, want %d", w.name, len(res.Metrics), len(all))
		}
		for _, d := range all {
			line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `( |$)`)
			if n := len(line.FindAllString(section, -1)); n != 1 {
				t.Errorf("%s: metric %s [%s] printed %d times, want once", w.name, d.name, d.unit, n)
			}
			if got := res.Metrics[d.name].Unit; got != d.unit {
				t.Errorf("%s: metric %s has unit %q in the summary, want %q", w.name, d.name, got, d.unit)
			}
		}
		for _, d := range endToEndMetrics {
			if v := res.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, v)
			}
		}
		if !regexp.MustCompile(`(?m)^  failed_ops_ratio +0 ratio`).MatchString(section) {
			t.Errorf("%s: failed_ops_ratio is not 0", w.name)
		}
	}
}
