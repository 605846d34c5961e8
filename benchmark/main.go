// Command benchmark is this repository's benchmark: real-clock write and
// snapshot operations end to end over netsim and tcpnet, recovery from
// transient faults, a per-layer ladder and a traced run. See README.md.
//
//	go run ./benchmark                       all workloads, every metric
//	go run ./benchmark --workload sim-alg1 --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (with --workload), or that object per workload (without).
// The exit code is non-zero when an output check failed or any operation
// failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 end-to-end only, 1 per-layer only, -1 both
	quick    bool
}

// heapBallast fixes the garbage collector's regime. The live heap of five
// in-process nodes is a few MB, so with default pacing the collector would
// run every ~4 MB of allocation — hundreds of cycles a second at these
// allocation rates, costing tcp-alg1 half its throughput — and how often
// exactly would follow the harness's own buffers (latency samples, span
// logs) as they grow. With the ballast the collector runs a few times a
// second in every window. It is never written, so it takes up address
// space, not memory. Allocation volume stays visible in proc.*.
var heapBallast []byte

const ballastSize = 256 << 20

// runLimit is the longest one workload may take before the run is given up
// as hung; the algorithms' operations block without a timeout of their own.
const runLimit = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for payloads, operation order, network adversary and fault injection")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds measured per run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics from an untraced window; 1: per-layer metrics from the ladder and a traced window; -1: both")
	flag.BoolVar(&o.quick, "quick", false, "shrink every window to 300 ms (smoke test)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes the selected workloads and writes the report to out. It
// returns an error when anything was incorrect or failed.
func run(o options, out io.Writer) error {
	specs := workloads
	if o.workload != "" {
		spec := findWorkload(o.workload)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []*workload{spec}
	}
	if o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if heapBallast == nil {
		heapBallast = make([]byte, ballastSize)
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintln(w, envStamp(o))

	p := makePlan(o.seconds, o.trace, o.quick)
	results := map[string]result{}
	var firstErr error
	for _, spec := range specs {
		fmt.Fprintf(w, "\n== %s: %s\n", spec.name, spec.why)
		w.Flush()
		hung := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; giving up\n", spec.name, runLimit)
			os.Exit(3)
		})
		rp, attempted, failed, err := runWorkload(spec, o.seed, p, func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		})
		hung.Stop()
		if rp == nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		res := result{Correct: err == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
		printMetrics(w, rp, &res, o.trace)
		ratio := 0.0
		if attempted > 0 {
			ratio = float64(failed) / float64(attempted)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s (%d of %d)\n", "failed_ops_ratio", ratio, "ratio", failed, attempted)
		if err != nil {
			fmt.Fprintf(w, "  INCORRECT: %v\n", err)
		}
		if firstErr == nil {
			switch {
			case err != nil:
				firstErr = fmt.Errorf("%s: %w", spec.name, err)
			case failed > 0:
				firstErr = fmt.Errorf("%s: %d of %d operations failed", spec.name, failed, attempted)
			}
		}
		results[spec.name] = res
	}

	var last any = results
	if o.workload != "" {
		last = results[o.workload]
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", line)
	return firstErr
}

// printMetrics prints the metrics the trace mode selects, by name with
// unit and sample count, and copies them into res.
func printMetrics(w io.Writer, rp *report, res *result, trace int) {
	emit := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "  -- %s\n", title)
		for _, d := range defs {
			v, ok := rp.values[d.name]
			if !ok {
				continue
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			samples := ""
			if n, ok := rp.samples[d.name]; ok {
				samples = fmt.Sprintf("(n=%d)", n)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.name, v, d.unit, samples)
		}
	}
	if trace != 1 {
		emit("end to end (untraced window)", endToEndMetrics)
	}
	if trace != 0 {
		emit("per layer (ladder, untraced counts, traced window)", perLayerMetrics)
	}
}

// envStamp is printed by every run, so numbers are never compared across
// machines or toolchains unknowingly.
func envStamp(o options) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d seconds=%g trace=%d commit=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), o.seed, o.seconds, o.trace, commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
