// Command perfbench is the repository benchmark. It links the PI2 packages
// in and drives them through their public functions; serving goes through
// iface.Server's handler in-process (ServeHTTP, no sockets).
//
//	bash perfbench/run.sh --workload gen-paper --seed 1 --seconds 30 --trace 0
//
// It runs one workload per process with GOMAXPROCS pinned to 1 and a
// single closed-loop driver, prints notes and the metrics by name and unit,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics of BENCHMARK.json (see NOTES.md for what each
// should move).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the program reads: the metric
// lists, so the output always matches the declaration.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "gen-paper, serve-xfilter or serve-live")
	seed := flag.Int64("seed", 1, "seed for the MCTS seeds, the tables and the interaction sequence")
	seconds := flag.Float64("seconds", 10, "measured time")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	// One P: worker goroutines then interleave instead of racing for the
	// two CPUs other tenants share, which makes run-to-run medians
	// comparable (see NOTES.md).
	runtime.GOMAXPROCS(1)

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	c := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.emit(os.Stdout, spec.EndToEnd, spec.PerLayer); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c config) (*report, error) {
	switch c.workload {
	case "gen-paper":
		return runGenPaper(c), nil
	case "serve-xfilter":
		return runServe(c, serveXfilter), nil
	case "serve-live":
		return runServe(c, serveLive), nil
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
