// Command perfbench is the repository benchmark. It times the IR-ORAM
// simulator from outside, through its public entry points, on three
// workloads at the geometry the results come from (see README.md):
//
//	sweep-scaled  iroram.Sweep over six figures at Scaled L=21
//	long-read     Baseline then IR-ORAM on mcf, 200 000 requests each
//	long-write    Baseline then IR-ORAM on lbm, 200 000 requests each
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload long-read --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef declares one reported metric. The lists below are the names
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_req_per_s", "req/s"},
	{"ns_per_path", "ns"},
	{"peak_rss_mb", "MB"},
	{"sim_speedup_gmean", "ratio"},
	{"cells_ok_frac", "fraction"},
}

var perLayer = []metricDef{
	// Construction.
	{"sim.new_s", "s"},
	{"sim.new_calls", "count"},
	{"sim.new_alloc_mb", "MB"},
	{"tree.place_self_s", "s"},
	{"posmap.new_self_s", "s"},
	{"go.gc_cpu_frac", "fraction"},
	// Per-access pipeline.
	{"trace.next_s", "s"},
	{"sim.step_s", "s"},
	{"sim.step_hit_ns_p50", "ns"},
	{"sim.step_miss_ns_p50", "ns"},
	{"sim.step_miss_ns_p99", "ns"},
	{"core.self_s", "s"},
	{"tree.self_s", "s"},
	{"stash.self_s", "s"},
	{"md5.self_s", "s"},
	{"dram.self_s", "s"},
	{"cache.self_s", "s"},
	{"posmap.self_s", "s"},
	{"metrics.self_s", "s"},
	{"runtime.gc_s", "s"},
	{"layer.residue_s", "s"},
	{"tracing.overhead_s", "s"},
	// Simulated counts.
	{"core.paths_pos", "count"},
	{"core.paths_data", "count"},
	{"core.paths_dummy", "count"},
	{"core.paths_dwb", "count"},
	{"core.blocks_per_path", "blocks"},
	{"core.plb_hit_rate", "fraction"},
	{"core.sstash_hits", "count"},
	{"core.bg_evictions", "count"},
	{"cache.llc_miss_rate", "fraction"},
	{"dram.row_hit_rate", "fraction"},
	{"sim.cycles", "cycles"},
	// Experiment engine.
	{"cellcache.requests", "count"},
	{"cellcache.hits", "count"},
	{"cellcache.hit_ratio", "fraction"},
	{"runner.cpu_util", "fraction"},
	{"runner.cells_per_s", "1/s"},
	{"experiments.emit_s", "s"},
	{"go.heap_peak_mb", "MB"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every trace and ORAM; the expected digests are for seed 1")
	fs.Int("seconds", 0, "the run length BENCHMARK.json declares; a run's work is fixed, one unit of the workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	update := fs.String("update-expected", "", "with seed 1, write the run's output digests into this expected-digest file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *update != "" && *seed != 1:
		fmt.Fprintf(stderr, "perfbench: --update-expected needs --seed 1\n")
		return 2
	}

	// GOMAXPROCS and the sweep's worker count stay within the CPUs this
	// process may run on.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	e := &env{scale: geometry, seed: *seed, jobs: min(2, runtime.GOMAXPROCS(0)), workload: *workload}
	host, _ := json.Marshal(hostInfo(nproc))
	fmt.Fprintf(stdout, "host %s\n", host)

	var res result
	var err error
	if *traced == 1 {
		res, err = measureTraced(e, w, stdout, stderr)
	} else {
		res, err = measure(e, w, stdout, *update)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// newResult fills a result with the declared metrics, in units, from vals;
// a declared metric missing from vals is an error.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return result{}, errors.New("metrics not computed: " + strings.Join(missing, ", "))
	}
	return res, nil
}

// hostInfo is the metadata every result carries.
func hostInfo(nproc int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpu,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc,
	}
}
