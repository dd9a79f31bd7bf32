package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"iroram"
	"iroram/internal/sim"
)

// scale sizes every workload. Its name prefixes the scale's keys in
// expected.json.
type scale struct {
	name          string
	base          iroram.Config
	longRequests  int // trace records per long-* cell
	sweepRequests int // trace records per sweep cell
}

var (
	// scaledGeometry is the benchmark: Scaled L=21 and the CLI's request count.
	scaledGeometry = scale{"scaled", iroram.ScaledConfig(), 200000, iroram.DefaultExperiments().Requests}
	// tinyGeometry runs the same code paths at L=14 in seconds, for the tests.
	tinyGeometry = scale{"tiny", iroram.TinyConfig(), 4000, 1000}
	// geometry is the scale a run uses; the tests set it to tinyGeometry.
	geometry = scaledGeometry
)

// The sweep-scaled figure set and benchmarks: the figures whose cells carry
// full run statistics, over one low-intensity, one pointer-chasing and one
// write-streaming program.
var (
	sweepFigures    = []string{"table2", "fig2", "fig10", "fig12", "fig14", "fig15"}
	sweepBenchmarks = []string{"gcc", "mcf", "lbm"}
)

// setupRepeats is how many times a run constructs the Baseline and IR-ORAM
// systems before its measured phase, for the median of setup_s.
const setupRepeats = 3

// env is one benchmark invocation.
type env struct {
	scale    scale
	seed     uint64
	jobs     int
	workload string
}

// unitResult is one unit of a workload: one sweep, or one Baseline plus
// IR-ORAM pair of long cells.
type unitResult struct {
	wall     time.Duration // the unit's measured wall clock
	setup    time.Duration // sim.New time of the unit's own cells (long-*)
	simulate time.Duration // host time of the simulate phase
	records  uint64        // trace records simulated
	// cells holds the counters of every cell the unit requested.
	cells []map[string]uint64
	// digests maps each requested cell to a digest of its output.
	digests   map[string]string
	speedup   float64 // simulated Baseline/IR-ORAM cycles, geomean over benchmarks
	attempted int
	failed    int // failed cell checks, digests aside

	// Engine accounting, sweep-scaled only.
	requests, hits int64
	emit           time.Duration // table rendering and artifact write
}

// workload runs one unit; tr is nil when untraced.
type workload func(e *env, tr *tracer) (unitResult, error)

var workloads = map[string]workload{
	"sweep-scaled": sweepUnit,
	"long-read":    func(e *env, tr *tracer) (unitResult, error) { return longUnit(e, "mcf", tr) },
	"long-write":   func(e *env, tr *tracer) (unitResult, error) { return longUnit(e, "lbm", tr) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// longUnit simulates Baseline then IR-ORAM on bench, one cell at a time,
// outside the experiment engine.
func longUnit(e *env, bench string, tr *tracer) (unitResult, error) {
	u := unitResult{digests: map[string]string{}}
	root := tr.begin("unit "+e.workload, -1)
	start := time.Now()
	var checks time.Duration
	var cycles []float64
	for _, sch := range []iroram.Scheme{iroram.Baseline(), iroram.IROram()} {
		cfg := e.scale.base.WithScheme(sch)
		cfg.Seed = e.seed
		key := sch.Name + "/" + bench
		cell := tr.begin("cell "+key, root)
		gen, err := iroram.NewTrace(bench, cfg.ORAM.DataBlocks(), cfg.Seed)
		if err != nil {
			return u, err
		}
		sp := tr.begin("sim.New", cell)
		t0 := time.Now()
		sys, err := sim.New(cfg)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return u, fmt.Errorf("%s: %w", key, err)
		}
		var res sim.Result
		if tr == nil {
			res = sys.Run(gen, e.scale.longRequests)
		} else {
			res = tr.simulate(key, cell, sys, gen, e.scale.longRequests)
		}
		t2 := time.Now()
		tr.end(cell)
		u.setup += t1.Sub(t0)
		u.simulate += t2.Sub(t1)
		u.records += res.Requests
		u.attempted++

		invErr := sys.Controller().CheckInvariants()
		rec := iroram.NewArtifactRecord("perfbench", sch.Name, bench, "", cfg.Seed, res)
		line, err := json.Marshal(rec)
		if err != nil {
			return u, err
		}
		runtime.GC() // cells are independent: free this one before the next
		checks += time.Since(t2)
		switch {
		case res.Requests < uint64(e.scale.longRequests):
			u.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s consumed %d of %d records\n", key, res.Requests, e.scale.longRequests)
		case invErr != nil:
			u.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: invariants: %v\n", key, invErr)
		}
		u.digests[key] = digest(line)
		u.cells = append(u.cells, rec.Metrics.Counters)
		cycles = append(cycles, float64(res.Cycles))
	}
	u.wall = time.Since(start) - checks
	tr.end(root)
	u.speedup = cycles[0] / cycles[1]
	return u, nil
}

// sweepUnit runs the figure sweep as cmd/experiments does by default:
// deduplicated, overlapped, with JSONL artifacts written to a directory.
func sweepUnit(e *env, tr *tracer) (unitResult, error) {
	u := unitResult{digests: map[string]string{}}
	dir, err := os.MkdirTemp("", "perfbench-sweep-")
	if err != nil {
		return u, err
	}
	defer os.RemoveAll(dir)

	opts := iroram.DefaultExperiments()
	opts.Base = e.scale.base
	opts.Requests = e.scale.sweepRequests
	opts.Seed = e.seed
	opts.Benchmarks = sweepBenchmarks
	opts.Jobs = e.jobs
	opts.Artifacts = &iroram.ArtifactLog{}
	tables := map[string]string{}
	cells := map[string]int64{}

	root := tr.begin("unit "+e.workload, -1)
	start := time.Now()
	err = iroram.Sweep{Options: opts, Names: sweepFigures, Dedup: true, Overlap: true}.Run(func(fr iroram.FigureRun) {
		sp := tr.begin("deliver "+fr.Name, root)
		t := time.Now()
		u.attempted += int(fr.Cells)
		u.requests += fr.Cells
		u.hits += fr.Hits
		cells[fr.Name] = fr.Cells
		if fr.Err != nil {
			u.failed += int(max(fr.Cells, 1))
		} else {
			tables[fr.Name] = fr.Table.String()
		}
		u.emit += time.Since(t)
		tr.end(sp)
	})
	sp := tr.begin("artifacts.write", root)
	t := time.Now()
	writeErr := opts.Artifacts.WriteDir(dir)
	u.emit += time.Since(t)
	tr.end(sp)
	u.wall = time.Since(start)
	u.simulate = u.wall
	tr.end(root)
	if writeErr != nil {
		return u, writeErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", err)
		return u, nil
	}

	// Each requested cell's digest covers its figure's rendered table and
	// its own JSONL artifact line.
	for _, fig := range sweepFigures {
		b, err := os.ReadFile(filepath.Join(dir, fig+".jsonl"))
		if err != nil {
			return u, err
		}
		lines := strings.SplitAfter(string(b), "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		if n := int64(len(lines)); n != cells[fig] {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d artifact records for %d cells\n", fig, n, cells[fig])
			u.failed += int(max(n-cells[fig], cells[fig]-n))
		}
		table := digest([]byte(tables[fig]))
		for i, l := range lines {
			u.digests[fmt.Sprintf("%s/%d", fig, i)] = digest([]byte(table + l))
		}
	}

	// Counts cover every requested cell: a cache hit is served work too.
	cycles := map[string]map[string]float64{}
	for _, rec := range opts.Artifacts.Records() {
		if rec.Metrics == nil {
			continue
		}
		if rec.Requests < uint64(opts.Requests) {
			u.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s/%s consumed %d of %d records\n",
				rec.Figure, rec.Scheme, rec.Benchmark, rec.Requests, opts.Requests)
		}
		if rec.Figure == "fig10" {
			if cycles[rec.Benchmark] == nil {
				cycles[rec.Benchmark] = map[string]float64{}
			}
			cycles[rec.Benchmark][rec.Scheme] = float64(rec.Cycles)
		}
		u.cells = append(u.cells, rec.Metrics.Counters)
		u.records += rec.Requests
	}
	logSum := 0.0
	for _, b := range sweepBenchmarks {
		base, ir := cycles[b]["Baseline"], cycles[b]["IR-ORAM"]
		if base == 0 || ir == 0 {
			return u, fmt.Errorf("fig10 has no Baseline and IR-ORAM cells for %s", b)
		}
		logSum += math.Log(base / ir)
	}
	u.speedup = math.Exp(logSum / float64(len(sweepBenchmarks)))
	return u, nil
}

// setupPair constructs the Baseline and IR-ORAM systems of the scale once
// and returns the host time sim.New took for both.
func setupPair(e *env) (time.Duration, error) {
	var total time.Duration
	for _, sch := range []iroram.Scheme{iroram.Baseline(), iroram.IROram()} {
		cfg := e.scale.base.WithScheme(sch)
		cfg.Seed = e.seed
		t := time.Now()
		if _, err := sim.New(cfg); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	return total, nil
}

// setupPhase constructs the Baseline and IR-ORAM pair setupRepeats times
// and returns each pair's sim.New seconds. It also grows the heap to its
// working size before the first measured unit.
func setupPhase(e *env) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := setupPair(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// measure runs the set-up phase and then one unit of the workload,
// untraced, and reports the end-to-end metrics. The work of a run is fixed:
// one unit, so every run of a workload measures the same thing.
func measure(e *env, w workload, stdout io.Writer, update string) (result, error) {
	setups, err := setupPhase(e)
	if err != nil {
		return result{}, err
	}
	runtime.GC() // start the unit from a collected heap
	u, err := w(e, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "unit: wall %.3fs setup %.3fs simulate %.3fs\n",
		u.wall.Seconds(), u.setup.Seconds(), u.simulate.Seconds())
	if u.setup > 0 {
		setups = append(setups, u.setup.Seconds())
	}
	failed := u.failed + checkExpected(e, u.digests)
	if update != "" {
		if err := writeExpected(update, e, u.digests); err != nil {
			return result{}, err
		}
	}

	vals := map[string]float64{
		"wall_s":            u.wall.Seconds(),
		"setup_s":           median(setups),
		"sim_req_per_s":     float64(u.records) / u.simulate.Seconds(),
		"ns_per_path":       float64(u.simulate.Nanoseconds()) / totalPaths(u.cells),
		"peak_rss_mb":       peakRSSMB(),
		"sim_speedup_gmean": u.speedup,
		"cells_ok_frac":     1 - float64(failed)/float64(u.attempted),
	}
	return newResult(endToEnd, vals, u.attempted, failed)
}

// expectedJSON maps "<scale>/<workload>/<cell>" to the digest of the cell's
// output at seed 1. Regenerate an entry with --update-expected.
//
//go:embed expected.json
var expectedJSON []byte

// checkExpected compares the unit's digests with the committed ones when
// the run uses seed 1 and returns the number of cells that differ.
func checkExpected(e *env, got map[string]string) int {
	if e.seed != 1 {
		return 0
	}
	var all map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json: %v\n", err)
		return len(got)
	}
	prefix := e.scale.name + "/" + e.workload + "/"
	want := map[string]string{}
	for k, v := range all {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			want[rest] = v
		}
	}
	return diffDigests(want, got, "expected", "got")
}

// writeExpected replaces the workload's entries in the expected-digest file.
func writeExpected(path string, e *env, got map[string]string) error {
	all := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	prefix := e.scale.name + "/" + e.workload + "/"
	for k := range all {
		if strings.HasPrefix(k, prefix) {
			delete(all, k)
		}
	}
	for k, v := range got {
		all[prefix+k] = v
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// diffDigests returns how many cells differ between two digest sets,
// counting cells present in only one of them.
func diffDigests(a, b map[string]string, aName, bName string) int {
	bad := 0
	for k, v := range a {
		if b[k] != v {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: digest of %s differs: %s %q, %s %q\n", k, aName, v, bName, b[k])
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: digest of %s: not in %s\n", k, aName)
		}
	}
	return bad
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// pathNames are the per-type path counters of the metrics registry.
var pathNames = []string{"oram_paths_ptd", "oram_paths_ptp1", "oram_paths_ptp2",
	"oram_paths_ptm", "oram_paths_evict", "oram_paths_dwb"}

// sum adds the named counters over every cell.
func sum(cells []map[string]uint64, names ...string) float64 {
	var s float64
	for _, c := range cells {
		for _, n := range names {
			s += float64(c[n])
		}
	}
	return s
}

func totalPaths(cells []map[string]uint64) float64 { return sum(cells, pathNames...) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
