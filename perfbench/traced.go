package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"iroram"
	"iroram/internal/sim"
)

// tracer records spans around the calls the benchmark makes into the
// simulator, and the time of every Generator.Next and System.Step call it
// drives itself. A nil tracer records nothing.
type tracer struct {
	origin     time.Time
	spans      []span
	next, step time.Duration
	stepNs     [2][]int64 // per-Step nanoseconds of LLC hits [0] and misses [1]
	misclassed int        // cells whose Step classification disagrees with the miss counters
}

// span is one timed call, with the index of the span that caused it (-1
// for a root). Times are nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return time.Duration(d), n
}

// timedGen times every Next call of the generator it wraps.
type timedGen struct {
	g iroram.TraceGenerator
	d time.Duration
}

func (g *timedGen) Name() string { return g.g.Name() }

func (g *timedGen) Next() (iroram.TraceRequest, bool) {
	t := time.Now()
	req, ok := g.g.Next()
	g.d += time.Since(t)
	return req, ok
}

// simulate is System.Run with every Step timed and classified as an LLC
// hit or miss: only a miss reaches the ORAM controller, so only a miss
// moves its served-request counter. The CPU profile samples of the loop
// carry the cell's name as a pprof label.
func (t *tracer) simulate(cell string, parent int, sys *sim.System, gen iroram.TraceGenerator, n int) sim.Result {
	var res sim.Result
	pprof.Do(context.Background(), pprof.Labels("cell", cell), func(context.Context) {
		sp := t.begin("simulate", parent)
		tg := &timedGen{g: gen}
		st := sys.Controller().Stats()
		misses := len(t.stepNs[1])
		for i := 0; i < n; i++ {
			req, ok := tg.Next()
			if !ok {
				break
			}
			served := st.ServedRequests
			t0 := time.Now()
			sys.Step(req)
			d := time.Since(t0)
			miss := 0
			if st.ServedRequests != served {
				miss = 1
			}
			t.stepNs[miss] = append(t.stepNs[miss], d.Nanoseconds())
			t.step += d
		}
		t.next += tg.d
		t.end(sp)
		sp = t.begin("sim.Result", parent)
		res = sys.Result(gen.Name())
		t.end(sp)
		if uint64(len(t.stepNs[1])-misses) != res.ReadMisses+res.WriteMisses {
			t.misclassed++
		}
	})
	return res
}

// The functions and packages the profile is folded by.
const (
	stepFn      = "iroram/internal/sim.(*System).Step"
	newFn       = "iroram/internal/sim.New"
	placeFn     = "iroram/internal/tree.(*Tree).Place"
	posmapNewFn = "iroram/internal/posmap.New"
	treePkg     = "iroram/internal/tree"
	posmapPkg   = "iroram/internal/posmap"
	tracePkg    = "iroram/internal/trace"
)

// layers maps the packages the per-access pipeline runs in to the layer
// names of the *.self_s metrics.
var layers = map[string]string{
	"iroram/internal/core":    "core",
	"iroram/internal/tree":    "tree",
	"iroram/internal/stash":   "stash",
	"crypto/md5":              "md5",
	"iroram/internal/dram":    "dram",
	"iroram/internal/cache":   "cache",
	"iroram/internal/posmap":  "posmap",
	"iroram/internal/metrics": "metrics",
}

// measureTraced runs the set-up phase, one untraced reference unit and then
// one traced unit under a CPU profile, and reports the per-layer metrics of
// the traced one.
func measureTraced(e *env, w workload, stdout, stderr io.Writer) (result, error) {
	if _, err := setupPhase(e); err != nil {
		return result{}, err
	}
	runtime.GC()
	ref, err := w(e, nil)
	if err != nil {
		return result{}, err
	}

	allocBefore, err := newAllocBytes()
	if err != nil {
		return result{}, err
	}
	tr := &tracer{origin: time.Now()}
	gcBefore, busyBefore := cpuClasses()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	// The process CPU time and the elapsed time of runner.cpu_util cover
	// the same interval: the whole unit, its checks included.
	cpuBefore, start := cpuTime(), time.Now()
	u, err := w(e, tr)
	cpu, elapsed := cpuTime()-cpuBefore, time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	gcAfter, busyAfter := cpuClasses()
	allocAfter, err := newAllocBytes()
	if err != nil {
		return result{}, err
	}
	types, samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	cpuIdx := indexOf(types, "cpu")
	if cpuIdx < 0 {
		return result{}, fmt.Errorf("CPU profile has no cpu sample type (types %v)", types)
	}

	// Fold the profile: layer self time under Step, overall and per cell,
	// and the construction and trace-generation subtrees.
	self := map[string]float64{}
	cellSelf := map[string]map[string]float64{}
	var stepCPU, newCPU, nextCPU, placeSelf, posmapNewSelf float64
	for _, s := range samples {
		v := float64(s.values[cpuIdx]) / 1e9
		leaf := s.leafPkg()
		if s.under(stepFn) {
			stepCPU += v
			cell := s.labels["cell"]
			if cellSelf[cell] == nil {
				cellSelf[cell] = map[string]float64{}
			}
			cellSelf[cell]["step"] += v
			if l, ok := layers[leaf]; ok {
				self[l] += v
				cellSelf[cell][l] += v
			}
		}
		if s.under(newFn) {
			newCPU += v
			if leaf == treePkg && s.under(placeFn) {
				placeSelf += v
			}
			if leaf == posmapPkg && s.under(posmapNewFn) {
				posmapNewSelf += v
			}
		}
		for _, f := range s.frames {
			if pkgOf(f) == tracePkg {
				nextCPU += v
				break
			}
		}
	}

	vals := map[string]float64{
		"tree.place_self_s":  placeSelf,
		"posmap.new_self_s":  posmapNewSelf,
		"go.gc_cpu_frac":     (gcAfter - gcBefore) / (busyAfter - busyBefore),
		"runtime.gc_s":       gcAfter - gcBefore,
		"sim.new_alloc_mb":   (allocAfter - allocBefore) / (1 << 20),
		"tracing.overhead_s": (u.wall - ref.wall).Seconds(),
	}
	jobs := 1
	if e.workload == "sweep-scaled" {
		// The sweep's cells run inside the engine, out of reach of spans:
		// their construction, Step and Next times come from the profile,
		// as CPU seconds over every worker.
		jobs = e.jobs
		vals["sim.new_s"] = newCPU
		// Derived, not counted: one construction per cell-cache miss.
		vals["sim.new_calls"] = float64(u.requests - u.hits)
		vals["sim.step_s"] = stepCPU
		vals["trace.next_s"] = nextCPU
		vals["sim.step_hit_ns_p50"] = 0
		vals["sim.step_miss_ns_p50"] = 0
		vals["sim.step_miss_ns_p99"] = 0
	} else {
		newTime, newCalls := tr.total("sim.New")
		vals["sim.new_s"] = newTime.Seconds()
		vals["sim.new_calls"] = float64(newCalls)
		vals["sim.step_s"] = tr.step.Seconds()
		vals["trace.next_s"] = tr.next.Seconds()
		vals["sim.step_hit_ns_p50"] = percentile(tr.stepNs[0], 50)
		vals["sim.step_miss_ns_p50"] = percentile(tr.stepNs[1], 50)
		vals["sim.step_miss_ns_p99"] = percentile(tr.stepNs[1], 99)
	}
	layerSum := 0.0
	for _, l := range layerNames() {
		vals[l+".self_s"] = self[l]
		layerSum += self[l]
	}
	vals["layer.residue_s"] = vals["sim.step_s"] - layerSum
	for k, v := range simCounts(u.cells) {
		vals[k] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["cellcache.requests"] = float64(u.requests)
	vals["cellcache.hits"] = float64(u.hits)
	vals["cellcache.hit_ratio"] = 0
	if u.requests > 0 {
		vals["cellcache.hit_ratio"] = float64(u.hits) / float64(u.requests)
	}
	vals["runner.cpu_util"] = cpu.Seconds() / (float64(jobs) * elapsed.Seconds())
	vals["runner.cells_per_s"] = float64(u.attempted) / u.wall.Seconds()
	vals["experiments.emit_s"] = u.emit.Seconds()
	vals["go.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20) // the heap never returns address space

	// Checks: the traced unit must reproduce every simulated statistic of
	// the untraced one, which the digests cover, and the Step classification
	// must agree with the simulator's miss counters.
	failed := ref.failed + u.failed + tr.misclassed
	failed += diffDigests(ref.digests, u.digests, "untraced", "traced")
	failed += checkExpected(e, u.digests)
	if tr.misclassed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d cells: Step hit/miss classification disagrees with the miss counters\n", tr.misclassed)
	}

	fmt.Fprintf(stdout, "residue: sim.step_s %.3fs = layers %.3fs + residue %.3fs (%.1f%%)\n",
		vals["sim.step_s"], layerSum, vals["layer.residue_s"], 100*vals["layer.residue_s"]/vals["sim.step_s"])
	fmt.Fprintf(stdout, "tracing overhead: traced wall %.3fs - untraced wall %.3fs = %.3fs\n",
		u.wall.Seconds(), ref.wall.Seconds(), vals["tracing.overhead_s"])
	for _, cell := range sortedKeys(cellSelf) {
		printCellLayers(stdout, cell, cellSelf[cell])
	}
	if b, err := json.Marshal(tr.spans); err == nil {
		fmt.Fprintf(stderr, "spans %s\n", b)
	}
	return newResult(perLayer, vals, ref.attempted+u.attempted, failed)
}

// printCellLayers prints each layer's share of a cell's Step CPU time,
// largest first.
func printCellLayers(w io.Writer, cell string, self map[string]float64) {
	if cell == "" {
		cell = "all cells"
	}
	step := self["step"]
	ls := layerNames()
	sort.SliceStable(ls, func(i, j int) bool { return self[ls[i]] > self[ls[j]] })
	parts := make([]string, len(ls))
	rest := step
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s %.1f%%", l, 100*self[l]/step)
		rest -= self[l]
	}
	fmt.Fprintf(w, "layers %s (Step CPU %.2fs): %s, residue %.1f%%\n",
		cell, step, strings.Join(parts, ", "), 100*rest/step)
}

// simCounts derives the simulated per-layer counts from the counters of
// every distinct simulated cell.
func simCounts(cells []map[string]uint64) map[string]float64 {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	plbHits, llcMisses, rowHits := sum(cells, "oram_plb_hits"), sum(cells, "llc_misses"), sum(cells, "dram_row_hits")
	return map[string]float64{
		"core.paths_pos":       sum(cells, "oram_paths_ptp1", "oram_paths_ptp2"),
		"core.paths_data":      sum(cells, "oram_paths_ptd"),
		"core.paths_dummy":     sum(cells, "oram_paths_ptm"),
		"core.paths_dwb":       sum(cells, "oram_paths_dwb"),
		"core.blocks_per_path": ratio(sum(cells, "oram_blocks_read"), totalPaths(cells)),
		"core.plb_hit_rate":    ratio(plbHits, plbHits+sum(cells, "oram_plb_misses")),
		"core.sstash_hits":     sum(cells, "oram_sstash_hits"),
		"core.bg_evictions":    sum(cells, "oram_bg_evictions"),
		"cache.llc_miss_rate":  ratio(llcMisses, llcMisses+sum(cells, "llc_hits")),
		"dram.row_hit_rate":    ratio(rowHits, rowHits+sum(cells, "dram_row_misses")),
		"sim.cycles":           sum(cells, "sim_cycles"),
	}
}

// newAllocBytes is the bytes allocated so far under sim.New, from the
// allocation profile (sampled by the runtime and scaled to an estimate).
func newAllocBytes() (float64, error) {
	runtime.GC() // the profile covers allocations up to the last completed GC
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return 0, err
	}
	types, samples, err := parseProfile(b.Bytes())
	if err != nil {
		return 0, err
	}
	idx := indexOf(types, "alloc_space")
	if idx < 0 {
		return 0, fmt.Errorf("allocation profile has no alloc_space (types %v)", types)
	}
	var total float64
	for _, s := range samples {
		if s.under(newFn) {
			total += float64(s.values[idx])
		}
	}
	return total, nil
}

// cpuClasses reads the runtime's GC CPU time and its total non-idle CPU
// time, in CPU seconds.
func cpuClasses() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func layerNames() []string {
	names := make([]string, 0, len(layers))
	for _, l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// percentile is the nearest-rank percentile of v, 0 when v is empty.
func percentile(v []int64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)*p/100])
}
