package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json that perfbench
// must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// sameMetrics reports every name whose unit differs or that only one side
// has.
func sameMetrics(t *testing.T, what string, want, got map[string]string) {
	t.Helper()
	for n, u := range want {
		if g, ok := got[n]; !ok {
			t.Errorf("%s: %q declared but not printed", what, n)
		} else if g != u {
			t.Errorf("%s: %q has unit %q, declared %q", what, n, g, u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: %q printed but not declared", what, n)
		}
	}
}

func defsMap(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	sameMetrics(t, "end_to_end", e2e, defsMap(endToEnd))
	sameMetrics(t, "per_layer", layer, defsMap(perLayer))

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("perfbench workloads %v, BENCHMARK.json workloads %v", got, names)
	}
}

// TestTinySmoke runs every workload path at tiny geometry, untraced and
// traced, and checks that the output check passes and that the printed
// metrics are exactly the ones BENCHMARK.json declares. Seed 1 compares
// the committed digests; seed 2 runs every other check.
func TestTinySmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	declared := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bj.EndToEnd {
		declared["0"][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		declared["1"][m.Name] = m.Unit
	}
	geometry = tinyGeometry
	t.Cleanup(func() { geometry = scaledGeometry })
	for _, w := range workloadNames() {
		for _, c := range []struct{ seed, trace string }{{"1", "0"}, {"1", "1"}, {"2", "0"}} {
			t.Run(w+"/seed="+c.seed+"/trace="+c.trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", c.seed, "--seconds", "0", "--trace", c.trace}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errb.String())
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				sameMetrics(t, "printed", declared[c.trace], got)
			})
		}
	}
}

func TestDigestMismatchCountsCells(t *testing.T) {
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	got := map[string]string{"a": "1", "b": "x", "d": "4"}
	if n := diffDigests(want, got, "want", "got"); n != 3 { // b differs, c missing, d extra
		t.Errorf("diffDigests = %d, want 3", n)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"iroram/internal/core.(*Controller).access":            "iroram/internal/core",
		"crypto/md5.block":                                     "crypto/md5",
		"runtime.mallocgc":                                     "runtime",
		"iroram/internal/runner.Map[go.shape.struct {}].func1": "iroram/internal/runner",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
