package iroram

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the checked-in golden files under testdata/")

// checkGolden compares got against testdata/name, first rewriting the file
// when -update is set. It is the one golden mechanism of the package: a
// justified re-baseline regenerates every golden with
// `go test -run Golden -update .`.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s\n got: %s\nwant: %s", golden, got, want)
	}
}

// TestFig10QuickGolden pins the quick-scale Fig 10 table — every speedup
// over Baseline, gmean row included — bit for bit against the checked-in
// golden (JSON float encoding round-trips exactly). Performance work must
// keep the simulated outputs unchanged.
func TestFig10QuickGolden(t *testing.T) {
	tab, err := Experiment("fig10", QuickExperiments())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10_quick.json", append(got, '\n'))
}

// TestAllFiguresQuickGolden pins every figure at the CI determinism
// settings (quick scale, 2000 requests, epoch snapshots every 500 paths),
// run as one deduplicated, overlapped Sweep: the rendered tables exactly
// as `cmd/experiments -fig all` prints them, and a sha256 of each
// per-figure JSONL artifact file ArtifactLog.WriteDir writes. It is the
// "no outputs moved" check for the figures TestFig10QuickGolden does not
// cover.
func TestAllFiguresQuickGolden(t *testing.T) {
	opts := QuickExperiments()
	opts.Requests = 2000
	opts.EpochInterval = 500
	opts.Jobs = 2
	log := &ArtifactLog{}
	opts.Artifacts = log

	var tables bytes.Buffer
	sw := Sweep{Options: opts, Dedup: true, Overlap: true}
	err := sw.Run(func(fr FigureRun) {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		tables.WriteString(fr.Table.String())
		tables.WriteString("\n")
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "all_quick.txt", tables.Bytes())

	dir := t.TempDir()
	if err := log.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var sums bytes.Buffer
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(b), filepath.Base(f))
	}
	checkGolden(t, "all_quick_jsonl.sha256", sums.Bytes())
}
