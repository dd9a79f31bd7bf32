package iroram

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fig10 golden table")

// TestFig10QuickGolden pins the quick-scale Fig 10 table — every speedup
// over Baseline, gmean row included — bit for bit against the checked-in
// golden (JSON float encoding round-trips exactly). Performance work must
// keep the simulated outputs unchanged; a justified re-baseline
// regenerates the file with `go test -run Fig10QuickGolden -update .`.
func TestFig10QuickGolden(t *testing.T) {
	tab, err := Experiment("fig10", QuickExperiments())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "fig10_quick.json")
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
		t.Errorf("quick fig10 table drifted from %s\n got: %s\nwant: %s", golden, got, want)
	}
}
