package main

import (
	"flag"
	"os"
	"testing"

	"iroram"
)

// runArgs runs the command on a fresh flag set with stdout discarded and
// returns its exit code.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldCmd, oldArgs, oldOut := flag.CommandLine, os.Args, os.Stdout
	t.Cleanup(func() { flag.CommandLine, os.Args, os.Stdout = oldCmd, oldArgs, oldOut })
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { devNull.Close() })
	flag.CommandLine = flag.NewFlagSet("irsim", flag.ContinueOnError)
	os.Args = append([]string{"irsim"}, args...)
	os.Stdout = devNull
	return run()
}

// TestLevelsOutOfRangeIsUsageError: a -levels value outside config's
// [3, 32] is a usage error (exit 2) for both a single run and -compare,
// never a panic from sizing a Z profile with it.
func TestLevelsOutOfRangeIsUsageError(t *testing.T) {
	for _, v := range []string{"-1", "2", "33"} {
		if code := runArgs(t, "-levels", v, "-requests", "10"); code != 2 {
			t.Errorf("-levels %s: exit %d, want 2", v, code)
		}
		if code := runArgs(t, "-compare", "-levels", v, "-requests", "10"); code != 2 {
			t.Errorf("-compare -levels %s: exit %d, want 2", v, code)
		}
	}
}

// TestLevelsInRangeRuns: an in-range override builds a geometry of that
// depth and runs; 0 and 25 keep selecting the scaled and Table I presets.
func TestLevelsInRangeRuns(t *testing.T) {
	if code := runArgs(t, "-levels", "14", "-requests", "200"); code != 0 {
		t.Fatalf("-levels 14: exit %d, want 0", code)
	}
	cfg, err := baseConfig(14)
	if err != nil || cfg.ORAM.Levels != 14 {
		t.Fatalf("baseConfig(14) = L=%d, %v", cfg.ORAM.Levels, err)
	}
	if err := cfg.WithScheme(iroram.IROram()).Validate(); err != nil {
		t.Fatalf("baseConfig(14) with IR-ORAM: %v", err)
	}
	for levels, want := range map[int]iroram.Config{0: iroram.ScaledConfig(), 25: iroram.PaperConfig()} {
		cfg, err := baseConfig(levels)
		if err != nil || cfg.ORAM.Levels != want.ORAM.Levels {
			t.Errorf("baseConfig(%d) = L=%d, %v; want L=%d", levels, cfg.ORAM.Levels, err, want.ORAM.Levels)
		}
	}
}
