package cellcache

import (
	"fmt"

	"iroram/internal/config"
)

// Key returns the canonical fingerprint of one simulation cell: the
// fully-resolved (post-override) system configuration, the benchmark name,
// the number of trace records consumed, and the epoch-snapshot interval.
// Two cells with equal keys produce bit-identical sim.Results (the
// determinism contract of internal/sim).
//
// The key is the Go-syntax (%#v) rendering of all four, which prints every
// field of every nested struct in full. Because every config field is a
// plain value — no pointers, maps, funcs, interfaces or channels, which
// TestCoverageGuard enforces — the rendering is complete and collision-free
// by construction: a field added to config joins the key automatically.
func Key(cfg config.System, bench string, requests int, epochInterval uint64) string {
	// A nil and an empty Z profile describe the same (invalid) tree; only
	// the slice's contents may distinguish cells.
	if len(cfg.ORAM.Z) == 0 {
		cfg.ORAM.Z = nil
	}
	return fmt.Sprintf("%#v", struct {
		Cfg      config.System
		Bench    string
		Requests int
		Epoch    uint64
	}{cfg, bench, requests, epochInterval})
}
