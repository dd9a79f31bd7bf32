package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/rng"
)

// flightRig builds a warmed-up Tiny controller+issuer with the given
// recorder attached to both the controller and the DRAM model.
func flightRig(t *testing.T, fl *flight.Recorder) (*Issuer, *rng.Source, uint64, uint64) {
	t.Helper()
	cfg := config.Tiny()
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c.AttachFlight(fl)
	mem.AttachFlight(fl)
	is := NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
	now := uint64(0)
	for i := 0; i < 4000; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	}
	return is, r, nd, now
}

// TestFlightDisabledZeroAllocs pins the zero-cost-when-off contract: with
// no recorder attached (the production default), a steady-state demand
// access still performs no heap allocations (`make alloccheck`).
func TestFlightDisabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	is, r, nd, now := flightRig(t, nil)
	avg := testing.AllocsPerRun(400, func() {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	})
	if avg != 0 {
		t.Errorf("tracing disabled: ReadBlock allocates %.2f times per access, want 0", avg)
	}
}

// TestFlightEnabledZeroAllocs pins the stronger property: even with a
// recorder armed on every access, recording into the preallocated ring
// allocates nothing per access.
func TestFlightEnabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	is, r, nd, now := flightRig(t, flight.New(1024, 1))
	avg := testing.AllocsPerRun(400, func() {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	})
	if avg != 0 {
		t.Errorf("tracing enabled: ReadBlock allocates %.2f times per access, want 0", avg)
	}
}

// TestFlightAccessStructure checks the span protocol: each sampled
// access contributes exactly one whole-access span, one span per phase,
// and one occupancy sample (the issuer's disarm point), and access spans
// carry valid path types.
func TestFlightAccessStructure(t *testing.T) {
	fl := flight.New(1<<20, 4)
	is, r, nd, now := flightRig(t, fl)
	_ = is
	_ = r
	_ = nd
	_ = now
	tr := fl.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test capacity", tr.Dropped)
	}
	var counts [8]uint64
	for _, e := range tr.Events {
		counts[e.Kind]++
		switch e.Kind {
		case flight.KindAccess, flight.KindPhaseRead, flight.KindPhaseDecrypt:
			if int(e.Sub) >= block.NumPathTypes {
				t.Fatalf("span kind %v carries invalid path type %d", e.Kind, e.Sub)
			}
			if e.End < e.Start {
				t.Fatalf("span kind %v ends before it starts: %+v", e.Kind, e)
			}
		}
	}
	sampled := fl.SampledAccesses()
	if sampled == 0 {
		t.Fatal("no accesses sampled")
	}
	for _, k := range []flight.Kind{flight.KindAccess, flight.KindPhaseRead,
		flight.KindPhaseDecrypt, flight.KindPhaseWrite, flight.KindOccupancy} {
		if counts[k] != sampled {
			t.Errorf("%v events = %d, want one per sampled access (%d)",
				k, counts[k], sampled)
		}
	}
	if counts[flight.KindDramRun] == 0 {
		t.Error("no DRAM run events recorded for sampled accesses")
	}
	if counts[flight.KindRequest] == 0 {
		t.Error("no request spans recorded")
	}
}

// TestFlightObservesOnly pins the no-perturbation contract: the same
// workload with and without a recorder produces identical controller
// statistics.
func TestFlightObservesOnly(t *testing.T) {
	run := func(fl *flight.Recorder) (uint64, uint64) {
		cfg := config.Tiny().WithScheme(config.IROramScheme())
		mem := dram.New(cfg.DRAM)
		c, err := NewController(cfg, mem, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		c.AttachFlight(fl)
		mem.AttachFlight(fl)
		is := NewIssuer(c, nil)
		r := rng.New(2)
		nd := cfg.ORAM.DataBlocks()
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
		}
		return now, c.st.PathsIssued
	}
	offDone, offPaths := run(nil)
	onDone, onPaths := run(flight.New(512, 3))
	if offDone != onDone || offPaths != onPaths {
		t.Errorf("tracing perturbed the simulation: off (done %d, paths %d), on (done %d, paths %d)",
			offDone, offPaths, onDone, onPaths)
	}
}
