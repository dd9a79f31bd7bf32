package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// pipelineOp is one step of the lockstep differential workload.
type pipelineOp struct {
	addr   block.ID
	write  bool
	gap    uint64
	cswtch bool
}

// pipelineWorkload builds a deterministic op mix: demand reads, posted
// write-backs, idle gaps (so dummies and background evictions fire), and
// occasional context switches. Under delayed remap (LLC-D) a fetched block
// is held out of the ORAM until a write evicts it, so reads must not
// repeat a held-out address and writes target held-out blocks — the same
// discipline as TestIssueUniformity. The op stream depends only on the
// scheme, never on controller state, so both pipelines replay it exactly.
func pipelineWorkload(n int, dataBlocks uint64, sch config.Scheme) []pipelineOp {
	r := rng.New(42)
	heldOut := map[block.ID]bool{}
	var heldList []block.ID
	var ops []pipelineOp
	for i := 0; len(ops) < n; i++ {
		op := pipelineOp{
			addr:   block.ID(r.Uint64n(dataBlocks)),
			gap:    r.Uint64n(4000),
			cswtch: i > 0 && i%400 == 0,
		}
		if op.cswtch {
			ops = append(ops, op)
			continue
		}
		if sch.DelayedRemap {
			if r.Bool(0.3) && len(heldList) > 0 {
				v := heldList[r.Intn(len(heldList))]
				if heldOut[v] {
					delete(heldOut, v)
					op.addr, op.write = v, true
					ops = append(ops, op)
					continue
				}
			}
			if heldOut[op.addr] {
				continue // LLC hit in the real system
			}
			heldOut[op.addr] = true
			heldList = append(heldList, op.addr)
		} else {
			op.write = r.Uint64n(5) == 0
		}
		ops = append(ops, op)
	}
	return ops
}

// pipelineSystem builds one controller + issuer for the differential run.
func pipelineSystem(t *testing.T, sch config.Scheme, ref bool) (*Issuer, *Controller) {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		installReference(c)
	}
	return NewIssuer(c, nil), c
}

// refPipeline is the multi-walk, per-address shape of the path access, the
// oracle of TestFusedPipelineMatchesReference. Where the fused pathAccess
// charges DRAM from memoized run lists and gathers, extracts and tallies in
// one walk, the reference rebuilds the physical address list every time,
// services it per address through the dram oracle
// (ServiceBatch/PostWrites), resolves the target's level with a separate
// tree.Find walk, and reads the path into a buffer before scanning it. It
// shares only evictOntoPath with the fused pipeline (the eviction has its
// own oracle, evictOntoPathReference, whose tie-breaks differ), and charts
// the Fig 5 migration split from outside it: the read leaves the path's
// buckets empty, so a level's placements are its occupancy delta across
// the write phase, and a fetched block's landing level is found with the
// side-effect-free tree.Find and TopStore.Find.
type refPipeline struct {
	c       *Controller
	accBuf  []dram.Access
	readBuf []tree.Entry
	before  []uint64 // per-level occupancy before the write phase
	fetched []uint64 // per-level placements of blocks this path read
}

// installReference routes every path access of c through a refPipeline.
func installReference(c *Controller) {
	r := &refPipeline{c: c,
		before: make([]uint64, c.o.Levels), fetched: make([]uint64, c.o.Levels)}
	c.refAccess = r.pathAccess
}

// occupiedAt returns t's block count at level l, on-chip levels included.
func occupiedAt(t *pathTree, l int) uint64 {
	if l < t.minLevel {
		return t.top.OccupiedAt(l)
	}
	return t.tr.OccupiedAt(l)
}

// pathAccess follows the pathAccess contract on either tree.
func (r *refPipeline) pathAccess(t *pathTree, now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	c := r.c
	foundLevel = -1
	if lvl, ok := t.tr.Find(target, leaf); ok {
		foundLevel = lvl
	}

	// Read phase, per address: rebuild the []dram.Access batch and service
	// it through the dram oracle.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	r.accBuf = r.accBuf[:0]
	for _, a := range c.physBuf {
		r.accBuf = append(r.accBuf, dram.Access{Addr: a + t.physOff})
	}
	readDone := c.mem.ServiceBatch(now, r.accBuf)
	c.st.PhaseReadCycles += readDone - now

	r.readBuf = r.readBuf[:0]
	collect := func(e tree.Entry, _ int) { r.readBuf = append(r.readBuf, e) }
	t.tr.ReadPathEach(leaf, collect)
	if t.top != nil {
		t.top.ReadPathEach(leaf, collect)
	}
	for _, e := range r.readBuf {
		if e.Addr == target {
			found = true
			continue
		}
		t.fstash.Insert(e)
	}
	if !found {
		foundLevel = -1
	}

	// Only the main tree charts the migration split (see pathTree.mig).
	if t.mig != nil {
		for l := range r.before {
			r.before[l] = occupiedAt(t, l)
		}
	}
	c.evictBuf = evictOntoPath(t, leaf, nil, c.evictList, c.evictBuf, nil)
	if t.mig != nil {
		r.chartMigration(t, leaf, target)
	}

	r.accBuf = r.accBuf[:0]
	for _, a := range c.physBuf {
		r.accBuf = append(r.accBuf, dram.Access{Addr: a + t.physOff, Write: true})
	}
	writeDone := c.mem.PostWrites(readDone, r.accBuf)
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, len(c.physBuf), len(c.physBuf))
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	t.paths++
	if c.st.RecordLeaves && t == &c.pathTree {
		c.st.Leaves = append(c.st.Leaves, leaf)
	}
	return found, foundLevel, done
}

// chartMigration records one write phase's placements per level, split
// into blocks this path read (readBuf, minus the extracted target) and
// blocks that were already stashed.
func (r *refPipeline) chartMigration(t *pathTree, leaf block.Leaf, target block.ID) {
	clear(r.fetched)
	for _, e := range r.readBuf {
		if e.Addr == target {
			continue
		}
		if l, ok := t.tr.Find(e.Addr, leaf); ok {
			r.fetched[l]++
		} else if t.top != nil {
			if l, ok := t.top.Find(e.Addr, leaf); ok {
				r.fetched[l]++
			}
		}
	}
	for l, before := range r.before {
		if placed := occupiedAt(t, l) - before; placed > 0 {
			r.c.st.MigrationFetched.AddN(l, r.fetched[l])
			r.c.st.MigrationPreexisting.AddN(l, placed-r.fetched[l])
		}
	}
}

// comparePipelines drives two systems through the same workload in
// lockstep and fails on the first divergence in completion times, then on
// any difference in statistics, DRAM state, stash contents (including
// storage order, which is behavior-visible through DrainForPath), or tree
// occupancy.
func comparePipelines(t *testing.T, label string, isA, isB *Issuer, cA, cB *Controller) {
	t.Helper()
	ops := pipelineWorkload(1200, cA.pm.DataBlocks(), cA.cfg.Scheme)
	nowA, nowB := uint64(0), uint64(0)
	for i, op := range ops {
		if op.cswtch {
			nowA = cA.ContextSwitch(nowA)
			nowB = cB.ContextSwitch(nowB)
		} else if op.write {
			nowA = isA.PostWrite(nowA+op.gap, op.addr)
			nowB = isB.PostWrite(nowB+op.gap, op.addr)
		} else {
			nowA = isA.ReadBlock(nowA+op.gap, op.addr)
			nowB = isB.ReadBlock(nowB+op.gap, op.addr)
		}
		if nowA != nowB {
			t.Fatalf("%s: op %d (%+v): completion diverges: %d vs %d", label, i, op, nowA, nowB)
		}
	}

	if sa, sb := cA.mem.Stats(), cB.mem.Stats(); sa != sb {
		t.Fatalf("%s: DRAM stats diverge:\nA %+v\nB %+v", label, sa, sb)
	}
	if fa, fb := cA.mem.FreeAt(), cB.mem.FreeAt(); fa != fb {
		t.Fatalf("%s: DRAM channel state diverges: %d vs %d", label, fa, fb)
	}

	type scalars struct {
		paths                    [block.NumPathTypes]uint64
		blocksRead, blocksWrit   uint64
		stashHits, sstash, top   uint64
		posPaths, plbHit, plbMis uint64
		bgEv, bgEvCycles, dummy  uint64
		dwbConv, dwbDone, dwbAb  uint64
		served, cswitches        uint64
		readCyc, writeCyc        uint64
	}
	grab := func(c *Controller) scalars {
		return scalars{
			paths:      c.st.Paths.Paths,
			blocksRead: c.st.Paths.BlocksRead, blocksWrit: c.st.Paths.BlocksWrit,
			stashHits: c.st.StashHits, sstash: c.st.SStashHits, top: c.st.TopHits,
			posPaths: c.st.PosMapPaths, plbHit: c.st.PLBHits, plbMis: c.st.PLBMisses,
			bgEv: c.st.BgEvictions, bgEvCycles: c.st.BgEvictionCycles, dummy: c.st.DummyPaths,
			dwbConv: c.st.DWBConverted, dwbDone: c.st.DWBCompleted, dwbAb: c.st.DWBAborted,
			served: c.st.ServedRequests, cswitches: c.st.ContextSwitches,
			readCyc: c.st.PhaseReadCycles, writeCyc: c.st.PhaseWriteBackCycles,
		}
	}
	if ga, gb := grab(cA), grab(cB); ga != gb {
		t.Fatalf("%s: controller stats diverge:\nA %+v\nB %+v", label, ga, gb)
	}
	compareHist := func(name string, a, b []uint64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s diverges at level %d: %d vs %d", label, name, i, a[i], b[i])
			}
		}
	}
	compareHist("HitLevels", cA.st.HitLevels.Counts, cB.st.HitLevels.Counts)
	compareHist("MigrationFetched", cA.st.MigrationFetched.Counts, cB.st.MigrationFetched.Counts)
	compareHist("MigrationPreexisting", cA.st.MigrationPreexisting.Counts, cB.st.MigrationPreexisting.Counts)

	var entA, entB []tree.Entry
	cA.fstash.Each(func(e tree.Entry) { entA = append(entA, e) })
	cB.fstash.Each(func(e tree.Entry) { entB = append(entB, e) })
	if len(entA) != len(entB) {
		t.Fatalf("%s: stash length %d vs %d", label, len(entA), len(entB))
	}
	for i := range entA {
		if entA[i] != entB[i] {
			t.Fatalf("%s: stash storage order diverges at %d: %+v vs %+v", label, i, entA[i], entB[i])
		}
	}
	for l := 0; l < cA.o.Levels; l++ {
		if oa, ob := cA.tr.OccupiedAt(l), cB.tr.OccupiedAt(l); oa != ob {
			t.Fatalf("%s: tree level %d occupancy %d vs %d", label, l, oa, ob)
		}
	}
	if cA.rho != nil {
		if cA.rho.paths != cB.rho.paths {
			t.Fatalf("%s: rho small paths %d vs %d", label, cA.rho.paths, cB.rho.paths)
		}
		if oa, ob := cA.rho.occupied(), cB.rho.occupied(); oa != ob {
			t.Fatalf("%s: rho occupancy %d vs %d", label, oa, ob)
		}
	}
	if err := cA.CheckInvariants(); err != nil {
		t.Fatalf("%s: fused invariants: %v", label, err)
	}
	if err := cB.CheckInvariants(); err != nil {
		t.Fatalf("%s: reference invariants: %v", label, err)
	}
}

// TestFusedPipelineMatchesReference pins the fused single-walk pipeline
// (memoized run-list DRAM phases + one gather walk) against the
// multi-walk, per-address reference (refPipeline) across every
// scheme: identical completion times for every request, identical
// statistics, DRAM state, stash storage order and tree occupancy. The
// fused side must also serve repeat leaves from its schedule cache, so the
// comparison exercises the memoized run lists.
func TestFusedPipelineMatchesReference(t *testing.T) {
	schemes := append(config.AllSchemes(),
		config.Scheme{Name: "TopNone", Top: config.TopNone},
		config.RingScheme(),
	)
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			isA, cA := pipelineSystem(t, sch, false)
			isB, cB := pipelineSystem(t, sch, true)
			comparePipelines(t, "fused-vs-reference", isA, isB, cA, cB)
			// Ring's reverse-lexicographic eviction paths, its only
			// pathAccess callers, never repeat a leaf within the workload.
			if cA.ring == nil && cA.sched.Hits == 0 {
				t.Error("schedule cache never hit during the workload")
			}
		})
	}
}

// TestFusedPipelineSchedCacheNeutral pins the schedule-cache size as
// timing-neutral: a fused pipeline whose caches hold a single slot (so
// nearly every path rebuilds its address list and run list) must match
// the full-size default exactly, and the default must hit its cache far
// more often than the single-slot one does.
func TestFusedPipelineSchedCacheNeutral(t *testing.T) {
	for _, sch := range []config.Scheme{config.Baseline(), config.RhoScheme()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			isA, cA := pipelineSystem(t, sch, false)
			isB, cB := pipelineSystem(t, sch, false)
			cB.sched = cB.mem.NewPathSched(1, cB.nPathBlocks, 0)
			if cB.rho != nil {
				cB.rho.sched = cB.mem.NewPathSched(1, cB.rho.nPathBlocks, cB.rho.physOff)
			}
			comparePipelines(t, "sched-vs-oneslot", isA, isB, cA, cB)
			if cA.sched.Hits <= cB.sched.Hits {
				t.Errorf("schedule cache hits: default %d, single slot %d; want default > single slot",
					cA.sched.Hits, cB.sched.Hits)
			}
			if cA.rho != nil && cA.rho.sched.Hits <= cB.rho.sched.Hits {
				t.Errorf("small-tree schedule cache hits: default %d, single slot %d; want default > single slot",
					cA.rho.sched.Hits, cB.rho.sched.Hits)
			}
		})
	}
}
