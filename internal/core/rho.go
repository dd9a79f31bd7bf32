package core

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// rhoState implements a faithful simplification of ρ (Nagarajan et al.,
// "Relaxed Hierarchical ORAM"), the state-of-the-art baseline of Fig 10:
//
//   - a second, smaller ORAM tree (Levels - RhoLevelsDelta levels, Z=RhoZ)
//     holds recently-used blocks, so the common case moves far fewer blocks
//     per path than the main tree;
//   - which tree holds a block is recorded alongside its leaf in the (same)
//     position map, so lookup cost rides the normal PLB/PTp machinery — the
//     member map below is simulation bookkeeping of that field, not an
//     extra on-chip structure;
//   - to defeat timing channels with two path lengths, accesses follow a
//     fixed issue pattern (1 main-tree slot per RhoPattern small-tree
//     slots) with per-slot dummies — the mechanism that hurts mcf in the
//     paper;
//   - small-tree residency is bounded; overflow victims are demoted to the
//     main tree lazily through the posted-write machinery (the paper's
//     delayed remapping, which is where LLC-D comes from).
//
// Simplifications vs the full design are documented in DESIGN.md.
type rhoState struct {
	o       config.ORAM
	tr      *tree.Tree
	layout  *tree.Layout
	top     *stash.TopCache
	physOff uint64
	fstash  *stash.FStash
	// member records which blocks live in the small tree and under which
	// leaf — the simulation bookkeeping of the position-map residency bit.
	// It is consulted on every request (NextStepKind), so it uses the same
	// open-addressed table as the stash index; it is never iterated, so the
	// swap cannot perturb ordering. Values are the leaves, stored as the
	// table's uint32 payload.
	member  *stash.AddrTable
	order   []block.ID // FIFO for demotion
	limit   int
	demoteQ []block.ID

	// sched memoizes the small tree's per-leaf DRAM run lists; nPathBlocks
	// is its fixed per-path block count.
	sched       *dram.PathSched
	nPathBlocks int

	// Paths counts small-tree path accesses for the experiment harness.
	SmallPaths uint64
}

func (c *Controller) initRho() error {
	s := c.cfg.Scheme
	levels := c.o.Levels - s.RhoLevelsDelta
	if levels < 3 {
		return fmt.Errorf("core: rho tree would have %d levels", levels)
	}
	small := c.o
	small.Levels = levels
	// The ρ design keeps the small tree's top on-chip too; cap it so at
	// least four levels stay in memory.
	small.TopLevels = c.o.TopLevels
	if small.TopLevels > levels-4 {
		small.TopLevels = levels - 4
	}
	if small.TopLevels < 0 {
		small.TopLevels = 0
	}
	small.Z = config.Uniform(levels, s.RhoZ)
	slots := small.Z.Slots()
	c.rho = &rhoState{
		o:      small,
		tr:     tree.New(small, small.TopLevels),
		layout: tree.NewLayout(small, small.TopLevels, int(c.mem.RowBlocks())),
		fstash: stash.NewFStash(c.o.StashCapacity),
		member: stash.NewAddrTable(int(slots / 2)),
		limit:  int(slots / 2),
	}
	if small.TopLevels > 0 {
		c.rho.top = stash.NewTopCache(levels, small.TopLevels, small.Z)
	}
	// The small tree shares the DRAM with the main tree, laid out after it.
	c.rho.physOff = tree.NewLayout(c.o, c.minLevel, int(c.mem.RowBlocks())).PhysicalSlots()
	c.rho.nPathBlocks = small.Z.BlocksPerPath(small.TopLevels)
	c.rho.sched = newPathSched(c.mem, small.LeafCount(), c.rho.nPathBlocks, c.rho.physOff)
	return nil
}

func (r *rhoState) occupied() uint64 {
	n := r.tr.Occupied() + uint64(r.fstash.Len())
	if r.top != nil {
		n += uint64(r.top.Len())
	}
	return n
}

func (r *rhoState) randomLeaf(c *Controller) block.Leaf {
	return block.Leaf(c.rng.Uint64n(r.o.LeafCount()))
}

// rhoPathAccess is the small-tree path primitive, mirroring pathAccess:
// the same fused single-walk pipeline (memoized run-list read phase, one
// gather walk into the small stash, eviction walk, posted run-list write
// phase), with rhoPathAccessReference retaining the multi-walk shape.
func (c *Controller) rhoPathAccess(now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, done uint64) {
	if c.refPipeline {
		return c.rhoPathAccessReference(now, leaf, target, ptype)
	}
	// Small-tree accesses fill issue slots like main-tree ones, so they
	// sample the flight recorder identically (see Controller.AttachFlight).
	c.fl.SampleAccess()
	r := c.rho
	runs := c.rhoPathRuns(leaf)
	readDone := c.mem.ServiceRuns(now, runs, false)
	c.st.PhaseReadCycles += readDone - now

	c.gathered = c.gathered[:0]
	c.gTarget, c.gFound = target, false
	r.tr.ReadPathEach(leaf, c.gatherRho)
	var top stash.TopStore // keep a nil *TopCache a nil interface
	if r.top != nil {
		top = r.top
		r.top.ReadPathEach(leaf, c.gatherRho)
	}
	found = c.gFound
	// Write phase: the same single-pass eviction as the main tree, reusing
	// the controller's scratch (the two trees never evict concurrently).
	c.evictBuf = evictOntoPath(r.fstash, r.tr, top, r.o.Z, r.o.TopLevels,
		r.o.Levels, leaf, c.gathered, c.evictList, c.evictBuf, nil, nil)

	// As in the main tree, the write phase is posted to DRAM.
	writeDone := c.mem.PostWriteRuns(readDone, runs)
	c.st.PhaseWriteBackCycles += writeDone - readDone
	c.st.Paths.Add(ptype, r.nPathBlocks, r.nPathBlocks)
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	if c.fl.Armed() {
		c.recordPhases(now, readDone, writeDone, done, leaf, ptype)
	}
	r.SmallPaths++
	return found, done
}

// rhoPathRuns is pathRuns for the small tree's schedule cache.
func (c *Controller) rhoPathRuns(leaf block.Leaf) []dram.Run {
	r := c.rho
	if runs, ok := r.sched.Lookup(uint64(leaf)); ok {
		return runs
	}
	c.physBuf = r.layout.PathPhys(leaf, c.physBuf[:0])
	return r.sched.Install(uint64(leaf), c.physBuf)
}

// rhoDataAccess services a demand access for a small-tree resident block:
// one small-tree path access, then remap within the small tree. A hit in
// the small tree's on-chip top is served without a path access, like the
// main tree's dedicated cache.
func (c *Controller) rhoDataAccess(now uint64, a block.ID, write bool) uint64 {
	r := c.rho
	rawLeaf, ok := r.member.Get(a)
	if !ok {
		panic(fmt.Sprintf("core: rhoDataAccess for non-member %v", a))
	}
	leaf := block.Leaf(rawLeaf)
	if r.top != nil {
		if _, hit := r.top.Find(a, leaf); hit {
			c.st.TopHits++
			c.st.ServedRequests++
			return now + c.o.OnChipLatency
		}
	}
	found, done := c.rhoPathAccess(now, leaf, a, block.PathData)
	if !found {
		if _, stashed := r.fstash.Lookup(a); !stashed {
			panic(fmt.Sprintf("core: rho member %v not on small path %d", a, leaf))
		}
	}
	newLeaf := r.randomLeaf(c)
	r.member.Put(a, uint32(newLeaf))
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
	c.st.ServedRequests++
	return done
}

// rhoInstall moves a block just fetched from the main tree into the small
// tree, demoting the oldest resident when over the occupancy bound. The
// block was already extracted from the main tree by the fetching path
// access; its main-tree mapping is discarded until demotion.
func (c *Controller) rhoInstall(a block.ID) {
	r := c.rho
	c.pm.Unmap(a)
	leaf := r.randomLeaf(c)
	r.member.Put(a, uint32(leaf))
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: leaf})
	r.order = append(r.order, a)
	for r.member.Len() > r.limit && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		rawLeaf, ok := r.member.Get(victim)
		if !ok {
			continue // already demoted
		}
		vleaf := block.Leaf(rawLeaf)
		removed := r.fstash.Remove(victim) || r.tr.Remove(victim, vleaf) ||
			(r.top != nil && r.top.Remove(victim, vleaf))
		if !removed {
			panic(fmt.Sprintf("core: rho member %v not in small structures", victim))
		}
		r.member.Delete(victim)
		r.demoteQ = append(r.demoteQ, victim)
	}
}

// rhoBackgroundSlot fills a small-tree pacing slot: background eviction of
// the small stash if pressured, else a small-tree dummy path.
func (c *Controller) rhoBackgroundSlot(now uint64) uint64 {
	r := c.rho
	if r.fstash.Overfull(c.o.StashEvictThreshold) {
		_, done := c.rhoPathAccess(now, r.randomLeaf(c), block.Invalid, block.PathEvict)
		c.st.BgEvictions++
		c.st.BgEvictionCycles += done - now
		return done
	}
	_, done := c.rhoPathAccess(now, r.randomLeaf(c), block.Invalid, block.PathDummy)
	c.st.DummyPaths++
	return done
}

// StepKind classifies which pacing-slot type a job's next path access
// needs under the ρ issue pattern.
type StepKind uint8

const (
	// StepMain needs a main-tree slot (PosMap fetches, main data paths,
	// demotion reinserts).
	StepMain StepKind = iota
	// StepSmall needs a small-tree slot.
	StepSmall
)

// NextStepKind inspects the job's next path access without performing it.
func (c *Controller) NextStepKind(j Job) StepKind {
	if c.rho == nil {
		return StepMain
	}
	// Small-tree membership is on-chip metadata: residents go straight to
	// a small-tree slot; everything else (PosMap fetches, main data paths,
	// demotion reinserts) needs a main-tree slot.
	if _, ok := c.rho.member.Get(j.Addr); ok {
		return StepSmall
	}
	return StepMain
}

// rhoSlotSmall reports whether the current pacing slot belongs to the small
// tree under the fixed 1:RhoPattern issue pattern.
func (is *Issuer) rhoSlotSmall() bool {
	period := uint64(is.c.cfg.Scheme.RhoPattern) + 1
	return is.slotIdx%period != 0
}

// drainDemotions moves pending ρ demotions into the posted-write queue.
func (is *Issuer) drainDemotions() {
	if is.c.rho == nil {
		return
	}
	for _, a := range is.c.rho.demoteQ {
		is.writeQ = append(is.writeQ, Job{Addr: a, Write: true})
	}
	is.c.rho.demoteQ = is.c.rho.demoteQ[:0]
}
