package core

import (
	"iroram/internal/block"
	"iroram/internal/dram"
	"iroram/internal/tree"
)

// This file retains the pre-fusion, multi-walk shape of the path access as
// a reference implementation, the same discipline as
// evictOntoPathReference: the production pipeline (pathAccess) does the
// read-gather, stash insert, target extraction and writeback posting in a
// single walk over the path serviced from memoized run lists; the
// reference rebuilds the physical address list every time, services it
// per-address through the dram oracle (ServiceBatch/PostWrites), resolves
// the target's level with a separate tree.Find walk, and stages the read
// phase through readBuf before scanning it. Both must produce identical
// timing, statistics, stash order and tree state for every access;
// TestFusedPipelineMatchesReference drives whole workloads through each
// and compares. Controller.refPipeline routes pathAccess here.

// pathAccessReference is the multi-walk path access, on either tree.
func (c *Controller) pathAccessReference(t *pathTree, now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	foundLevel = -1
	if lvl, ok := t.tr.Find(target, leaf); ok {
		foundLevel = lvl
	}

	// Read phase, per-address: rebuild the []dram.Access batch the way the
	// pre-PR3 controller did and service it through the dram oracle.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	c.accBuf = c.accBuf[:0]
	for _, a := range c.physBuf {
		c.accBuf = append(c.accBuf, dram.Access{Addr: a + t.physOff})
	}
	readDone := c.mem.ServiceBatch(now, c.accBuf)
	c.st.PhaseReadCycles += readDone - now

	c.fetched.Reset()
	c.readBuf = t.tr.ReadPath(leaf, c.readBuf[:0])
	if t.top != nil {
		c.readBuf = t.top.ReadPath(leaf, c.readBuf)
	}
	for _, e := range c.readBuf {
		if t.mig != nil {
			c.fetched.Add(e.Addr)
		}
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
	var onPlace func(tree.Entry, int, bool)
	if t.mig != nil {
		onPlace = c.placeMainRef
	}
	c.evictBuf = evictOntoPath(t, leaf, nil, c.evictList, c.evictBuf, onPlace, nil)

	c.accBuf = c.accBuf[:0]
	for _, a := range c.physBuf {
		c.accBuf = append(c.accBuf, dram.Access{Addr: a + t.physOff, Write: true})
	}
	writeDone := c.mem.PostWrites(readDone, c.accBuf)
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
