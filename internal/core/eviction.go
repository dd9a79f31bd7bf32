package core

import (
	"iroram/internal/block"
	"iroram/internal/tree"
)

// This file implements the write phase of a path access — draining the
// F-Stash into the just-read path, deepest bucket first.
//
// evictOntoPath is the single-pass formulation of the original Path ORAM
// paper (Stefanov et al.): one walk over the stash classifies every entry
// by its deepest placeable level on the current path (tree.DeepestLevel, a
// leaf-XOR + leading-zero count), then buckets are filled deepest-first
// from the per-level lists, with entries that did not fit spilling toward
// the root. Cost is O(stash + path). The O(levels × stash) per-level rescan
// it replaced (stash.FStash.TakeForBucket) lives on in eviction_test.go as
// evictOntoPathReference, the oracle of the eviction differentials.
//
// The two place the same NUMBER of blocks at every level of the path (both
// are maximal greedy deepest-first evictions; see TestEvictionDifferential)
// but may pick DIFFERENT blocks when more candidates fit a level than the
// bucket holds: the rescan picks by stash storage order, the single pass
// deepest-candidates-first. Both orders are deterministic, so tables stay
// byte-identical across runs and -jobs values.

// evictOntoPath drains t's stash onto the path of leaf: memory-resident
// levels [t.minLevel, levels) are bulk-filled into t.tr, and — when t.top
// is non-nil — the on-chip levels [0, minLevel) are filled per-entry
// through t.top.Fill, honoring its refusals (S-Stash set conflicts, the
// paper's "skip picking this block for this round" rule); refused blocks
// stay candidates for shallower levels, exactly like the reference scan.
// Entries that fit nowhere return to the stash.
//
// placeCounts receives the aggregate placement tally of one write phase:
// placed[l] blocks landed at level l, fetched[l] of which were gathered by
// the current access (carried tree.GatherFlag) — the Fig 4/5 migration
// split, tallied per fill rather than per block on the hottest loop in the
// simulator. Slices must hold `levels` elements; evictOntoPath adds to them
// without clearing.
type placeCounts struct {
	placed  []int
	fetched []int
}

func newPlaceCounts(levels int) *placeCounts {
	return &placeCounts{placed: make([]int, levels), fetched: make([]int, levels)}
}

func (p *placeCounts) reset() {
	clear(p.placed)
	clear(p.fetched)
}

// lists (at least `levels` slices) and buf are caller-owned scratch reused
// across paths. tree.GatherFlag on gathered entries' leaves is stripped
// here before any entry reaches storage; counts, when non-nil, receives the
// per-level placement tally. The returned slice is buf's (possibly grown)
// backing for the caller to keep.
func evictOntoPath(t *pathTree, leaf block.Leaf,
	gathered []tree.Entry, lists [][]tree.Entry, buf []tree.Entry,
	counts *placeCounts) []tree.Entry {

	tr, top, z, minLevel, levels := t.tr, t.top, t.o.Z, t.minLevel, t.o.Levels
	for l := 0; l < levels; l++ {
		lists[l] = lists[l][:0]
	}
	// gathered holds the blocks the fused read walk just pulled off the
	// path, kept out of the stash index because this drain would remove
	// them again immediately; DrainForPath classifies them and the resident
	// entries in the exact order Insert-then-drain would have. Every tree
	// has a top store or minLevel 0, so the drain takes the whole stash.
	t.fstash.DrainForPath(leaf, levels, lists, gathered)

	// The candidate pool for the current level is the entries whose deepest
	// placeable level was at or below it but which did not fit deeper. Pool
	// order is deterministic — deeper-classified entries first — and the
	// pool is consumed as a virtual FIFO straight out of the per-level
	// lists (cur/off mark the first unconsumed entry; lists[l] joins the
	// pool when the walk reaches level l), so the memory-resident fill
	// copies nothing. The fill cap of a level is its bucket's full capacity
	// z[l]: every caller runs the write phase immediately after the read
	// phase drained each bucket on the path, so all slots are free — no
	// occupancy query needed, and FillBucket still panics if the
	// precondition is ever violated. A take that straddles a list boundary
	// becomes consecutive FillBucket calls, which claim free slots in
	// exactly the order one call would.
	cur, off := levels-1, 0
	for l := levels - 1; l >= minLevel; l-- {
		for n := z[l]; n > 0; {
			if off == len(lists[cur]) {
				if cur == l {
					break
				}
				cur--
				off = 0
				continue
			}
			take := lists[cur][off:]
			if len(take) > n {
				take = take[:n]
			}
			if counts != nil {
				f := 0
				for i := range take {
					if take[i].Leaf&tree.GatherFlag != 0 {
						f++
					}
					take[i].Leaf &^= tree.GatherFlag
				}
				counts.placed[l] += len(take)
				counts.fetched[l] += f
			} else {
				for i := range take {
					take[i].Leaf &^= tree.GatherFlag
				}
			}
			tr.FillBucket(l, leaf, take)
			off += len(take)
			n -= len(take)
		}
	}
	// Materialize the (typically small) leftover pool: spillover plus the
	// on-chip classified entries, in the virtual pool's order.
	buf = buf[:0]
	buf = append(buf, lists[cur][off:]...)
	for ll := cur - 1; ll >= minLevel; ll-- {
		buf = append(buf, lists[ll]...)
	}
	if top != nil {
		for l := minLevel - 1; l >= 0; l-- {
			buf = append(buf, lists[l]...)
			placed, w := 0, 0
			for r := 0; r < len(buf); r++ {
				e := buf[r]
				fetched := e.Leaf&tree.GatherFlag != 0
				e.Leaf &^= tree.GatherFlag
				if placed < z[l] && top.Fill(l, leaf, e) {
					if counts != nil {
						counts.placed[l]++
						if fetched {
							counts.fetched[l]++
						}
					}
					placed++
					continue
				}
				buf[w] = buf[r] // refused: keep the flag for shallower levels
				w++
			}
			buf = buf[:w]
		}
	}
	for _, e := range buf {
		e.Leaf &^= tree.GatherFlag
		t.fstash.Insert(e)
	}
	return buf[:0]
}
