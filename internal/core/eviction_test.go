package core

import (
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// shadowTree snapshots c's main tree for an eviction oracle: the F-Stash
// cloned in storage order, and fresh, empty tree/top structures standing in
// for the just-drained path buckets.
func shadowTree(c *Controller) *pathTree {
	s := &pathTree{o: c.o, minLevel: c.minLevel, tr: tree.New(c.o, c.minLevel),
		fstash: stash.NewFStash(c.fstash.Capacity())}
	c.fstash.Each(func(e tree.Entry) { s.fstash.Insert(e) })
	if c.top != nil {
		s.top = stash.NewTopCache(c.o.Levels, c.o.TopLevels, c.o.Z)
	}
	return s
}

// evictOntoPathReference is the per-level rescan write phase that
// evictOntoPath replaced, kept as the oracle of the eviction differentials:
// for each level, leaf-to-root, rescan the whole stash for blocks placeable
// in that level's bucket (TakeForBucket), then fill the on-chip segment one
// block at a time, re-stashing refused blocks. refused and takeBuf are
// caller-owned scratch (refused is reset per level, preserving the
// retry-at-shallower-levels semantics). onPlace, when non-nil, observes
// every placement. Callers pre-Insert the path's blocks into the stash, so
// no entry is ever flagged.
func evictOntoPathReference(t *pathTree, leaf block.Leaf,
	refused *epochSet, takeBuf []tree.Entry, onPlace func(e tree.Entry, level int)) {

	fs, tr, top, z, minLevel, levels := t.fstash, t.tr, t.top, t.o.Z, t.minLevel, t.o.Levels

	for l := levels - 1; l >= minLevel; l-- {
		take := fs.TakeForBucket(leaf, l, levels, z[l], nil, takeBuf[:0])
		if onPlace != nil {
			for _, e := range take {
				onPlace(e, l)
			}
		}
		tr.FillBucket(l, leaf, take)
	}
	if top == nil {
		return
	}
	for l := minLevel - 1; l >= 0; l-- {
		refused.Reset()
		for placed := 0; placed < z[l]; {
			cand := fs.TakeForBucket(leaf, l, levels, 1,
				func(e tree.Entry) bool { return !refused.Has(e.Addr) }, takeBuf[:0])
			if len(cand) == 0 {
				break
			}
			e := cand[0]
			if top.Fill(l, leaf, e) {
				if onPlace != nil {
					onPlace(e, l)
				}
				placed++
			} else {
				refused.Add(e.Addr)
				fs.Insert(e)
			}
		}
	}
}

// drainPlaced destructively reads the path of leaf out of p after a write
// phase and returns how many blocks it holds at each level and how many of
// those are in fetched. It fails on any stored entry that still carries
// tree.GatherFlag or sits at a level its leaf does not share with the path.
func drainPlaced(t *testing.T, p *pathTree, leaf block.Leaf,
	fetched map[block.ID]bool) (placed, fromPath []int) {
	t.Helper()
	placed, fromPath = make([]int, p.o.Levels), make([]int, p.o.Levels)
	visit := func(e tree.Entry, l int) {
		if e.Leaf&tree.GatherFlag != 0 {
			t.Fatalf("%v stored at level %d still flagged", e.Addr, l)
		}
		if !tree.SameSubtree(leaf, e.Leaf, l, p.o.Levels) {
			t.Fatalf("illegal placement of %v (leaf %d) at level %d of path %d", e.Addr, e.Leaf, l, leaf)
		}
		placed[l]++
		if fetched[e.Addr] {
			fromPath[l]++
		}
	}
	p.tr.ReadPathEach(leaf, visit)
	if p.top != nil {
		p.top.ReadPathEach(leaf, visit)
	}
	return placed, fromPath
}

// TestEvictionDifferential replays every write phase of a long randomized
// workload through both eviction implementations and checks that they agree
// on the one property the experiments depend on: how MANY blocks land at
// each level of the path (both are maximal greedy deepest-first evictions,
// so per-level placement counts are uniquely determined by the stash
// contents even though block SELECTION may differ — see eviction.go).
//
// The reference runs on shadow state snapshotted just before the write
// phase: the F-Stash cloned in storage order (iteration order is part of
// both algorithms' contract) and fresh, empty tree/top structures standing
// in for the just-drained path buckets. That keeps the oracle exact for
// TopNone and the dedicated top cache; IR-Stash is excluded because its
// S-Stash refusals depend on global set occupancy that a fresh shadow
// cannot reproduce. A second shadow replays the single pass itself, and
// reading its path back checks every placement's legality and the live
// call's per-level tally.
func TestEvictionDifferential(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(),
		{Name: "NoTop", Top: config.TopNone},
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			is := NewIssuer(c, nil)
			r := rng.New(12)
			nd := cfg.ORAM.DataBlocks()

			live := newPlaceCounts(c.o.Levels)
			refCounts := make([]int, c.o.Levels)
			refused := newEpochSet(int(c.pm.Total()))
			takeBuf := make([]tree.Entry, 0, 64)
			var replayBuf []tree.Entry
			stashIt := func(e tree.Entry, _ int) { c.fstash.Insert(e) }
			now := uint64(0)

			const accesses = 2500
			for i := 0; i < accesses; i++ {
				// Real demand access for churn: remaps keep the stash and
				// the per-level candidate structure non-trivial.
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))

				// One manual path access with the write phase run through
				// both implementations (protocol-wise a background
				// eviction: random leaf, no target).
				leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
				c.tr.ReadPathEach(leaf, stashIt)
				if c.top != nil {
					c.top.ReadPathEach(leaf, stashIt)
				}

				// Snapshots for the oracle and the replay, preserving
				// storage order.
				shadow := shadowTree(c)
				replay := shadowTree(c)

				live.reset()
				clear(refCounts)
				c.evictBuf = evictOntoPath(&c.pathTree, leaf, nil, c.evictList, c.evictBuf, live)
				evictOntoPathReference(shadow, leaf, refused, takeBuf,
					func(_ tree.Entry, l int) { refCounts[l]++ })
				replayBuf = evictOntoPath(replay, leaf, nil, c.evictList, replayBuf, nil)
				if stored, _ := drainPlaced(t, replay, leaf, nil); !slices.Equal(stored, live.placed) {
					t.Fatalf("access %d leaf %d: tally %v, stored %v", i, leaf, live.placed, stored)
				}

				for l := range live.placed {
					if live.placed[l] != refCounts[l] {
						t.Fatalf("access %d leaf %d: placement counts diverge at level %d: single-pass %v, reference %v",
							i, leaf, l, live.placed, refCounts)
					}
					if live.placed[l] > c.o.Z[l] {
						t.Fatalf("access %d: %d placements at level %d exceed Z=%d",
							i, live.placed[l], l, c.o.Z[l])
					}
				}
				if got, want := c.fstash.Len(), shadow.fstash.Len(); got != want {
					t.Fatalf("access %d: stash residue diverges: single-pass %d, reference %d", i, got, want)
				}
				c.mem.PostWritePath(now, c.layout.PathPhys(leaf, c.physBuf[:0]))

				if i%500 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEvictionGatherFlagDifferential exercises the fused pipeline's calling
// convention: the path's just-read blocks arrive as GatherFlag-marked
// gathered entries (never touching the stash index), while the reference
// oracle gets the same blocks pre-Inserted unflagged — the historical
// shape. Beyond the placement-count and stash-residue parity of
// TestEvictionDifferential, it pins the provenance plumbing itself. The
// live call tallies into placeCounts, the demand pipeline's shape. Two
// replays of the same inputs on shadow state, one with a tally and one
// without (ρ's small tree's shape), are read back: every stored entry must
// be unflagged, and the stored per-level counts, split by gathered-set
// membership, must equal the live placed/fetched tallies. No flag may
// survive into a stash residue either (a leaked bit would corrupt the next
// access's leaf arithmetic).
func TestEvictionGatherFlagDifferential(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(),
		{Name: "NoTop", Top: config.TopNone},
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			is := NewIssuer(c, nil)
			r := rng.New(22)
			nd := cfg.ORAM.DataBlocks()

			live := newPlaceCounts(c.o.Levels)
			refCounts := make([]int, c.o.Levels)
			refused := newEpochSet(int(c.pm.Total()))
			takeBuf := make([]tree.Entry, 0, 64)
			gatheredSet := make(map[block.ID]bool)
			bulk := newPlaceCounts(c.o.Levels)
			var gathered2, replayBuf []tree.Entry
			now := uint64(0)

			const accesses = 2000
			for i := 0; i < accesses; i++ {
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))

				// Gather the path the fused way: blocks staged (flagged)
				// instead of stash-inserted.
				leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
				c.gathered = c.gathered[:0]
				clear(gatheredSet)
				gather := func(e tree.Entry, _ int) {
					gatheredSet[e.Addr] = true
					e.Leaf |= tree.GatherFlag
					c.gathered = append(c.gathered, e)
				}
				c.tr.ReadPathEach(leaf, gather)
				if c.top != nil {
					c.top.ReadPathEach(leaf, gather)
				}

				// Oracle state: the resident stash in storage order, then the
				// gathered blocks appended unflagged — the pre-fused shape.
				shadow := shadowTree(c)
				for _, e := range c.gathered {
					e.Leaf &^= tree.GatherFlag
					shadow.fstash.Insert(e)
				}

				// Replay states: the same inputs the live call is about to
				// consume (resident stash clone in storage order, freshly
				// drained path buckets), snapshotted before the live call
				// mutates them.
				replays := []*pathTree{shadowTree(c), shadowTree(c)}

				live.reset()
				clear(refCounts)
				gathered2 = append(gathered2[:0], c.gathered...)
				c.evictBuf = evictOntoPath(&c.pathTree, leaf, c.gathered, c.evictList, c.evictBuf, live)

				// Block selection is deterministic in the inputs, so each
				// replay stores exactly the live call's placements.
				for k, tally := range []*placeCounts{bulk, nil} {
					p := replays[k]
					if tally != nil {
						tally.reset()
					}
					flagged := append([]tree.Entry(nil), gathered2...)
					replayBuf = evictOntoPath(p, leaf, flagged, c.evictList, replayBuf, tally)
					placed, fetched := drainPlaced(t, p, leaf, gatheredSet)
					if !slices.Equal(placed, live.placed) || !slices.Equal(fetched, live.fetched) {
						t.Fatalf("access %d replay %d: stored (placed %v, fetched %v), live tally (placed %v, fetched %v)",
							i, k, placed, fetched, live.placed, live.fetched)
					}
					if tally != nil && (!slices.Equal(tally.placed, placed) || !slices.Equal(tally.fetched, fetched)) {
						t.Fatalf("access %d: replay tally (placed %v, fetched %v), stored (placed %v, fetched %v)",
							i, tally.placed, tally.fetched, placed, fetched)
					}
					if got, want := p.fstash.Len(), c.fstash.Len(); got != want {
						t.Fatalf("access %d replay %d: stash residue %d, live %d", i, k, got, want)
					}
					p.fstash.Each(func(e tree.Entry) {
						if e.Leaf&tree.GatherFlag != 0 {
							t.Fatalf("access %d replay %d: flag leaked into stash residue on %v", i, k, e.Addr)
						}
					})
				}
				evictOntoPathReference(shadow, leaf, refused, takeBuf,
					func(_ tree.Entry, l int) { refCounts[l]++ })

				if !slices.Equal(live.placed, refCounts) {
					t.Fatalf("access %d leaf %d: placement counts diverge: fused %v, reference %v",
						i, leaf, live.placed, refCounts)
				}
				if got, want := c.fstash.Len(), shadow.fstash.Len(); got != want {
					t.Fatalf("access %d: stash residue diverges: fused %d, reference %d", i, got, want)
				}
				c.fstash.Each(func(e tree.Entry) {
					if e.Leaf&tree.GatherFlag != 0 {
						t.Fatalf("access %d: flag leaked into stash residue on %v", i, e.Addr)
					}
				})
				c.mem.PostWritePath(now, c.layout.PathPhys(leaf, c.physBuf[:0]))

				if i%500 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPathAccessZeroAllocs pins the zero-allocation guarantee: after
// warm-up, a steady-state demand access (including its PosMap recursion,
// eviction and DRAM traffic) performs no heap allocations (`make
// alloccheck`). Rho covers the small tree's path accesses, Ring its
// one-block-per-bucket reads and eviction paths.
func TestPathAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	for _, sch := range []config.Scheme{config.Baseline(), config.IROramScheme(),
		config.RhoScheme(), config.RingScheme()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			is := NewIssuer(c, nil)
			r := rng.New(2)
			nd := cfg.ORAM.DataBlocks()
			now := uint64(0)
			// Warm up: let scratch buffers, the stash index and the posted
			// write queue reach steady-state capacity.
			for i := 0; i < 4000; i++ {
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
			}
			avg := testing.AllocsPerRun(400, func() {
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
			})
			if avg != 0 {
				t.Errorf("steady-state ReadBlock allocates %.2f times per access, want 0", avg)
			}
		})
	}
}
