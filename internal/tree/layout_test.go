package tree

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
)

func TestPathPhysCountMatchesProfile(t *testing.T) {
	for _, sys := range []config.System{config.Tiny(), config.Scaled()} {
		o := sys.ORAM
		for _, prof := range []config.ZProfile{
			config.Uniform(o.Levels, 4),
			config.IROramProfile(o.Levels, o.TopLevels),
			config.Alloc4Profile(o.Levels, o.TopLevels),
		} {
			o.Z = prof
			ly := NewLayout(o, o.TopLevels, 128)
			got := ly.PathPhys(0, nil)
			want := prof.BlocksPerPath(o.TopLevels)
			if len(got) != want {
				t.Errorf("L=%d: path has %d phys blocks, want %d", o.Levels, len(got), want)
			}
		}
	}
}

func TestPhysAddressesUniquePerPath(t *testing.T) {
	o := config.Tiny().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	for leaf := block.Leaf(0); leaf < 8; leaf++ {
		addrs := ly.PathPhys(leaf, nil)
		seen := map[uint64]bool{}
		for _, a := range addrs {
			if seen[a] {
				t.Fatalf("leaf %d: duplicate phys addr %d", leaf, a)
			}
			seen[a] = true
		}
	}
}

func TestDistinctBucketsDistinctPhys(t *testing.T) {
	// Leaf-level buckets of different leaves must not collide physically.
	o := config.Tiny().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	seen := map[uint64]block.Leaf{}
	for leaf := block.Leaf(0); leaf < block.Leaf(o.LeafCount()); leaf++ {
		base, z := ly.BucketPhys(o.Levels-1, leaf)
		for j := uint64(0); j < uint64(z); j++ {
			if prev, dup := seen[base+j]; dup {
				t.Fatalf("phys %d shared by leaves %d and %d", base+j, prev, leaf)
			}
			seen[base+j] = leaf
		}
	}
}

func TestSharedBucketsSharePhys(t *testing.T) {
	// Two leaves in the same half of the tree share every bucket above
	// their divergence point; physical addresses must agree there.
	o := config.Tiny().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	a, b := block.Leaf(0), block.Leaf(1)
	for l := o.TopLevels; l < o.Levels-1; l++ {
		if !SameSubtree(a, b, l, o.Levels) {
			continue
		}
		ba, _ := ly.BucketPhys(l, a)
		bb, _ := ly.BucketPhys(l, b)
		if ba != bb {
			t.Errorf("level %d: shared bucket at different phys %d vs %d", l, ba, bb)
		}
	}
}

func TestRowLocality(t *testing.T) {
	// A path's accesses must touch about one row per chunk, the whole point
	// of the subtree layout.
	o := config.Scaled().ORAM
	const rowBlocks = 128
	ly := NewLayout(o, o.TopLevels, rowBlocks)
	addrs := ly.PathPhys(12345, nil)
	rows := map[uint64]bool{}
	for _, a := range addrs {
		rows[a/rowBlocks] = true
	}
	if len(rows) > len(ly.chunks)+1 {
		t.Errorf("path touches %d rows for %d chunks", len(rows), len(ly.chunks))
	}
	if len(ly.chunks) > 4 {
		t.Errorf("scaled geometry should need <= 4 chunks, got %d", len(ly.chunks))
	}
}

func TestSubtreeRowAlignment(t *testing.T) {
	// Subtrees are padded so they never straddle a row boundary: either the
	// row size is a multiple of the subtree stride, or vice versa.
	o := config.Scaled().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	for i := range ly.chunks {
		c := ly.chunks[i]
		if 128%c.padded != 0 && c.padded%128 != 0 {
			t.Errorf("chunk %d stride %d straddles 128-block rows", i, c.padded)
		}
	}
}

func TestPhysicalSlotsCoverAllBuckets(t *testing.T) {
	o := config.Tiny().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	max := uint64(0)
	for leaf := block.Leaf(0); leaf < block.Leaf(o.LeafCount()); leaf += 7 {
		for _, a := range ly.PathPhys(leaf, nil) {
			if a > max {
				max = a
			}
		}
	}
	if max >= ly.PhysicalSlots() {
		t.Errorf("phys addr %d outside space %d", max, ly.PhysicalSlots())
	}
}

func TestChunkOfPanicsOutsideRange(t *testing.T) {
	o := config.Tiny().ORAM
	ly := NewLayout(o, o.TopLevels, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ly.BucketPhys(0, 0) // level 0 is on-chip, not in layout
}

func TestIRAllocShrinksPathNotFootprint(t *testing.T) {
	// IR-Alloc must shorten every path (the bandwidth win) without growing
	// the physical footprint; the <1% logical space claim is covered by the
	// config package's SpaceReductionVs tests.
	o := config.Scaled().ORAM
	base := NewLayout(o, o.TopLevels, 128)
	o2 := o
	o2.Z = config.IROramProfile(o.Levels, o.TopLevels)
	alloc := NewLayout(o2, o.TopLevels, 128)
	if alloc.PhysicalSlots() > base.PhysicalSlots() {
		t.Errorf("IR-Alloc layout %d slots exceeds baseline %d",
			alloc.PhysicalSlots(), base.PhysicalSlots())
	}
	if got, want := len(alloc.PathPhys(0, nil)), len(base.PathPhys(0, nil)); got >= want {
		t.Errorf("IR-Alloc path %d blocks, baseline %d", got, want)
	}
}
