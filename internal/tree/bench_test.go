package tree

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

// walkOp returns one op of the tree-walk microbenchmark: one full path
// round-trip over the memory-resident levels. The occupancy-word walk
// (ReadPathEach) removes every real block on a random path, then
// FillBucket restores each bucket exactly as read, so occupancy is
// identical across ops. That isolates the bitmap engine — set-bit
// iteration, empty-bucket skips, free-mask fills — from stash and DRAM
// costs.
func walkOp() func() {
	o := config.Tiny().ORAM
	minLevel := o.TopLevels
	t := New(o, minLevel)
	r := rng.New(1)
	leaves := o.LeafCount()
	// Steady-state load: place every data block deepest-first along a
	// random path (the controller's initial placement), letting blocks
	// whose path is full fall off — bucket occupancy ends realistically
	// mixed, full near the leaves with slack above.
	for id := uint64(0); id < o.DataBlocks(); id++ {
		t.Place(Entry{Addr: block.ID(id), Leaf: block.Leaf(r.Uint64n(leaves))})
	}
	scratch := make([][]Entry, o.Levels)
	for l := range scratch {
		scratch[l] = make([]Entry, 0, o.Z[l])
	}
	visit := func(e Entry, l int) { scratch[l] = append(scratch[l], e) }
	return func() {
		leaf := block.Leaf(r.Uint64n(leaves))
		t.ReadPathEach(leaf, visit)
		for l := minLevel; l < o.Levels; l++ {
			t.FillBucket(l, leaf, scratch[l])
			scratch[l] = scratch[l][:0]
		}
	}
}

func BenchmarkTreeWalk(b *testing.B) {
	op := walkOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestTreeWalkZeroAllocs gates the path round-trip at 0 allocs/op
// (`make alloccheck`).
func TestTreeWalkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(400, walkOp()); avg != 0 {
		t.Errorf("tree walk allocates %.2f times per op, want 0", avg)
	}
}
