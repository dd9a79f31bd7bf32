package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// evictOp returns one op of the write-phase microbenchmark: a full stash
// round-trip without DRAM timing — read a random path's blocks into the
// stash, then drain them back with the single-pass deepest-first eviction.
// That isolates the stash index and the per-level candidate lists from
// memory-model arithmetic.
func evictOp(tb testing.TB) func() {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	// Warm up through the issuer so the stash, tree and scratch buffers
	// reach their steady-state shape.
	is := NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	}
	stashIt := func(e tree.Entry, _ int) { c.fstash.Insert(e) }
	return func() {
		leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
		c.tr.ReadPathEach(leaf, stashIt)
		if c.top != nil {
			c.top.ReadPathEach(leaf, stashIt)
		}
		c.evictBuf = evictOntoPath(&c.pathTree, leaf, nil, c.evictList, c.evictBuf, nil)
	}
}

func BenchmarkEvict(b *testing.B) {
	op := evictOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestEvictZeroAllocs gates the steady-state write phase at 0 allocs/op
// (`make alloccheck`).
func TestEvictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(400, evictOp(t)); avg != 0 {
		t.Errorf("evict round-trip allocates %.2f times per op, want 0", avg)
	}
}
