package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// topCacheFindOp returns one op of the tree-top lookup microbenchmark: the
// lookup mix of a demand access — a hit Find, a miss Find, then a
// Remove+Fill churn of the hit block. The churn keeps the lazy address
// index accumulating garbage so its amortized in-place sweeps are inside
// the measurement, and the zero-alloc test proves the index never grows
// in steady state.
func topCacheFindOp(tb testing.TB) func() {
	o := config.Tiny().ORAM
	tc := NewTopCache(o.Levels, o.TopLevels, o.Z)
	r := rng.New(1)
	leaves := o.LeafCount()
	type resident struct {
		addr block.ID
		leaf block.Leaf
	}
	var pairs []resident
	var id block.ID
	// Load the top buckets the way the controller does: deepest level
	// first along random paths. A few thousand attempts leave every bucket
	// at or near capacity with the survivors' paths on record.
	for attempt := 0; attempt < 4096; attempt++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		for l := o.TopLevels - 1; l >= 0; l-- {
			if tc.Fill(l, leaf, tree.Entry{Addr: id, Leaf: leaf}) {
				pairs = append(pairs, resident{id, leaf})
				id++
				break
			}
		}
	}
	absent := id // never filled: the guaranteed-miss probe
	i := 0
	return func() {
		p := pairs[i%len(pairs)]
		i++
		l, ok := tc.Find(p.addr, p.leaf)
		if !ok {
			tb.Fatal("resident block not found")
		}
		if _, ok := tc.Find(absent, p.leaf); ok {
			tb.Fatal("absent block found")
		}
		if !tc.Remove(p.addr, p.leaf) {
			tb.Fatal("resident block not removed")
		}
		if !tc.Fill(l, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
			tb.Fatal("refill refused")
		}
	}
}

func BenchmarkTopCacheFind(b *testing.B) {
	op := topCacheFindOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestTopCacheFindZeroAllocs gates the tree-top lookup mix at 0 allocs/op
// (`make alloccheck`).
func TestTopCacheFindZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(4000, topCacheFindOp(t)); avg != 0 {
		t.Errorf("tree-top lookup mix allocates %.2f times per op, want 0", avg)
	}
}
