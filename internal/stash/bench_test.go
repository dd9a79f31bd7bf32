package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

type resident struct {
	addr block.ID
	leaf block.Leaf
}

// loadTop fills ts, built for geometry o, the way the controller does:
// deepest level first along random paths. A few thousand attempts leave
// every bucket at or near capacity. It returns the survivors with their
// paths and an address that was never filled, the guaranteed-miss probe.
func loadTop(ts TopStore, o config.ORAM) (pairs []resident, absent block.ID) {
	r := rng.New(1)
	leaves := o.LeafCount()
	var id block.ID
	for attempt := 0; attempt < 4096; attempt++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		for l := o.TopLevels - 1; l >= 0; l-- {
			if ts.Fill(l, leaf, tree.Entry{Addr: id, Leaf: leaf}) {
				pairs = append(pairs, resident{id, leaf})
				id++
				break
			}
		}
	}
	return pairs, id
}

// churn removes the resident p found at level l and fills it back.
func churn(tb testing.TB, ts TopStore, p resident, l int) {
	if !ts.Remove(p.addr, p.leaf) {
		tb.Fatal("resident block not removed")
	}
	if !ts.Fill(l, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
		tb.Fatal("refill refused")
	}
}

// topCacheFindOp returns one op of the tree-top lookup microbenchmark: the
// lookup mix of a demand access — a hit Find, a miss Find, then a
// Remove+Fill churn of the hit block. The churn keeps the lazy address
// index accumulating garbage so its amortized in-place sweeps are inside
// the measurement, and the zero-alloc test proves the index never grows
// in steady state.
func topCacheFindOp(tb testing.TB) func() {
	o := config.Tiny().ORAM
	tc := NewTopCache(o.Levels, o.TopLevels, o.Z)
	pairs, absent := loadTop(tc, o)
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
		churn(tb, tc, p, l)
	}
}

// irStashOp returns one op of the IR-Stash microbenchmark: an LLC-side
// S-Stash hit and miss through the MD5 set index (LookupByAddr), a TT-walk
// Find of the hit block, then its Remove+Fill churn, which re-indexes the
// block by its set as the eviction write phase does.
func irStashOp(tb testing.TB) func() {
	o := config.Tiny().WithScheme(config.IROramScheme()).ORAM
	s := NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays)
	pairs, absent := loadTop(s, o)
	i := 0
	return func() {
		p := pairs[i%len(pairs)]
		i++
		if leaf, ok := s.LookupByAddr(p.addr); !ok || leaf != p.leaf {
			tb.Fatal("resident block missed by the address index")
		}
		if _, ok := s.LookupByAddr(absent); ok {
			tb.Fatal("absent block found")
		}
		l, ok := s.Find(p.addr, p.leaf)
		if !ok {
			tb.Fatal("resident block not found")
		}
		churn(tb, s, p, l)
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

func BenchmarkIRStash(b *testing.B) {
	op := irStashOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestIRStashZeroAllocs gates the IR-Stash lookup mix, MD5 set index
// included, at 0 allocs/op (`make alloccheck`).
func TestIRStashZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(4000, irStashOp(t)); avg != 0 {
		t.Errorf("IR-Stash lookup mix allocates %.2f times per op, want 0", avg)
	}
}
