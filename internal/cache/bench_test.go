package cache

import (
	"testing"

	"iroram/internal/rng"
)

// Microbenchmarks and zero-alloc gates for the cache hot paths. Geometry
// matches the scaled LLC (1024 sets x 8 ways).

// llcAccessOp returns one op of the LLC microbenchmark: a random
// access-or-insert against an LLC with LRU tracking enabled — the IR-DWB
// configuration, i.e. the one that pays the per-mutation summary refresh
// on top of mask-based set indexing.
func llcAccessOp() func() {
	c := New(1024, 8)
	c.EnableLRUTracking()
	r := rng.New(3)
	const addrSpace = 1024 * 8 * 4 // 4x capacity: steady miss/evict mix
	op := func() {
		a := r.Uint64n(addrSpace)
		if !c.Access(a, r.Bool(0.3)) {
			c.Insert(a, r.Bool(0.3))
		}
	}
	for i := 0; i < 50000; i++ { // warm to full occupancy
		op()
	}
	return op
}

// dwbScanOp returns one op of the DWB candidate-search microbenchmark: the
// sparse-candidate case the Ptr register actually faces — every set full,
// exactly one set holding a dirty LRU line — so each FindCandidate wraps
// the whole cursor range. This is the op the summary bitmaps turn from an
// O(sets) set-by-set sweep into a 16-word bit scan.
func dwbScanOp(tb testing.TB) func() {
	c := New(1024, 8)
	r := rng.New(4)
	s := NewDWBScanner(c, func() int { return r.Intn(1024) })
	for set := 0; set < 1024; set++ {
		for w := 0; w < 8; w++ {
			c.Insert(uint64(set+1024*w), false)
		}
	}
	lru, ok := c.LRU(511)
	if !ok {
		tb.Fatal("benchmark set not full")
	}
	c.MarkDirty(lru) // the lone candidate
	return func() {
		if _, ok := s.FindCandidate(0); !ok {
			tb.Fatal("candidate disappeared")
		}
	}
}

func BenchmarkLLCAccess(b *testing.B) {
	op := llcAccessOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkDWBScan(b *testing.B) {
	op := dwbScanOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestLLCAccessZeroAllocs and TestDWBScanZeroAllocs gate both hot paths at
// 0 allocs/op (`make alloccheck`).
func TestLLCAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(4000, llcAccessOp()); avg != 0 {
		t.Errorf("LLC access allocates %.2f times per op, want 0", avg)
	}
}

func TestDWBScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(4000, dwbScanOp(t)); avg != 0 {
		t.Errorf("DWB candidate scan allocates %.2f times per op, want 0", avg)
	}
}
