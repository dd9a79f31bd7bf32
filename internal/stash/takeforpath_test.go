package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// TestTakeForPathClassifies checks the single-pass drain against the
// definition: every stashed entry is removed and filed under exactly its
// deepest placeable level on the path, and nothing is lost.
func TestTakeForPathClassifies(t *testing.T) {
	const levels = 6
	leaves := uint64(1) << (levels - 1)
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		s := NewFStash(64)
		n := int(r.Uint64n(40))
		for i := 0; i < n; i++ {
			s.Insert(tree.Entry{Addr: block.ID(i), Leaf: block.Leaf(r.Uint64n(leaves))})
		}
		pathLeaf := block.Leaf(r.Uint64n(leaves))

		perLevel := make([][]tree.Entry, levels)
		s.DrainForPath(pathLeaf, levels, perLevel, nil)

		taken := 0
		for l, list := range perLevel {
			for _, e := range list {
				taken++
				if d := tree.DeepestLevel(pathLeaf, e.Leaf, levels); d != l {
					t.Fatalf("entry %v (leaf %d) filed at level %d, deepest placeable is %d",
						e.Addr, e.Leaf, l, d)
				}
				if _, still := s.Lookup(e.Addr); still {
					t.Fatalf("taken entry %v still stashed", e.Addr)
				}
			}
		}
		if taken != n || s.Len() != 0 {
			t.Fatalf("took %d of %d entries, %d remain stashed", taken, n, s.Len())
		}
	}
}

// TestTakeForPathReusesLists pins the zero-allocation contract: reused
// per-level slices are appended to, so the caller's reset-and-reuse pattern
// must see only this call's entries.
func TestTakeForPathReusesLists(t *testing.T) {
	const levels = 4
	s := NewFStash(8)
	s.Insert(tree.Entry{Addr: 1, Leaf: 7})
	perLevel := make([][]tree.Entry, levels)
	perLevel[levels-1] = append(perLevel[levels-1], tree.Entry{Addr: 99, Leaf: 0})
	perLevel[levels-1] = perLevel[levels-1][:0] // caller reset, stale backing
	s.DrainForPath(7, levels, perLevel, nil)
	if len(perLevel[levels-1]) != 1 || perLevel[levels-1][0].Addr != 1 {
		t.Fatalf("perLevel[leaf] = %v, want exactly block 1", perLevel[levels-1])
	}
}

// TestEachUntilStopsEarly verifies the early-exit contract used by the
// controller's invariant checker.
func TestEachUntilStopsEarly(t *testing.T) {
	s := NewFStash(8)
	for i := 0; i < 5; i++ {
		s.Insert(tree.Entry{Addr: block.ID(i), Leaf: 0})
	}
	visited := 0
	s.EachUntil(func(tree.Entry) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited %d entries, want 3", visited)
	}
	visited = 0
	s.EachUntil(func(tree.Entry) bool { visited++; return true })
	if visited != 5 {
		t.Fatalf("full walk visited %d entries, want 5", visited)
	}
}

// TestTakeForBucketAppendsToDst pins the buffered contract: selections are
// appended behind whatever dst already holds.
func TestTakeForBucketAppendsToDst(t *testing.T) {
	const levels = 4
	s := NewFStash(8)
	s.Insert(tree.Entry{Addr: 1, Leaf: 5})
	dst := []tree.Entry{{Addr: 42, Leaf: 1}}
	out := s.TakeForBucket(5, levels-1, levels, 4, nil, dst)
	if len(out) != 2 || out[0].Addr != 42 || out[1].Addr != 1 {
		t.Fatalf("TakeForBucket dst contract broken: %v", out)
	}
	if s.Len() != 0 {
		t.Fatalf("selected entry not removed, Len = %d", s.Len())
	}
}
