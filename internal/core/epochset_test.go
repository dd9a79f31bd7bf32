package core

import (
	"testing"

	"iroram/internal/block"
)

// epochSet is a reusable membership set over the unified block-ID space —
// the per-level refused set of evictOntoPathReference. Membership is one
// array read, insertion one array write, and clearing is a
// generation-counter bump: no per-level clear() walk, no hashing, no
// allocation. The stamp array is direct-indexed by block ID and sized once
// for the whole unified space; a slot is a member iff its stamp equals the
// current generation.
type epochSet struct {
	stamps []uint32
	gen    uint32
}

// newEpochSet returns an empty set over IDs in [0, n).
func newEpochSet(n int) *epochSet {
	return &epochSet{stamps: make([]uint32, n), gen: 1}
}

// Reset empties the set in O(1). On the (once per 2^32 resets) generation
// wrap the stamp array is cleared so stale stamps from the previous cycle
// cannot alias the new generation.
func (s *epochSet) Reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamps)
		s.gen = 1
	}
}

// Add marks id as a member of the current generation.
func (s *epochSet) Add(id block.ID) { s.stamps[id] = s.gen }

// Has reports membership of id in the current generation.
func (s *epochSet) Has(id block.ID) bool { return s.stamps[id] == s.gen }

func TestEpochSetBasics(t *testing.T) {
	s := newEpochSet(64)
	if s.Has(3) {
		t.Fatal("fresh set reports membership")
	}
	s.Add(3)
	s.Add(63)
	if !s.Has(3) || !s.Has(63) || s.Has(4) {
		t.Fatal("membership after Add wrong")
	}
	s.Reset()
	if s.Has(3) || s.Has(63) {
		t.Fatal("Reset did not empty the set")
	}
	s.Add(4)
	if !s.Has(4) || s.Has(3) {
		t.Fatal("membership after Reset+Add wrong")
	}
}

// TestEpochSetGenerationWrap forces the uint32 generation counter through
// its wrap and checks stale stamps from the previous cycle cannot alias
// the restarted generation.
func TestEpochSetGenerationWrap(t *testing.T) {
	s := newEpochSet(8)
	s.Add(1)
	s.gen = ^uint32(0) // next Reset wraps
	s.stamps[2] = 1    // stale stamp that would alias gen==1 after wrap
	s.Reset()
	if s.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", s.gen)
	}
	if s.Has(1) || s.Has(2) {
		t.Fatal("stale stamps visible after generation wrap")
	}
	s.Add(5)
	if !s.Has(5) {
		t.Fatal("Add after wrap not visible")
	}
}
