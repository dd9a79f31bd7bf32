package stash

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"

	"iroram/internal/block"
	"iroram/internal/tree"
)

// IRStash is the double-indexed tree-top store of Section IV-C:
//
//   - S-Stash: a set-associative array of block entries, set-indexed by the
//     MD5 hash of the block address (the paper uses MD5 to spread addresses
//     evenly), so the LLC can search it directly — a hit needs no PosMap
//     access, no path access and no remap.
//   - TT: a small pointer table, one entry per tree-top bucket (heap coded
//     level by level exactly as in Fig 8b), whose per-bucket pointers
//     identify the S-Stash slots holding that bucket's blocks. TT lets the
//     ORAM controller traverse the on-chip path segment by tree position.
//
// A block therefore occupies one S-Stash slot and one TT pointer at a time.
// When the write phase cannot place a block because its S-Stash set is
// full, Fill refuses and the block stays in the F-Stash for a later round
// (the paper's conflict rule).
type IRStash struct {
	topLevels int
	levels    int
	z         []int
	sets      int
	ways      int
	slots     []sslot
	// tt[node] holds up to Z(level) pointers into slots; -1 means empty.
	tt       [][]int32
	occupied []uint64
	// setMemo caches setOf: a direct-mapped table indexed by the low
	// address bits and tagged by the full address, holding set+1 so the
	// zero entry means empty. The eviction write phase retries every
	// leftover stash block at each top level, so most MD5s repeat; a slot
	// collision only costs a recomputation.
	setMemo []setMemoEntry
	// Conflicts counts Fill refusals due to S-Stash set conflicts.
	Conflicts uint64
}

type setMemoEntry struct {
	addr block.ID
	set  uint32 // set+1; 0 marks an empty entry
}

// setMemoSize is the entry count of IRStash.setMemo (a power of two; 1 MiB).
const setMemoSize = 1 << 16

type sslot struct {
	addr  block.ID
	leaf  block.Leaf
	valid bool
}

// NewIRStash sizes the S-Stash to hold exactly the tree-top capacity
// (sum over top levels of 2^l * Z(l)) at the given associativity, rounding
// the set count up so capacity is never below the dedicated design's.
func NewIRStash(levels, topLevels int, z []int, ways int) *IRStash {
	if topLevels <= 0 || topLevels >= levels {
		panic(fmt.Sprintf("stash: topLevels %d out of (0,%d)", topLevels, levels))
	}
	if ways <= 0 {
		panic("stash: IR-Stash needs positive associativity")
	}
	capacity := 0
	for l := 0; l < topLevels; l++ {
		capacity += (1 << uint(l)) * z[l]
	}
	sets := (capacity + ways - 1) / ways
	s := &IRStash{
		topLevels: topLevels,
		levels:    levels,
		z:         append([]int(nil), z...),
		sets:      sets,
		ways:      ways,
		slots:     make([]sslot, sets*ways),
		tt:        make([][]int32, 1<<uint(topLevels)),
		occupied:  make([]uint64, topLevels),
		setMemo:   make([]setMemoEntry, setMemoSize),
	}
	for n := range s.tt {
		level := levelOfNode(n)
		if level >= 0 && level < topLevels {
			ptrs := make([]int32, z[level])
			for i := range ptrs {
				ptrs[i] = -1
			}
			s.tt[n] = ptrs
		}
	}
	return s
}

func levelOfNode(n int) int {
	if n == 0 {
		return -1 // code 0 is skipped, as in the paper
	}
	l := -1
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}

// setOf hashes addr with MD5 and maps it to an S-Stash set, memoized per
// address in setMemo.
func (s *IRStash) setOf(addr block.ID) int {
	m := &s.setMemo[uint64(addr)&(setMemoSize-1)]
	if m.set != 0 && m.addr == addr {
		return int(m.set - 1)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(addr))
	sum := md5.Sum(buf[:])
	set := int(binary.LittleEndian.Uint64(sum[:8]) % uint64(s.sets))
	*m = setMemoEntry{addr: addr, set: uint32(set) + 1}
	return set
}

func (s *IRStash) node(level int, leaf block.Leaf) int {
	idx := uint64(leaf) >> (uint(s.levels-1) - uint(level))
	return (1 << uint(level)) + int(idx)
}

// LookupByAddr implements AddrIndex: the fast path for LLC requests.
func (s *IRStash) LookupByAddr(addr block.ID) (block.Leaf, bool) {
	base := s.setOf(addr) * s.ways
	for w := 0; w < s.ways; w++ {
		if sl := &s.slots[base+w]; sl.valid && sl.addr == addr {
			return sl.leaf, true
		}
	}
	return block.NoLeaf, false
}

// ReadPathEach implements TopStore: it drains the top buckets along leaf
// via the TT pointers.
func (s *IRStash) ReadPathEach(leaf block.Leaf, visit func(tree.Entry, int)) {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, ptr := range s.tt[n] {
			if ptr < 0 {
				continue
			}
			sl := &s.slots[ptr]
			e := tree.Entry{Addr: sl.addr, Leaf: sl.leaf}
			sl.valid = false
			s.tt[n][i] = -1
			s.occupied[l]--
			visit(e, l)
		}
	}
}

// Fill implements TopStore. It refuses on bucket overflow or when the
// block's S-Stash set has no free way (counted in Conflicts).
func (s *IRStash) Fill(level int, leaf block.Leaf, e tree.Entry) bool {
	if !tree.SameSubtree(leaf, e.Leaf, level, s.levels) {
		panic(fmt.Sprintf("stash: block %v (leaf %d) misplaced at top level %d of path %d",
			e.Addr, e.Leaf, level, leaf))
	}
	n := s.node(level, leaf)
	ptrIdx := -1
	for i, ptr := range s.tt[n] {
		if ptr < 0 {
			ptrIdx = i
			break
		}
	}
	if ptrIdx < 0 {
		return false // bucket full
	}
	base := s.setOf(e.Addr) * s.ways
	for w := 0; w < s.ways; w++ {
		if sl := &s.slots[base+w]; !sl.valid {
			*sl = sslot{addr: e.Addr, leaf: e.Leaf, valid: true}
			s.tt[n][ptrIdx] = int32(base + w)
			s.occupied[level]++
			return true
		}
	}
	s.Conflicts++
	return false
}

// Find implements TopStore via the TT walk, mirroring how the controller
// reads the on-chip path segment.
func (s *IRStash) Find(addr block.ID, leaf block.Leaf) (int, bool) {
	for l := 0; l < s.topLevels; l++ {
		for _, ptr := range s.tt[s.node(l, leaf)] {
			if ptr >= 0 && s.slots[ptr].addr == addr {
				return l, true
			}
		}
	}
	return 0, false
}

// Remove implements TopStore.
func (s *IRStash) Remove(addr block.ID, leaf block.Leaf) bool {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, ptr := range s.tt[n] {
			if ptr >= 0 && s.slots[ptr].addr == addr {
				s.slots[ptr].valid = false
				s.tt[n][i] = -1
				s.occupied[l]--
				return true
			}
		}
	}
	return false
}

// OccupiedAt implements TopStore.
func (s *IRStash) OccupiedAt(level int) uint64 { return s.occupied[level] }

// CapacityAt implements TopStore.
func (s *IRStash) CapacityAt(level int) uint64 {
	return (uint64(1) << uint(level)) * uint64(s.z[level])
}

// Len implements TopStore.
func (s *IRStash) Len() int {
	n := 0
	for _, o := range s.occupied {
		n += int(o)
	}
	return n
}
