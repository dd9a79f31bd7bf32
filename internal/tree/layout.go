package tree

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
)

// Layout maps buckets to physical block addresses using the subtree layout
// of Ren et al. (adopted by the paper's baseline): the memory-resident
// levels are partitioned into chunks, and each chunk's subtrees are laid out
// contiguously and row-aligned, so one path access activates roughly one
// DRAM row per chunk instead of one per level.
type Layout struct {
	levels   int
	minLevel int
	z        []int
	leafBits uint
	chunks   []chunk
}

type chunk struct {
	start    int // first tree level of the chunk
	depth    int // levels covered
	base     uint64
	padded   uint64   // physical slots per subtree (row aligned)
	levelOff []uint64 // slot offset of each local level within a subtree
}

// NewLayout computes the physical layout for the memory-resident levels of
// the tree described by o, given the DRAM row size in blocks.
func NewLayout(o config.ORAM, minLevel, rowBlocks int) *Layout {
	if rowBlocks <= 0 {
		panic(fmt.Sprintf("tree: rowBlocks %d must be positive", rowBlocks))
	}
	ly := &Layout{
		levels:   o.Levels,
		minLevel: minLevel,
		z:        append([]int(nil), o.Z...),
		leafBits: uint(o.Levels - 1),
	}
	var base uint64
	for s := minLevel; s < o.Levels; {
		c := chunk{start: s, base: base, levelOff: []uint64{0}}
		slots := uint64(0)
		for l := s; l < o.Levels; l++ {
			add := (uint64(1) << uint(l-s)) * uint64(o.Z[l])
			if c.depth > 0 && slots+add > uint64(rowBlocks) {
				break
			}
			slots += add
			c.depth++
			c.levelOff = append(c.levelOff, slots)
		}
		// Pad each subtree to the next power of two (capped by the row
		// size): rows are power-of-two sized, so aligned subtrees never
		// straddle a row boundary, and small subtrees can share a row
		// without inflating the physical footprint.
		c.padded = ceilPow2(slots)
		if c.padded > uint64(rowBlocks) {
			c.padded = slots + uint64(rowBlocks) - slots%uint64(rowBlocks)
		}
		ly.chunks = append(ly.chunks, c)
		base += (uint64(1) << uint(s)) * c.padded
		s += c.depth
	}
	return ly
}

func ceilPow2(n uint64) uint64 {
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// PhysicalSlots returns the physical address space size in blocks,
// padding included.
func (ly *Layout) PhysicalSlots() uint64 {
	if len(ly.chunks) == 0 {
		return 0
	}
	last := ly.chunks[len(ly.chunks)-1]
	return last.base + (uint64(1)<<uint(last.start))*last.padded
}

// BucketPhys returns the physical base address and slot count of the bucket
// the path of leaf crosses at level.
func (ly *Layout) BucketPhys(level int, leaf block.Leaf) (base uint64, z int) {
	c := ly.chunkOf(level)
	idx := uint64(leaf) >> (ly.leafBits - uint(level))
	local := level - c.start
	root := idx >> uint(local)
	q := idx - root<<uint(local)
	base = c.base + root*c.padded + c.levelOff[local] + q*uint64(ly.z[level])
	return base, ly.z[level]
}

func (ly *Layout) chunkOf(level int) *chunk {
	for i := range ly.chunks {
		c := &ly.chunks[i]
		if level >= c.start && level < c.start+c.depth {
			return c
		}
	}
	panic(fmt.Sprintf("tree: level %d not in layout [%d,%d)", level, ly.minLevel, ly.levels))
}

// PathPhys appends the physical addresses of every slot on the path of leaf
// (memory-resident levels, root-to-leaf order) to dst and returns it. One
// path access reads or writes exactly these blocks, so len == the Z-profile
// BlocksPerPath — the quantity IR-Alloc reduces.
func (ly *Layout) PathPhys(leaf block.Leaf, dst []uint64) []uint64 {
	for l := ly.minLevel; l < ly.levels; l++ {
		base, z := ly.BucketPhys(l, leaf)
		for j := 0; j < z; j++ {
			dst = append(dst, base+uint64(j))
		}
	}
	return dst
}
