// Package dram is the memory timing model standing in for USIMM. It tracks
// per-bank row-buffer state across channels and services the block batches
// that ORAM path accesses generate, charging DDR-style timing (activate /
// column access / precharge / burst). Together with the subtree layout in
// internal/tree it reproduces the two first-order effects Path ORAM
// performance depends on: path-batch service time and row-buffer locality.
//
// Path phases are serviced in run-length form: ServicePath/PostWritePath
// group a path's addresses into per-(channel,bank,row) runs (see Run,
// AppendRuns) and charge one row-buffer transition plus one burst
// accumulation per run, with PathSched memoizing the run list per leaf.
// The per-address implementations — ServiceBatch/PostWrites — are retained
// as the differential oracle: they must produce bit-identical timing,
// statistics and state evolution for the same access sequence, and the
// randomized differential tests in this package pin that equivalence.
package dram

import (
	"fmt"
	"math/bits"

	"iroram/internal/config"
	"iroram/internal/flight"
)

// Access is one 64 B block transfer.
type Access struct {
	// Addr is the physical block address (in block units, as produced by
	// the tree's subtree layout).
	Addr uint64
	// Write selects the bus direction.
	Write bool
}

// Stats aggregates DRAM activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BusyCPUCycles is the sum of per-channel busy time in CPU cycles.
	BusyCPUCycles uint64
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

const noRow = ^uint64(0)

type bank struct {
	openRow   uint64
	lastWrite bool
	// avail is the earliest CPU cycle at which data for a column access to
	// the open row can appear on the bus (activation + tRCD + tCAS).
	avail uint64
	// lastData is when the bank's most recent data transfer finishes; the
	// row cannot be precharged before that.
	lastData uint64
}

type channel struct {
	banks  []bank
	freeAt uint64 // CPU cycle when the channel data bus becomes idle
}

// timing caches the DDR parameters pre-converted to CPU cycles, so the
// per-access service loop does no multiplication.
type timing struct {
	burst, cas, rcd, pre, wr uint64
}

// Model is the DRAM timing simulator. All externally visible times are CPU
// cycles; the model converts internally using CPUCyclesPerDRAMCycle.
type Model struct {
	cfg       config.DRAM
	t         timing
	channels  []channel
	rowBlocks uint64
	stats     Stats

	// Shift/mask decomposition, used by AppendRuns when channels, banks
	// and row blocks are all powers of two (every preset geometry): three
	// 64-bit divisions per address become shifts. pow2 false falls back to
	// the division form; the per-address oracle (decompose) always divides,
	// so the differential tests also pin the fast path's arithmetic.
	pow2              bool
	chShift, rowShift uint
	bkShift           uint
	chMask, bkMask    uint64

	// Scratch for the run-length path service (reused, never shrunk) and
	// the schedule caches to invalidate on Reset.
	lastRun    []int32  // per-channel index of the open run in AppendRuns
	chCount    []uint64 // per-channel access counts for posted-write drains
	runScratch []Run    // ServicePath's run list when no PathSched is used
	scheds     []*PathSched

	// fl, when non-nil, receives per-run service events and posted-write
	// drain events for accesses the recorder has armed (see AttachFlight).
	fl *flight.Recorder
}

// AttachFlight wires a flight recorder into the run-length service path:
// while the recorder is armed, ServiceRuns records one event per run
// (row, length, hit/miss) and posted-write drains record one event per
// busy channel. The per-address legacy paths (ServiceBatch/PostWrites)
// are not traced — run-length service is the production pipeline.
// Recording only observes; timing and statistics are unchanged.
func (m *Model) AttachFlight(fl *flight.Recorder) { m.fl = fl }

// New builds a model from the configuration. It panics on invalid geometry
// (callers validate configs up front; see config.System.Validate).
func New(cfg config.DRAM) *Model {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.RowBytes < config.BlockSize {
		panic(fmt.Sprintf("dram: invalid geometry %+v", cfg))
	}
	if cfg.Channels > 1<<16 || cfg.BanksPerChannel > 1<<16 {
		// Run packs channel and bank into uint16 each.
		panic(fmt.Sprintf("dram: geometry exceeds run encoding %+v", cfg))
	}
	cpd := uint64(cfg.CPUCyclesPerDRAMCycle)
	m := &Model{
		cfg: cfg,
		t: timing{
			burst: uint64(cfg.TBurst) * cpd,
			cas:   uint64(cfg.TCAS) * cpd,
			rcd:   uint64(cfg.TRCD) * cpd,
			pre:   uint64(cfg.TRP) * cpd,
			wr:    uint64(cfg.TWR) * cpd,
		},
		channels:  make([]channel, cfg.Channels),
		rowBlocks: uint64(cfg.RowBytes / config.BlockSize),
	}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range m.channels[i].banks {
			m.channels[i].banks[b].openRow = noRow
		}
	}
	m.lastRun = make([]int32, cfg.Channels)
	m.chCount = make([]uint64, cfg.Channels)
	m.runScratch = make([]Run, 0, 64)
	nCh, nBk := uint64(cfg.Channels), uint64(cfg.BanksPerChannel)
	if nCh&(nCh-1) == 0 && nBk&(nBk-1) == 0 && m.rowBlocks&(m.rowBlocks-1) == 0 {
		m.pow2 = true
		m.chShift = uint(bits.TrailingZeros64(nCh))
		m.chMask = nCh - 1
		m.rowShift = uint(bits.TrailingZeros64(m.rowBlocks))
		m.bkShift = uint(bits.TrailingZeros64(nBk))
		m.bkMask = nBk - 1
	}
	return m
}

// RowBlocks returns the number of 64 B blocks per DRAM row.
func (m *Model) RowBlocks() uint64 { return m.rowBlocks }

// decompose maps a physical block address to channel, bank and row using
// block-level channel interleaving (the USIMM default): consecutive blocks
// rotate across channels, so a row-aligned subtree is striped over all
// channels — every path batch gets full channel parallelism while each
// channel still sees one open row per subtree.
func (m *Model) decompose(addr uint64) (ch, bk int, row uint64) {
	ch = int(addr % uint64(m.cfg.Channels))
	rest := addr / uint64(m.cfg.Channels)
	rowID := rest / m.rowBlocks
	bk = int(rowID % uint64(m.cfg.BanksPerChannel))
	row = rowID / uint64(m.cfg.BanksPerChannel)
	return ch, bk, row
}

// ServiceBatch services the accesses of one path phase starting no earlier
// than now and returns the cycle at which the last transfer finishes.
//
// The model pipelines banks behind a shared per-channel data bus, the way
// DDR controllers do: a row miss charges precharge (+ write recovery) and
// activate on the *bank*, which overlaps with other banks' data transfers;
// only the tBURST data beats serialize on the channel bus. Channel cursors
// persist across batches, so a batch issued while an earlier one is
// draining queues behind it — which is how dummy-path contention delays
// demand requests.
func (m *Model) ServiceBatch(now uint64, accs []Access) uint64 {
	if len(accs) == 0 {
		return now
	}
	done := now
	for i := range accs {
		if finish := m.serviceOne(now, accs[i].Addr, accs[i].Write); finish > done {
			done = finish
		}
	}
	return done
}

// ServicePath services one path phase given the physical block addresses
// directly — the zero-copy twin of ServiceBatch for the controller hot path,
// which holds the path as a []uint64 (tree.Layout.PathPhys) and would
// otherwise rebuild an []Access per phase. Every address is serviced in
// the given direction. Timing, statistics and channel-state evolution are identical
// to ServiceBatch on the equivalent []Access; internally the phase is
// serviced in run-length form (AppendRuns + ServiceRuns) rather than
// address by address.
func (m *Model) ServicePath(now uint64, phys []uint64, write bool) uint64 {
	if len(phys) == 0 {
		return now
	}
	m.runScratch = m.AppendRuns(phys, 0, m.runScratch[:0])
	return m.ServiceRuns(now, m.runScratch, write)
}

// serviceOne charges one block transfer issued at now and returns when its
// data beats finish on the channel bus.
func (m *Model) serviceOne(now uint64, addr uint64, write bool) uint64 {
	chIdx, bkIdx, row := m.decompose(addr)
	ch := &m.channels[chIdx]
	b := &ch.banks[bkIdx]

	if b.openRow == row {
		m.stats.RowHits++
	} else {
		m.stats.RowMisses++
		// The controller knows a path's full address list when it
		// issues, so the MC opens rows ahead of the data transfers:
		// precharge+activate chains from when the bank last moved
		// data, not from the batch start. In steady state activation
		// latency hides behind the previous path's bursts; only the
		// per-block bus occupancy remains — the quantity IR-Alloc cuts.
		start := b.lastData
		if b.openRow != noRow {
			start += m.t.pre
			if b.lastWrite {
				start += m.t.wr
			}
		}
		b.avail = start + m.t.rcd + m.t.cas
		b.openRow = row
	}
	// Data for this access can appear no earlier than the row being
	// open (b.avail) and no earlier than a column command issued now;
	// consecutive row hits pipeline and become bus-limited.
	dataReady := b.avail
	if min := now + m.t.cas; dataReady < min {
		dataReady = min
	}
	busStart := dataReady
	if busStart < ch.freeAt {
		busStart = ch.freeAt
	}
	finish := busStart + m.t.burst
	ch.freeAt = finish
	b.lastData = finish
	b.lastWrite = write
	m.stats.BusyCPUCycles += m.t.burst
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	return finish
}

// PostWrites queues a write batch the way an FR-FCFS controller's write
// buffer drains it: the transfers occupy the channel data buses (delaying
// everything issued later) but do not close rows or block later reads on
// bank timing — reads are prioritized over buffered writes, and ORAM write
// phases target the rows the read phase just opened. It returns the cycle
// the last write drains (informational; callers normally don't wait on it).
func (m *Model) PostWrites(now uint64, accs []Access) uint64 {
	if len(accs) == 0 {
		return now
	}
	done := now
	for i := range accs {
		if freeAt := m.postOne(now, accs[i].Addr); freeAt > done {
			done = freeAt
		}
	}
	return done
}

// PostWritePath posts one path-sized write phase given the physical block
// addresses directly, the zero-copy twin of PostWrites —
// same drain semantics, no []Access rebuild. Posted writes only occupy
// channel buses, so the run-length form degenerates to one per-channel
// access count: the drain is O(channels) regardless of path length.
func (m *Model) PostWritePath(now uint64, phys []uint64) uint64 {
	if len(phys) == 0 {
		return now
	}
	for i := range m.chCount {
		m.chCount[i] = 0
	}
	nCh := uint64(m.cfg.Channels)
	for _, a := range phys {
		m.chCount[a%nCh]++
	}
	return m.drainCounts(now)
}

// postOne drains one buffered write onto addr's channel bus and returns when
// that channel goes idle.
func (m *Model) postOne(now uint64, addr uint64) uint64 {
	ch := &m.channels[int(addr%uint64(m.cfg.Channels))]
	start := ch.freeAt
	if start < now {
		start = now
	}
	ch.freeAt = start + m.t.burst
	m.stats.BusyCPUCycles += m.t.burst
	m.stats.Writes++
	m.stats.RowHits++ // write phases target the rows the read opened
	return ch.freeAt
}

// FreeAt returns the cycle at which every channel is idle, i.e. when all
// previously issued traffic has drained.
func (m *Model) FreeAt() uint64 {
	var max uint64
	for i := range m.channels {
		if m.channels[i].freeAt > max {
			max = m.channels[i].freeAt
		}
	}
	return max
}

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// Reset clears timing state and statistics, and invalidates every
// PathSched created from this model.
func (m *Model) Reset() {
	m.stats = Stats{}
	for i := range m.channels {
		m.channels[i].freeAt = 0
		for b := range m.channels[i].banks {
			m.channels[i].banks[b] = bank{openRow: noRow}
		}
	}
	for _, s := range m.scheds {
		s.Invalidate()
	}
}
