package dram

import "testing"

func TestPostWritesOccupyBus(t *testing.T) {
	m := New(testCfg())
	writes := make([]Access, 8)
	for i := range writes {
		writes[i] = Access{Addr: uint64(i), Write: true}
	}
	done := m.PostWrites(0, writes)
	if done == 0 {
		t.Fatal("writes drained instantly")
	}
	// A read issued while the writes drain must queue behind them on the
	// bus (same channel).
	readDone := m.ServiceBatch(0, []Access{{Addr: 0}})
	if readDone <= done-uint64(testCfg().TBurst) {
		t.Errorf("read at %d did not queue behind writes draining at %d", readDone, done)
	}
	s := m.Stats()
	if s.Writes != 8 {
		t.Errorf("writes = %d", s.Writes)
	}
}

func TestPostWritesDoNotCloseRows(t *testing.T) {
	m := New(testCfg())
	ch := uint64(testCfg().Channels)
	// Open a row with a read, post writes elsewhere, then re-read the row:
	// it must still be a row hit (writes are buffered behind reads).
	m.ServiceBatch(0, []Access{{Addr: 0}})
	m.PostWrites(1000, []Access{{Addr: 123456789 * ch, Write: true}})
	hitsBefore := m.Stats().RowHits
	m.ServiceBatch(2000, []Access{{Addr: ch}}) // same channel 0, same row
	if m.Stats().RowHits <= hitsBefore {
		t.Error("posted writes closed an open row")
	}
}

func TestPostWritesEmpty(t *testing.T) {
	m := New(testCfg())
	if got := m.PostWrites(77, nil); got != 77 {
		t.Errorf("empty post = %d", got)
	}
}

func TestPathServiceBoundPositive(t *testing.T) {
	m := New(testCfg())
	b60 := pathServiceBound(m, 60)
	b43 := pathServiceBound(m, 43)
	if b60 <= b43 || b43 == 0 {
		t.Errorf("bounds %d / %d not monotone in block count", b60, b43)
	}
}

func TestActivationOverlapsSteadyState(t *testing.T) {
	// In steady state, row misses in idle banks must not stall the bus:
	// back-to-back row-sized batches approach pure bus time per batch.
	cfg := testCfg()
	m := New(cfg)
	burst := uint64(cfg.TBurst * cfg.CPUCyclesPerDRAMCycle)
	rowBlocks := m.RowBlocks()
	var now uint64
	const batches = 20
	for i := 0; i < batches; i++ {
		var accs []Access
		for j := uint64(0); j < 64; j++ {
			// one new row per channel per batch, rotating across banks
			accs = append(accs, Access{Addr: uint64(i)*rowBlocks*uint64(cfg.Channels) + j})
		}
		now = m.ServiceBatch(now, accs)
	}
	busPerBatch := 64 / uint64(cfg.Channels) * burst
	if avg := now / batches; avg > busPerBatch+busPerBatch/2 {
		t.Errorf("steady-state batch time %d far above bus time %d", avg, busPerBatch)
	}
}
