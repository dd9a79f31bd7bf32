package dram

import (
	"testing"

	"iroram/internal/config"
	"iroram/internal/rng"
)

// TestServicePathMatchesServiceBatch drives two models through the same
// randomized phase sequence — one via the []Access API, one via the
// zero-copy []uint64 API — and requires identical completion times,
// statistics and channel state. ServicePath/PostWritePath are the hot-path
// twins of ServiceBatch/PostWrites; any timing divergence would silently
// change every experiment table.
func TestServicePathMatchesServiceBatch(t *testing.T) {
	cfg := config.Scaled().DRAM
	batch := New(cfg)
	path := New(cfg)
	r := rng.New(31)
	const off = uint64(1 << 18)

	now := uint64(0)
	for iter := 0; iter < 300; iter++ {
		n := 1 + int(r.Uint64n(60))
		phys := make([]uint64, n)
		accs := make([]Access, n)
		write := r.Uint64n(4) == 0
		for i := range phys {
			phys[i] = r.Uint64n(1<<20) + off
			accs[i] = Access{Addr: phys[i], Write: write}
		}
		dBatch := batch.ServiceBatch(now, accs)
		dPath := path.ServicePath(now, phys, write)
		if dBatch != dPath {
			t.Fatalf("iter %d: service time diverges: batch %d, path %d", iter, dBatch, dPath)
		}
		pBatch := batch.PostWrites(dBatch, accs)
		pPath := path.PostWritePath(dPath, phys)
		if pBatch != pPath {
			t.Fatalf("iter %d: post-write drain diverges: batch %d, path %d", iter, pBatch, pPath)
		}
		now = dBatch + r.Uint64n(2000)
	}
	if batch.Stats() != path.Stats() {
		t.Fatalf("stats diverge:\nbatch %+v\npath  %+v", batch.Stats(), path.Stats())
	}
	if batch.FreeAt() != path.FreeAt() {
		t.Fatalf("channel state diverges: batch free at %d, path free at %d",
			batch.FreeAt(), path.FreeAt())
	}
}

// TestServicePathEmpty pins the no-op contract shared with ServiceBatch.
func TestServicePathEmpty(t *testing.T) {
	m := New(config.Scaled().DRAM)
	if got := m.ServicePath(42, nil, false); got != 42 {
		t.Fatalf("empty ServicePath = %d, want 42", got)
	}
	if got := m.PostWritePath(42, nil); got != 42 {
		t.Fatalf("empty PostWritePath = %d, want 42", got)
	}
	if m.Stats() != (Stats{}) {
		t.Fatalf("empty phases touched stats: %+v", m.Stats())
	}
}

func benchAddrs(n int) []uint64 {
	phys := make([]uint64, n)
	for i := range phys {
		phys[i] = uint64(i * 37)
	}
	return phys
}

// BenchmarkServiceBatch measures one path-sized read phase via the []Access
// API (the pre-PR3 controller hot path).
func BenchmarkServiceBatch(b *testing.B) {
	m := New(config.Scaled().DRAM)
	phys := benchAddrs(44)
	accs := make([]Access, len(phys))
	for i, a := range phys {
		accs[i] = Access{Addr: a}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		now = m.ServiceBatch(now, accs)
	}
}

// BenchmarkServicePath measures the same phase via the zero-copy physical
// address list the controller now holds.
func BenchmarkServicePath(b *testing.B) {
	m := New(config.Scaled().DRAM)
	phys := benchAddrs(44)
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		now = m.ServicePath(now, phys, false)
	}
}
