package gpusim

import (
	"testing"
	"testing/quick"
)

// MustAlloc is Alloc for tests whose sizes cannot OOM.
func (d *Device) MustAlloc(size int64, label string) *Buffer {
	b, err := d.Alloc(size, label)
	if err != nil {
		panic(err)
	}
	return b
}

func TestAllocAndFree(t *testing.T) {
	d := NewDevice(DefaultConfig())
	b, err := d.Alloc(1024, "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.MemInUse() != 1024 {
		t.Errorf("in use %d want 1024", d.MemInUse())
	}
	b.Free()
	if d.MemInUse() != 0 {
		t.Errorf("in use %d after free", d.MemInUse())
	}
	b.Free() // double free is a no-op
}

func TestOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 100
	d := NewDevice(cfg)
	_, err := d.Alloc(200, "big")
	oom, ok := err.(*OOMError)
	if !ok {
		t.Fatalf("expected *OOMError, got %T", err)
	}
	if oom.Requested != 200 {
		t.Errorf("OOM reports %d requested", oom.Requested)
	}
}

func TestPeakTracking(t *testing.T) {
	d := NewDevice(DefaultConfig())
	a := d.MustAlloc(1000, "a")
	b := d.MustAlloc(2000, "b")
	if d.MemPeak() != 3000 {
		t.Errorf("peak %d want 3000", d.MemPeak())
	}
	a.Free()
	b.Free()
	if d.MemPeak() != 3000 {
		t.Errorf("peak should persist at 3000, got %d", d.MemPeak())
	}
	d.ResetPeak()
	if d.MemPeak() != 0 {
		t.Errorf("peak after reset %d", d.MemPeak())
	}
}

func TestBuffersDoNotShareCacheLines(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDevice(cfg)
	a := d.MustAlloc(1, "a")
	b := d.MustAlloc(1, "b")
	if a.base/cfg.CacheLineBytes == b.base/cfg.CacheLineBytes {
		t.Error("distinct buffers share a cache line")
	}
}

func TestCacheHitOnReread(t *testing.T) {
	d := NewDevice(DefaultConfig())
	k := d.StartKernel("test")
	sm := k.SM(0)
	buf := d.MustAlloc(4096, "data")
	sm.Read(buf.Addr(0), 256) // cold: all misses
	before := sm.loads
	sm.Read(buf.Addr(0), 256) // warm: all hits
	if sm.loads != before {
		t.Errorf("reread caused %d extra loads", sm.loads-before)
	}
	if sm.hits == 0 {
		t.Error("no cache hits on reread")
	}
	k.Finish()
}

func TestCacheEviction(t *testing.T) {
	cfg := Config{NumSMs: 1, CacheBytesPerSM: 128, CacheLineBytes: 32, MemoryBytes: 1 << 20}
	d := NewDevice(cfg)
	k := d.StartKernel("evict")
	sm := k.SM(0)
	buf := d.MustAlloc(1<<16, "data")
	// Cache holds 4 lines. Touch 8 distinct lines, then the first again.
	for i := 0; i < 8; i++ {
		sm.Read(buf.Addr(int64(i)*32), 1)
	}
	before := sm.loads
	sm.Read(buf.Addr(0), 1) // line 0 was evicted -> miss
	if sm.loads != before+1 {
		t.Error("expected a miss after eviction")
	}
	k.Finish()
}

func TestKernelAggregatesCounters(t *testing.T) {
	d := NewDevice(DefaultConfig())
	before := d.Snapshot()
	k := d.StartKernel("k")
	k.SM(0).AddFLOPs(100)
	k.SM(1).AddFLOPs(50)
	st := k.Finish()
	if st.FLOPs != 150 {
		t.Errorf("kernel FLOPs %d want 150", st.FLOPs)
	}
	if d.Snapshot().Sub(before).FLOPs != 150 {
		t.Error("device counter not updated")
	}
}

func TestPCIePinnedFaster(t *testing.T) {
	d := NewDevice(DefaultConfig())
	p := d.PCIe()
	pinned := p.TransferBytes(40000, true)
	pageable := p.TransferBytes(40000, false)
	if pageable <= pinned {
		t.Errorf("pageable %v should exceed pinned %v", pageable, pinned)
	}
}

func TestEstimateMonotoneInFLOPs(t *testing.T) {
	d := NewDevice(DefaultConfig())
	m := DefaultKernelTimeModel()
	low := d.Estimate(m, Counters{FLOPs: 1e6, Launches: 1})
	high := d.Estimate(m, Counters{FLOPs: 1e9, Launches: 1})
	if high <= low {
		t.Error("estimate not increasing in FLOPs")
	}
}

// Property: a single buffer reread within cache capacity never adds loads.
func TestQuickCacheReuse(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := 1 + int64(sizeRaw)%4096
		cfg := DefaultConfig()
		d := NewDevice(cfg)
		k := d.StartKernel("q")
		sm := k.SM(0)
		buf := d.MustAlloc(size, "b")
		if size > cfg.CacheBytesPerSM {
			return true // skip: exceeds cache
		}
		sm.Read(buf.Addr(0), size)
		loads := sm.loads
		sm.Read(buf.Addr(0), size)
		k.Finish()
		return sm.loads == loads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
