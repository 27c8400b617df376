package gpusim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestKernelRecycleColdCache verifies that SMContext recycling across
// kernel launches preserves the cold-cache-per-kernel semantics: a second
// kernel replaying the same access pattern must report identical stats
// (same misses — nothing leaks from the previous launch's cache), and the
// recycled launch must not allocate fresh contexts.
func TestKernelRecycleColdCache(t *testing.T) {
	d := NewDevice(DefaultConfig())
	buf := d.MustAlloc(1<<20, "data")

	replay := func() KernelStats {
		k := d.StartKernel("replay")
		for smID := 0; smID < k.NumSMs(); smID += 7 {
			sm := k.SM(smID)
			for off := int64(0); off < 8<<10; off += 96 {
				sm.Read(buf.Addr(off), 64)
			}
			// Re-read a prefix: hits the second time within one kernel.
			for off := int64(0); off < 4<<10; off += 96 {
				sm.Read(buf.Addr(off), 64)
			}
			sm.Write(buf.Addr(0), 4096)
			sm.AddFLOPs(1000)
		}
		return k.Finish()
	}

	first := replay()
	for i := 0; i < 3; i++ {
		again := replay()
		if again != first {
			t.Fatalf("recycled kernel stats differ: run %d %+v != first %+v", i+2, again, first)
		}
	}
	if first.CacheHits == 0 || first.GlobalLoads == 0 {
		t.Fatalf("replay exercised no cache traffic: %+v", first)
	}
}

// TestLRUCacheEviction pins the index-based LRU behaviour: capacity is
// respected, the least recently used line is evicted first, and reset
// empties the cache without losing capacity.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	if c.touch(10) {
		t.Fatal("first touch of 10 hit")
	}
	if c.touch(20) {
		t.Fatal("first touch of 20 hit")
	}
	if !c.touch(10) {
		t.Fatal("second touch of 10 missed")
	}
	// Insert a third line: 20 is now LRU and must be evicted.
	if c.touch(30) {
		t.Fatal("first touch of 30 hit")
	}
	if c.touch(20) {
		t.Fatal("touch of evicted 20 hit")
	}
	// 10 was evicted by 20's reinsertion (capacity 2: {30, 20}).
	if !c.touch(30) {
		t.Fatal("30 should still be resident")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.reset()
	if c.len() != 0 {
		t.Fatalf("len after reset = %d, want 0", c.len())
	}
	if c.touch(30) {
		t.Fatal("post-reset touch of 30 hit: cache not cold")
	}
}

// TestStartKernelAllocFloor: a warm launch allocates nothing — the Kernel
// header comes from the device's free list and its SM set from the list
// every device of its shape shares — on either of two devices of one shape,
// and two kernels open on one device at once hold disjoint sets, each cold.
func TestStartKernelAllocFloor(t *testing.T) {
	d, other := NewDevice(DefaultConfig()), NewDevice(DefaultConfig())
	d.StartKernel("warm").Finish()
	other.StartKernel("warm").Finish()
	for _, dev := range []*Device{d, other} {
		if n := testing.AllocsPerRun(100, func() { dev.StartKernel("empty").Finish() }); n != 0 {
			t.Errorf("StartKernel+Finish allocates %.1f times per launch, want 0", n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		d.StartKernel("a").Finish()
		other.StartKernel("b").Finish()
	}); n != 0 {
		t.Errorf("alternating launches on two devices allocate %.1f times per pair, want 0", n)
	}

	buf := d.MustAlloc(4096, "data")
	for round := 0; round < 3; round++ {
		a, b := d.StartKernel("a"), d.StartKernel("b")
		n := a.NumSMs()
		seen := make(map[*SMContext]bool)
		for i := 0; i < n; i++ {
			if a.SM(i) == nil || b.SM(i) == nil {
				t.Fatalf("round %d: SM %d missing", round, i)
			}
			seen[a.SM(i)], seen[b.SM(i)] = true, true
			// The same line on both kernels and in every round: a miss each
			// time unless a context leaks between sets or comes back warm.
			a.SM(i).Read(buf.Addr(0), 4)
			b.SM(i).Read(buf.Addr(0), 4)
		}
		if len(seen) != 2*n {
			t.Fatalf("round %d: %d distinct SM contexts across two open kernels, want %d", round, len(seen), 2*n)
		}
		for _, st := range []KernelStats{a.Finish(), b.Finish()} {
			if st.CacheHits != 0 || st.GlobalLoads != int64(n) {
				t.Fatalf("round %d: kernel %s saw %d hits, %d loads; want a cold set: 0 hits, %d loads",
					round, st.Name, st.CacheHits, st.GlobalLoads, n)
			}
		}
	}
}

// freeSets is the number of SM sets resting in the free list of cfg's
// shape. Every set of a shape is created by a launch and returned by its
// Finish, so with no launch open it is the number of sets created since the
// last dropSets.
func freeSets(cfg Config) int {
	s := setsFor(cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// dropSets empties the free list of cfg's shape, so a test run counts the
// sets it creates itself (-count and -cpu repeat a test in one process).
func dropSets(cfg Config) {
	s := setsFor(cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = nil
}

// TestSMSetsSharedAcrossDevices: devices of one shape share one free list of
// SM sets, so devices launching one after another leave one set, not one
// each; a device of another shape never receives it; and a set another
// device returned starts cold.
func TestSMSetsSharedAcrossDevices(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs, cfg.CacheBytesPerSM = 5, 4<<10 // a shape no other test launches on
	dropSets(cfg)
	devs := make([]*Device, 16)
	for i := range devs {
		devs[i] = NewDevice(cfg)
		devs[i].StartKernel("one").Finish()
	}
	if n := freeSets(cfg); n != 1 {
		t.Fatalf("16 devices launching one after another left %d SM sets, want 1", n)
	}

	wide := cfg
	wide.CacheLineBytes = 2 * cfg.CacheLineBytes
	rest := setsFor(cfg).free[0]
	k := NewDevice(wide).StartKernel("wide")
	for i := 0; i < k.NumSMs(); i++ {
		if sm := k.SM(i); slices.Contains(rest, sm) || sm.lineSize != wide.CacheLineBytes {
			t.Fatalf("a %d-byte-line device got SM %d of the %d-byte-line set", wide.CacheLineBytes, i, cfg.CacheLineBytes)
		}
	}
	k.Finish()
	if n := freeSets(cfg); n != 1 {
		t.Fatalf("a launch of another shape moved the shared list to %d sets, want 1", n)
	}

	// Both devices' bump allocators start at 0: A's line is B's line.
	a, b := devs[0], devs[1]
	bufA, bufB := a.MustAlloc(4096, "a"), b.MustAlloc(4096, "b")
	if bufA.Addr(0) != bufB.Addr(0) {
		t.Fatalf("buffers at %d and %d: the replay needs one address", bufA.Addr(0), bufB.Addr(0))
	}
	ka := a.StartKernel("a")
	set := ka.SM(0)
	ka.SM(0).Read(bufA.Addr(0), 4)
	ka.SM(0).Read(bufA.Addr(0), 4)
	if st := ka.Finish(); st.GlobalLoads != 1 || st.CacheHits != 1 {
		t.Fatalf("device A read one line twice: %d loads, %d hits; want 1, 1", st.GlobalLoads, st.CacheHits)
	}
	kb := b.StartKernel("b")
	if kb.SM(0) != set {
		t.Fatal("device B did not receive the set device A returned")
	}
	kb.SM(0).Read(bufB.Addr(0), 4)
	if st := kb.Finish(); st.GlobalLoads != 1 || st.CacheHits != 0 {
		t.Fatalf("device B replayed A's line on A's set: %d loads, %d hits; want a miss", st.GlobalLoads, st.CacheHits)
	}
}

// TestSMSetsBoundedByConcurrency: G goroutines launching round-robin over 4G
// devices of one shape create at most G SM sets — one per launch open at
// once — and every launch, whichever set it got, reports the stats of the
// same program run serially on a fresh device.
func TestSMSetsBoundedByConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs, cfg.CacheBytesPerSM = 6, 2<<10 // a shape no other test launches on
	dropSets(cfg)
	const g, rounds = 4, 25
	devs := make([]*Device, 4*g)
	for i := range devs {
		devs[i] = NewDevice(cfg)
		devs[i].MustAlloc(1<<16, "data")
	}
	program := func(d *Device) KernelStats {
		k := d.StartKernel("program")
		for i := 0; i < k.NumSMs(); i++ {
			sm := k.SM(i)
			base := int64(i) * 4096
			for off := int64(0); off < 4096; off += 48 {
				sm.Read(base+off, 40)
			}
			for off := int64(0); off < 1024; off += 48 {
				sm.Read(base+off, 40)
			}
			sm.Write(base, 512)
			sm.AddFLOPs(int64(100 * (i + 1)))
		}
		return k.Finish()
	}
	ref := NewDevice(cfg)
	ref.MustAlloc(1<<16, "data")
	want := program(ref)
	if n := freeSets(cfg); n != 1 {
		t.Fatalf("the serial reference left %d SM sets, want 1", n)
	}

	var wg sync.WaitGroup
	errs := make(chan string, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range devs {
					if got := program(devs[(w+j)%len(devs)]); got != want {
						errs <- fmt.Sprintf("goroutine %d round %d device %d: %+v, serial %+v", w, r, (w+j)%len(devs), got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := freeSets(cfg); n > g {
		t.Errorf("%d goroutines over %d devices created %d SM sets, want at most %d", g, len(devs), n, g)
	}
}

// TestNewDeviceRejectsWideCache: slots link by int16 index, so a cache of
// more than math.MaxInt16 lines per SM is an invalid config; the paper's
// 128 KiB of 32-byte lines (4 096) is not.
func TestNewDeviceRejectsWideCache(t *testing.T) {
	for _, tc := range []struct {
		lines int64
		ok    bool
	}{{4096, true}, {math.MaxInt16, true}, {math.MaxInt16 + 1, false}, {1 << 20, false}} {
		cfg := DefaultConfig()
		cfg.CacheBytesPerSM = tc.lines * cfg.CacheLineBytes
		func() {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("NewDevice with %d lines per SM: panic %v, want ok=%v", tc.lines, r, tc.ok)
				}
			}()
			NewDevice(cfg)
		}()
	}
}
