package gpusim

import "testing"

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
// header and its SM set are checked out and returned as one unit — and two
// kernels open on one device at once hold disjoint sets, each cold.
func TestStartKernelAllocFloor(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.StartKernel("warm").Finish()
	if n := testing.AllocsPerRun(100, func() { d.StartKernel("empty").Finish() }); n != 0 {
		t.Errorf("StartKernel+Finish allocates %.1f times per launch, want 0", n)
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
