package tensor

import "testing"

func TestGetSliceZeroedAndBucketed(t *testing.T) {
	s := GetSlice(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("cap = %d, want bucket 128", cap(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("fresh slice not zeroed at %d", i)
		}
		s[i] = float32(i)
	}
	PutSlice(s)
	// A recycled buffer must come back zeroed even though we dirtied it.
	s2 := GetSlice(100)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
	PutSlice(s2)
}

func TestGetSliceEdgeCases(t *testing.T) {
	if s := GetSlice(0); s != nil {
		t.Errorf("GetSlice(0) = %v, want nil", s)
	}
	PutSlice(nil) // must not panic
	// Odd-capacity storage (not from the pool) is silently dropped.
	PutSlice(make([]float32, 100))
	// Tiny requests share the smallest bucket.
	s := GetSlice(1)
	if cap(s) != 1<<minBucketBits {
		t.Errorf("cap = %d, want %d", cap(s), 1<<minBucketBits)
	}
	PutSlice(s)
}

func TestPoolNoAliasingBetweenCheckouts(t *testing.T) {
	// After a Put, a subsequent Get may legitimately reuse the storage —
	// but two live checkouts must never alias each other.
	m1 := Get(16, 16)
	Put(m1)
	m2 := Get(16, 16)
	m3 := Get(16, 16)
	m2.Fill(1)
	m3.Fill(2)
	for i, v := range m2.Data {
		if v != 1 {
			t.Fatalf("m2 corrupted at %d: %v (aliases m3)", i, v)
		}
	}
	Put(m2)
	Put(m3)
}

func TestPutClearsHeader(t *testing.T) {
	m := Get(4, 8)
	Put(m)
	if m.Rows != 0 || m.Cols != 0 || m.Data != nil {
		t.Errorf("Put left header populated: %+v", m)
	}
}

func TestArenaRelease(t *testing.T) {
	a := NewArena()
	m := a.Get(8, 8)
	s := a.GetSlice(50)
	m.Fill(3)
	for i := range s {
		s[i] = 7
	}
	if a.Len() != 2 {
		t.Fatalf("arena len = %d, want 2", a.Len())
	}
	a.Release()
	if a.Len() != 0 {
		t.Fatalf("arena len after release = %d, want 0", a.Len())
	}
	// The arena is reusable and hands out zeroed storage again.
	m2 := a.Get(8, 8)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("post-release checkout not zeroed at %d: %v", i, v)
		}
	}
	a.Release()
}

func TestGetMatchesNewSemantics(t *testing.T) {
	m := Get(5, 9)
	n := New(5, 9)
	if m.Rows != n.Rows || m.Cols != n.Cols || len(m.Data) != len(n.Data) {
		t.Errorf("Get(5,9) shape %dx%d/%d != New %dx%d/%d",
			m.Rows, m.Cols, len(m.Data), n.Rows, n.Cols, len(n.Data))
	}
	Put(m)
}

// TestPutSliceRoundTripAllocFree: a warm checkout/return pair touches the
// heap on neither leg — the box a slice travels through the pool in is
// recycled, like the matrix header.
func TestPutSliceRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	PutSlice(GetSlice(1000))
	if n := testing.AllocsPerRun(100, func() { PutSlice(GetSlice(1000)) }); n != 0 {
		t.Errorf("GetSlice/PutSlice allocates %.1f times per pair, want 0", n)
	}
	Put(Get(40, 25))
	if n := testing.AllocsPerRun(100, func() { Put(Get(40, 25)) }); n != 0 {
		t.Errorf("Get/Put allocates %.1f times per pair, want 0", n)
	}
}
