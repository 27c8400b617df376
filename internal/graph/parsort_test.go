package graph

import (
	"runtime"
	"testing"
)

// bigBCOO builds a deterministic pseudo-random bipartite edge list big
// enough to cross the parallel-sort threshold.
func bigBCOO(m, nDst, nSrc int) *BCOO {
	g := &BCOO{NumDst: nDst, NumSrc: nSrc, Src: make([]VID, m), Dst: make([]VID, m)}
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) VID {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return VID(state % uint64(n))
	}
	for i := 0; i < m; i++ {
		g.Src[i] = next(nSrc)
		g.Dst[i] = next(nDst)
	}
	return g
}

// TestParallelTranslationMatchesSerial: the chunk-parallel counting sort
// must produce byte-identical CSR/CSC structures to the serial path (the
// stability of the sort is what the identity rides on).
func TestParallelTranslationMatchesSerial(t *testing.T) {
	g := bigBCOO(3*parSortMinEdges, 700, 1100)

	prev := runtime.GOMAXPROCS(1)
	serialCSR, _ := BCOOToBCSR(g)
	serialCSC, _ := BCOOToBCSC(g)
	serialDirect := BCSRToBCSC(serialCSR)
	runtime.GOMAXPROCS(8)
	parCSR, _ := BCOOToBCSR(g)
	parCSC, _ := BCOOToBCSC(g)
	parDirect := BCSRToBCSC(parCSR)
	runtime.GOMAXPROCS(prev)

	requireSameI32(t, "CSR.Ptr", serialCSR.Ptr, parCSR.Ptr)
	requireSameI32(t, "CSR.Srcs", serialCSR.Srcs, parCSR.Srcs)
	requireSameI32(t, "CSC.Ptr", serialCSC.Ptr, parCSC.Ptr)
	requireSameI32(t, "CSC.Dsts", serialCSC.Dsts, parCSC.Dsts)
	requireSameI32(t, "BCSRToBCSC.Ptr", serialDirect.Ptr, parDirect.Ptr)
	requireSameI32(t, "BCSRToBCSC.Dsts", serialDirect.Dsts, parDirect.Dsts)
	if err := parCSR.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := parCSC.Validate(); err != nil {
		t.Fatal(err)
	}
}

func requireSameI32(t *testing.T, name string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d = %d, want %d", name, i, b[i], a[i])
		}
	}
}
