package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// maxFuzzEdges bounds a decoded edge list: twice the parallel-sort
// threshold, so an input can land on either side of it.
const maxFuzzEdges = 2 * parSortMinEdges

// scaleUp is the least scale byte that replicates a decoded edge list.
const scaleUp = 0xf0

// decodeBCOO turns fuzz bytes into a bipartite edge list: nDst and nSrc
// (either may be 0: an empty side admits no edge), one edge per byte pair of
// edges in input order, and — when scale ≥ scaleUp — 1<<(scale%16) copies of
// that list, copy r of edge (s, d) being ((s+r) mod nSrc, (5d+r) mod nDst),
// so a short input can cross the parallel-sort threshold with duplicates
// and interleaved keys. Scaling only the top sixteenth of scale values keeps
// most executions small and fast.
func decodeBCOO(nDst, nSrc, scale uint8, edges []byte) *BCOO {
	g := &BCOO{NumDst: int(nDst), NumSrc: int(nSrc)}
	n := len(edges) / 2
	if g.NumDst == 0 || g.NumSrc == 0 || n == 0 {
		return g
	}
	reps := 1
	if scale >= scaleUp {
		reps <<= scale % 16
	}
	for n*reps > maxFuzzEdges && reps > 1 {
		reps >>= 1
	}
	n = min(n, maxFuzzEdges)
	g.Src, g.Dst = make([]VID, 0, n*reps), make([]VID, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			s, d := int(edges[2*i])%g.NumSrc, int(edges[2*i+1])%g.NumDst
			g.Src = append(g.Src, VID((s+r)%g.NumSrc))
			g.Dst = append(g.Dst, VID((5*d+r)%g.NumDst))
		}
	}
	return g
}

// refSortByKey is the serial stable sort every translation stands for: the
// payload of each edge, ordered by key with ties in input order (one bucket
// per key, filled in one pass over the edges), and the prefix-summed key
// histogram (nk+1 entries).
func refSortByKey(keys, vals []VID, nk int) (ptr []int32, out []VID) {
	buckets := make([][]VID, nk)
	for e, k := range keys {
		buckets[k] = append(buckets[k], vals[e])
	}
	ptr = make([]int32, nk+1)
	out = make([]VID, 0, len(keys))
	for k, b := range buckets {
		out = append(out, b...)
		ptr[k+1] = int32(len(out))
	}
	return ptr, out
}

// dirtyBCSR, dirtyBCSC and dirtyBCOO are recycled destinations for the
// *Into forms: garbage in every field, with less or more capacity than m
// edges need.
func dirtyBCSR(m int, more bool) *BCSR {
	return &BCSR{NumDst: -3, NumSrc: 99, Ptr: dirtyVIDs(m/2, more), Srcs: dirtyVIDs(m, more)}
}

func dirtyBCSC(m int, more bool) *BCSC {
	return &BCSC{NumDst: 77, NumSrc: -1, Ptr: dirtyVIDs(m/2, more), Dsts: dirtyVIDs(m, more)}
}

func dirtyBCOO(m int, more bool) *BCOO {
	return &BCOO{NumDst: 5, NumSrc: 5, Src: dirtyVIDs(m, more), Dst: dirtyVIDs(m/3, more)}
}

func dirtyVIDs(n int, more bool) []VID {
	if more {
		n = 2*n + 7
	} else {
		n /= 2
	}
	s := make([]VID, n)
	for i := range s {
		s[i] = VID(-1 - i%5)
	}
	return s
}

// checkTranslations holds BCOOToBCSR, BCOOToBCSC, BCSRToBCSC, BCSRToBCOO and
// the *Into forms, into recycled destinations of either capacity, to the
// serial stable-sort reference, and every result to Validate. The input is
// never written.
func checkTranslations(t *testing.T, g *BCOO) {
	t.Helper()
	src, dst := slices.Clone(g.Src), slices.Clone(g.Dst)
	m := g.NumEdges()

	csrPtr, csrSrcs := refSortByKey(g.Dst, g.Src, g.NumDst)
	cscPtr, cscDsts := refSortByKey(g.Src, g.Dst, g.NumSrc)
	// The dst-major edge list a BCSR expands to, and the BCSC it transposes
	// to: the reference for BCSRToBCOO and BCSRToBCSC.
	cooDst := make([]VID, m)
	for d := 0; d < g.NumDst; d++ {
		for e := csrPtr[d]; e < csrPtr[d+1]; e++ {
			cooDst[e] = VID(d)
		}
	}
	tPtr, tDsts := refSortByKey(csrSrcs, cooDst, g.NumSrc)

	sameCSR := func(name string, got *BCSR) {
		t.Helper()
		if got.NumDst != g.NumDst || got.NumSrc != g.NumSrc ||
			!slices.Equal(got.Ptr, csrPtr) || !slices.Equal(got.Srcs, csrSrcs) {
			t.Fatalf("%s of %d edges (%d dsts, %d srcs): got %d×%d ptr %v srcs %v, reference ptr %v srcs %v",
				name, m, g.NumDst, g.NumSrc, got.NumDst, got.NumSrc, head(got.Ptr), head(got.Srcs), head(csrPtr), head(csrSrcs))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	sameCSC := func(name string, got *BCSC, ptr []int32, dsts []VID) {
		t.Helper()
		if got.NumDst != g.NumDst || got.NumSrc != g.NumSrc ||
			!slices.Equal(got.Ptr, ptr) || !slices.Equal(got.Dsts, dsts) {
			t.Fatalf("%s of %d edges (%d dsts, %d srcs): got %d×%d ptr %v dsts %v, reference ptr %v dsts %v",
				name, m, g.NumDst, g.NumSrc, got.NumDst, got.NumSrc, head(got.Ptr), head(got.Dsts), head(ptr), head(dsts))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	sameCOO := func(name string, got *BCOO) {
		t.Helper()
		if got.NumDst != g.NumDst || got.NumSrc != g.NumSrc ||
			!slices.Equal(got.Src, csrSrcs) || !slices.Equal(got.Dst, cooDst) {
			t.Fatalf("%s of %d edges: got src %v dst %v, reference src %v dst %v",
				name, m, head(got.Src), head(got.Dst), head(csrSrcs), head(cooDst))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	csr, _ := BCOOToBCSR(g)
	sameCSR("BCOOToBCSR", csr)
	csc, _ := BCOOToBCSC(g)
	sameCSC("BCOOToBCSC", csc, cscPtr, cscDsts)
	sameCSC("BCSRToBCSC", BCSRToBCSC(csr), tPtr, tDsts)
	sameCOO("BCSRToBCOO", BCSRToBCOO(csr))
	for _, more := range []bool{false, true} {
		into := dirtyBCSR(m, more)
		BCOOToBCSRInto(g, into)
		sameCSR("BCOOToBCSRInto", into)
		cscInto := dirtyBCSC(m, more)
		BCSRToBCSCInto(csr, cscInto)
		sameCSC("BCSRToBCSCInto", cscInto, tPtr, tDsts)
		cooInto := dirtyBCOO(m, more)
		BCSRToBCOOInto(csr, cooInto)
		sameCOO("BCSRToBCOOInto", cooInto)
	}
	if !slices.Equal(g.Src, src) || !slices.Equal(g.Dst, dst) {
		t.Fatal("a translation wrote its input edge list")
	}
}

// head is at most the first 16 entries of s, for failure messages.
func head[S ~[]E, E any](s S) S { return s[:min(len(s), 16)] }

// FuzzBipartiteTranslations: whatever the edge list — empty, one dst,
// duplicate edges, keys in any order, on either side of the parallel-sort
// threshold — every bipartite translation equals the serial stable sort and
// validates, and an *Into form reaching into a dirty destination of any
// capacity writes what the allocating form returns. The committed corpus
// (testdata/fuzz) holds an empty graph, a single dst, duplicates, a shuffled
// list and one scaled past the threshold.
func FuzzBipartiteTranslations(f *testing.F) {
	f.Fuzz(func(t *testing.T, nDst, nSrc, scale uint8, edges []byte) {
		checkTranslations(t, decodeBCOO(nDst, nSrc, scale, edges))
	})
}

// TestBipartiteTranslationsMatchReference is the fuzz target's property on a
// fixed sample of its input space, for tier-1: the corner cases by name and
// random inputs, every one at one worker and at four, scaled to either side
// of the parallel-sort threshold.
func TestBipartiteTranslationsMatchReference(t *testing.T) {
	type input struct {
		nDst, nSrc, scale uint8
		edges             []byte
	}
	cases := []input{
		{0, 0, 0, nil},
		{3, 0, scaleUp + 4, []byte{1, 2, 3, 4}},
		{1, 9, 0, []byte{4, 0, 4, 0, 8, 0, 1, 0}},
		{4, 4, 0, []byte{2, 1, 2, 1, 2, 1, 0, 3, 0, 3}},
		{7, 5, scaleUp + 12, []byte{9, 3, 0, 6, 4, 1, 3, 0, 2, 5, 1, 4}},
	}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		edges := make([]byte, 2*rng.Intn(40))
		rng.Read(edges)
		scale := uint8(rng.Intn(256))
		if trial%6 == 0 {
			scale = scaleUp + 10 + uint8(rng.Intn(4)) // past the parallel-sort threshold
		}
		cases = append(cases, input{uint8(rng.Intn(70)), uint8(rng.Intn(70)), scale, edges})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	crossed := false
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			g := decodeBCOO(c.nDst, c.nSrc, c.scale, c.edges)
			crossed = crossed || g.NumEdges() >= parSortMinEdges
			checkTranslations(t, g)
		}
	}
	if !crossed {
		t.Fatal("no sampled input reached the parallel-sort threshold")
	}
}
