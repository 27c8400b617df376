package tensor

import (
	"runtime"
	"testing"
)

// Reference implementations: straightforward triple loops with the same
// per-element accumulation order (ascending k) the blocked kernels use, so
// agreement must be bitwise, not just within an epsilon.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refMatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func refTMatMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for k := 0; k < a.Rows; k++ {
			av := a.At(k, i)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

// mixed returns a rows×cols matrix with positives, negatives and exact
// zeros (the zeros exercise the sparse-skip paths).
func mixed(rows, cols int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := New(rows, cols)
	for i := range m.Data {
		v := rng.Float32()*2 - 1
		if v < -0.5 {
			v = 0
		}
		m.Data[i] = v
	}
	return m
}

func requireBitwise(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// gemmShapes cover the unroll tails (dims not multiples of 4), the
// parallel threshold (≥64 rows) and the k-block boundary (>128 inner dim).
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 0, 5}, // zero inner dim: Into forms must still clear dst
	{7, 13, 9},
	{65, 130, 33},
	{128, 200, 47},
}

func TestMatMulFamilyBitwise(t *testing.T) {
	for _, sh := range gemmShapes {
		a := mixed(sh.m, sh.k, 11)
		b := mixed(sh.k, sh.n, 22)
		bt := mixed(sh.n, sh.k, 33) // for a×bᵀ: b with rows=n
		at := mixed(sh.k, sh.m, 44) // for aᵀ×b: a with rows=k
		bb := mixed(sh.k, sh.n, 55)

		// The kernels write into dirty pooled storage and must overwrite it.
		dst := Get(sh.m, sh.n)
		dst.Fill(99)
		requireBitwise(t, "MatMulInto", MatMulInto(dst, a, b), refMatMul(a, b))
		dst.Fill(99)
		requireBitwise(t, "MatMulTInto", MatMulTInto(dst, a, bt), refMatMulT(a, bt))
		dst.Fill(99)
		requireBitwise(t, "TMatMulInto", TMatMulInto(dst, at, bb), refTMatMul(at, bb))
		Put(dst)
	}
}

// TestDeterminismAcrossWorkerCounts checks the paper-critical property:
// kernel results are bitwise identical under GOMAXPROCS=1 and =8.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	a := mixed(257, 190, 5)
	b := mixed(190, 61, 6)
	bt := mixed(61, 190, 7)  // for a×btᵀ
	at := mixed(190, 257, 8) // for atᵀ×b

	prev := runtime.GOMAXPROCS(1)
	serialMM := matMul(a, b)
	serialMMT := matMulT(a, bt)
	serialTMM := tMatMul(at, b)
	runtime.GOMAXPROCS(8)
	parMM := matMul(a, b)
	parMMT := matMulT(a, bt)
	parTMM := tMatMul(at, b)
	runtime.GOMAXPROCS(prev)

	requireBitwise(t, "MatMul workers", parMM, serialMM)
	requireBitwise(t, "MatMulT workers", parMMT, serialMMT)
	requireBitwise(t, "TMatMul workers", parTMM, serialTMM)
}

// TestMatMulIntoZeroAllocs guards the arena discipline: the steady-state
// destination-passing GEMM performs no heap allocation on the serial path.
func TestMatMulIntoZeroAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	a := mixed(128, 96, 8)
	b := mixed(96, 64, 9)
	dst := Get(128, 64)
	defer Put(dst)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(dst, a, b)
	})
	if allocs != 0 {
		t.Errorf("MatMulInto allocates %.1f times per op, want 0", allocs)
	}
}

// TestParallelMatMulIntoZeroAllocs extends the guard to the pooled parallel
// path: dispatching row chunks onto the persistent worker pool must not
// allocate either — no goroutine spawns, no WaitGroups, no closures; just a
// pooled args struct and a pooled job.
func TestParallelMatMulIntoZeroAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	a := mixed(256, 96, 8)
	b := mixed(96, 64, 9)
	dst := Get(256, 64)
	defer Put(dst)
	want := refMatMul(a, b)
	// Warm the worker pool and the job/args pools.
	for i := 0; i < 4; i++ {
		MatMulInto(dst, a, b)
	}
	allocs := testing.AllocsPerRun(30, func() {
		MatMulInto(dst, a, b)
	})
	if allocs != 0 {
		t.Errorf("parallel MatMulInto allocates %.1f times per op, want 0", allocs)
	}
	requireBitwise(t, "parallel MatMulInto", dst, want)
}
