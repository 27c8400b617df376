// Package tensor provides float32 dense matrices and the parallel linear
// algebra the GraphTensor combination stage (MLP forward and backward)
// needs. It is the stand-in for the TensorFlow dense primitive (tf.matmul)
// the paper's Apply uses; bias and activation live with the instrumented
// kernels (kernels.BiasReLU).
//
// All operations are deterministic; parallel kernels split work by rows so
// results are bitwise identical regardless of worker count. The three GEMM
// kernels (MatMulInto, MatMulTInto, TMatMulInto) are destination-passing:
// they write into caller-owned storage — typically drawn from the pool in
// pool.go — and perform no heap allocation. They are the GEMM every engine
// runs: kernels.Linear and LinearBackward compute through them.
package tensor

import (
	"fmt"
	"sync"

	"graphtensor/internal/sched"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Bytes reports the storage size of the matrix payload in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and o. The shapes must match.
func (m *Matrix) MaxAbsDiff(o *Matrix) float32 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	var worst float32
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.3g", m.At(i, j))
		}
	}
	return s + "]"
}

// rowWorkers returns how many workers a rows-sized parallel region uses.
// 1 means the caller should run the serial path (which lets kernels avoid
// building a dispatch context entirely).
func rowWorkers(rows int) int {
	if rows < 64 {
		return 1
	}
	return sched.Workers(rows)
}

// pArgs carries the operands of one parallel kernel dispatch onto the
// worker pool. Instances are pooled so a steady-state parallel kernel
// performs no heap allocation; the top-level task functions below unpack
// them, keeping the dispatch closure-free.
type pArgs struct {
	dst, a, b *Matrix
}

var pArgsPool = sync.Pool{New: func() any { return new(pArgs) }}

// runRows dispatches a row-range kernel onto the shared worker pool and
// returns the pooled args. Each row is written by exactly one participant,
// so results are bitwise independent of the worker count.
func runRows(rows, workers int, p *pArgs, fn func(ctx any, lo, hi int)) {
	sched.Run(rows, workers, p, fn)
	p.dst, p.a, p.b = nil, nil, nil
	pArgsPool.Put(p)
}

func getPArgs(dst, a, b *Matrix) *pArgs {
	p := pArgsPool.Get().(*pArgs)
	p.dst, p.a, p.b = dst, a, b
	return p
}

func matMulTask(ctx any, lo, hi int) {
	p := ctx.(*pArgs)
	matMulRange(p.dst, p.a, p.b, lo, hi)
}

func matMulTTask(ctx any, lo, hi int) {
	p := ctx.(*pArgs)
	matMulTRange(p.dst, p.a, p.b, lo, hi)
}

func tMatMulTask(ctx any, lo, hi int) {
	p := ctx.(*pArgs)
	tMatMulRange(p.dst, p.a, p.b, lo, hi)
}

// gemmKBlock is the inner-dimension tile of the blocked GEMM kernels: a
// tile of that many B rows (gemmKBlock × Cols floats) is streamed once and
// reused across every output row a worker owns, keeping it cache-resident.
const gemmKBlock = 128

// MatMulInto computes dst = a×b into caller-owned storage and returns dst.
// dst must be a.Rows×b.Cols and must not alias a or b; its prior contents
// are overwritten. Panics on a shape mismatch. The kernel is cache-blocked over the inner dimension
// and accumulates each output element strictly in ascending-k order, so
// results are bitwise identical to the naive triple loop regardless of
// worker count. The serial path performs no heap allocation.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if workers := rowWorkers(a.Rows); workers > 1 {
		runRows(a.Rows, workers, getPArgs(dst, a, b), matMulTask)
		return dst
	}
	matMulRange(dst, a, b, 0, a.Rows)
	return dst
}

// matMulRange computes dst rows [lo,hi) of a×b with k-blocking and a
// 4-wide unrolled axpy. The unrolled sum o + a0·b0 + a1·b1 + a2·b2 + a3·b3
// associates left-to-right, i.e. exactly like four sequential updates, so
// blocking and unrolling do not change the result bitwise.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	n := a.Cols
	if n == 0 {
		// Zero inner dimension: the product is all zeros; the k-block loop
		// below would not run, so clear explicitly.
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		return
	}
	for k0 := 0; k0 < n; k0 += gemmKBlock {
		k1 := k0 + gemmKBlock
		if k1 > n {
			k1 = n
		}
		for i := lo; i < hi; i++ {
			orow := dst.Row(i)
			if k0 == 0 {
				clear(orow)
			}
			arow := a.Row(i)
			k := k0
			for ; k+3 < k1; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				b0 := b.Row(k)[:len(orow)]
				b1 := b.Row(k + 1)[:len(orow)]
				b2 := b.Row(k + 2)[:len(orow)]
				b3 := b.Row(k + 3)[:len(orow)]
				for j := range orow {
					// Written as one left-associated chain: identical
					// association to four sequential += updates.
					orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; k < k1; k++ {
				av := arow[k]
				brow := b.Row(k)[:len(orow)]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulTInto computes dst = a×bᵀ into caller-owned storage and returns
// dst. dst must be a.Rows×b.Rows and must not alias a or b. Each output
// element is one dot product accumulated in ascending-k order; four b rows
// are processed per pass so one a-row read feeds four independent
// accumulator chains.
func MatMulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulT dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if workers := rowWorkers(a.Rows); workers > 1 {
		runRows(a.Rows, workers, getPArgs(dst, a, b), matMulTTask)
		return dst
	}
	matMulTRange(dst, a, b, 0, a.Rows)
	return dst
}

func matMulTRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		j := 0
		for ; j+3 < b.Rows; j += 4 {
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			var acc0, acc1, acc2, acc3 float32
			for k, av := range arow {
				acc0 += av * b0[k]
				acc1 += av * b1[k]
				acc2 += av * b2[k]
				acc3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = acc0, acc1, acc2, acc3
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)[:len(arow)]
			var acc float32
			for k, av := range arow {
				acc += av * brow[k]
			}
			orow[j] = acc
		}
	}
}

// TMatMulInto computes dst = aᵀ×b into caller-owned storage and returns
// dst. dst must be a.Cols×b.Cols and must not alias a or b. Work splits by
// output rows (a's columns) so accumulation stays deterministic; the inner
// dimension is k-blocked so the touched B tile stays cache-resident across
// the worker's output rows.
func TMatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: tmatmul dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if workers := rowWorkers(a.Cols); workers > 1 {
		runRows(a.Cols, workers, getPArgs(dst, a, b), tMatMulTask)
		return dst
	}
	tMatMulRange(dst, a, b, 0, a.Cols)
	return dst
}

func tMatMulRange(dst, a, b *Matrix, lo, hi int) {
	n := a.Rows
	if n == 0 {
		for i := lo; i < hi; i++ {
			clear(dst.Row(i))
		}
		return
	}
	for k0 := 0; k0 < n; k0 += gemmKBlock {
		k1 := k0 + gemmKBlock
		if k1 > n {
			k1 = n
		}
		for i := lo; i < hi; i++ {
			orow := dst.Row(i)
			if k0 == 0 {
				clear(orow)
			}
			for k := k0; k < k1; k++ {
				av := a.At(k, i)
				brow := b.Row(k)[:len(orow)]
				for j := range orow {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}
