package kernels

import (
	"time"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// Ctx carries the simulated device and the two per-stage records every
// kernel books into (Fig 16's classes, metrics.StageAggregation on): host
// time in Stages, device work in Work. One training loop uses it at a time.
//
// The Ctx is also the batch scope of the kernel layer: per-SM scratch rows
// (message and edge-weight buffers) are owned by the Ctx and reused across
// every kernel launch, derived per-graph quantities (inverse degrees,
// CSC-order edge ids) are memoized so strategies and passes that share a
// graph within a batch never recompute them, and every device allocation
// made through the Ctx (AllocDeviceMatrix, WrapDeviceMatrix, a strategy's
// intermediates, the format translations' scratch) lives in a header of the
// Ctx's slab, so that EndBatch frees whatever the batch's kernels left behind
// — the device buffers and, for the matrices AllocDeviceMatrix handed out,
// the host storage they borrowed from the tensor pool — and reuses the
// headers for the next batch. Allocations made on the device directly are
// not the Ctx's and are never swept.
type Ctx struct {
	Dev    *gpusim.Device
	Stages metrics.Stages
	Work   [metrics.NumStages]gpusim.Counters

	// hdrs is the scope's record: the first nHdr headers are the ones taken
	// since the last EndBatch. Chunks never move, so a header's address is
	// stable for its batch; the slab is retained across batches.
	hdrs []*[hdrChunk]DeviceMatrix
	nHdr int
	// bufs points at the device buffer of every header taken — or, once
	// Detach moved one out, at the detached header's — for EndBatch to free.
	bufs []*gpusim.Buffer

	// Reusable per-SM scratch: msgBuf/wBuf back the row views handed to
	// kernel chunks. Kernel launches within a Ctx are sequential, and
	// within a launch each goroutine owns disjoint SM ids, so a single set
	// of rows per role is race-free.
	msgBuf   []float32
	msgViews [][]float32
	wBuf     []float32
	wViews   [][]float32

	// dwBuf is LinearBackward's retained Xᵀ·dY product buffer.
	dwBuf tensor.Matrix

	// napa is the argument block of the NAPA numeric pass in flight, trace
	// that of the trace pass in flight and smRun the launch dispatching it
	// (all zero between launches).
	napa  napaNumeric
	trace traceArgs
	smRun smRun

	// simulate makes every trace pass replay its stream line by line — no
	// closed form for a dense stream, no row unit for a sparse launch; tests
	// set it to obtain the reference counters.
	simulate bool

	// Memoized per-graph derivations, keyed by the storage object identity.
	// csrOf and cscOf back the host views (hostCSR, hostCSC).
	invDegCSR map[*graph.BCSR][]float32
	cscEdges  map[*graph.BCSR][]int32
	csrOf     map[*graph.BCOO]*graph.BCSR
	cscOf     map[*graph.BCSR]*graph.BCSC

	// invDegBuf backs the invDegCSR memo's slices, retained across batches.
	invDegBuf []float32

	// blockBuf backs edgeBlocks' run-aligned block boundaries; recomputed
	// per launch (an O(E) walk, noise next to the per-edge kernel work) so
	// the steady state retains one buffer instead of a per-graph memo.
	blockBuf []int32
}

// NewCtx builds a kernel context on the device. The scope's record starts
// with room for a two-layer training batch's buffers, so a cold Ctx does
// not regrow it (a persistent one keeps whatever it grew to).
func NewCtx(dev *gpusim.Device) *Ctx {
	return &Ctx{Dev: dev, bufs: make([]*gpusim.Buffer, 0, 32)}
}

// hdrChunk is the number of headers one slab chunk holds: a two-layer
// training batch's allocations, so a warm Ctx rarely holds more than one.
const hdrChunk = 32

// memoCap is the backstop bound on the per-Ctx memo maps for callers that
// never signal batch boundaries: when full, a memo map is cleared before
// the next insert. The proper discipline is EndBatch, which releases the
// memos (and the graph storage they pin) as soon as a batch completes.
const memoCap = 8

// EndBatch closes the batch scope: it drops the per-graph memos, so the
// batch's graph storage (which the memo keys pin) becomes collectible, and
// frees every device buffer the batch allocated through the Ctx and did
// not free itself (layer outputs, logits, retained translations) — the
// device's MemInUse returns to what it was before the batch's kernels ran.
// The host storage of every matrix AllocDeviceMatrix handed out goes back
// to the tensor pool with it: such a matrix's M is valid until its Free or
// this call, whichever is first (a wrapped matrix's M is its caller's and
// is left alone). Every header the batch took is zeroed and reused by the
// next batch, so no handle outlives this call — bar the one Detach returned;
// with poisonFreed set the headers are retired and stamped dead instead. The
// per-SM scratch buffers are retained — they are shape-dependent, not
// graph-dependent. Call it when a training/inference batch completes or
// fails.
func (c *Ctx) EndBatch() {
	clear(c.invDegCSR)
	clear(c.cscEdges)
	clear(c.csrOf)
	clear(c.cscOf)
	for i, b := range c.bufs {
		b.Free()
		c.bufs[i] = nil
	}
	c.bufs = c.bufs[:0]
	for i := 0; i < c.nHdr; i++ {
		dm := &c.hdrs[i/hdrChunk][i%hdrChunk]
		dm.giveBack()
		if poisonFreed {
			dm.M, dm.scope, dm.dead = nil, nil, true
		} else {
			*dm = DeviceMatrix{}
		}
	}
	if poisonFreed {
		clear(c.hdrs)
		c.hdrs = c.hdrs[:0]
	}
	c.nHdr = 0
}

// header reserves size bytes of device memory in the batch scope, into the
// next header of the slab. A refused allocation takes no header.
func (c *Ctx) header(size int64, label string) (*DeviceMatrix, error) {
	i := c.nHdr / hdrChunk
	if i == len(c.hdrs) {
		c.hdrs = append(c.hdrs, new([hdrChunk]DeviceMatrix))
	}
	dm := &c.hdrs[i][c.nHdr%hdrChunk]
	if err := c.Dev.AllocInto(&dm.buf, size, label); err != nil {
		return nil, err
	}
	c.nHdr++
	dm.scope = c
	c.bufs = append(c.bufs, &dm.buf)
	return dm, nil
}

// memoized returns (*m)[k], deriving and inserting it on a miss; a memo at
// memoCap is cleared first.
func memoized[K comparable, V any](m *map[K]V, k K, derive func() V) V {
	if v, ok := (*m)[k]; ok {
		return v
	}
	if *m == nil {
		*m = make(map[K]V)
	} else if len(*m) >= memoCap {
		clear(*m)
	}
	v := derive()
	(*m)[k] = v
	return v
}

// InvDeg returns 1/deg per dst (0 for isolated dsts) for csr, memoized on
// the Ctx so every strategy, pass and layer sharing the graph within a
// batch computes it once. The slice lives in storage the Ctx retains: it is
// valid while the memo holds it — until EndBatch, or the memo's backstop
// clear for a caller that never ends a batch.
func (c *Ctx) InvDeg(csr *graph.BCSR) []float32 {
	return memoized(&c.invDegCSR, csr, func() []float32 { return c.invDegOf(csr) })
}

// invDegOf computes csr's inverse degrees into the next csr.NumDst entries of
// invDegBuf. With the memo empty no slice of the buffer is live, so it starts
// over; a buffer too small is replaced, not grown in place, so the slices
// the memo still holds keep their storage.
func (c *Ctx) invDegOf(csr *graph.BCSR) []float32 {
	n, used := csr.NumDst, len(c.invDegBuf)
	if len(c.invDegCSR) == 0 {
		used = 0
	}
	if used+n > cap(c.invDegBuf) {
		c.invDegBuf, used = make([]float32, 0, 2*used+n), 0
	}
	c.invDegBuf = c.invDegBuf[:used+n]
	out := c.invDegBuf[used : used+n : used+n]
	for d := range out {
		out[d] = 0
		if deg := csr.Degree(graph.VID(d)); deg > 0 {
			out[d] = 1 / float32(deg)
		}
	}
	return out
}

// cscEdgeIDs returns edgeIDsForCSC(csr, csc) memoized by the CSR identity
// (the CSC of a layer graph is derived from exactly one CSR).
func (c *Ctx) cscEdgeIDs(csr *graph.BCSR, csc *graph.BCSC) []int32 {
	return memoized(&c.cscEdges, csr, func() []int32 { return edgeIDsForCSC(csr, csc) })
}

// edgeBlocks returns the run-aligned thread-block boundaries of a COO edge
// list: blocks cover at most edgeBlock consecutive edges and never span a
// dst boundary, so a block updates one dst's partial row.
// blocks[b] is block b's first edge; blocks[len-1] == NumEdges. The view is
// valid until the next edgeBlocks call (one retained buffer, no per-graph
// allocation).
func (c *Ctx) edgeBlocks(coo *graph.BCOO) []int32 {
	n := coo.NumEdges()
	v := c.blockBuf[:0]
	if cap(v) == 0 {
		// Worst case for contiguous runs: one short block per dst plus the
		// full-block count (split-run COOs may still grow once; the buffer
		// is retained, so growth is one-time per Ctx either way).
		v = make([]int32, 0, coo.NumDst+n/edgeBlock+2)
	}
	v = append(v, 0)
	for e := 0; e < n; {
		d := coo.Dst[e]
		hi := e + edgeBlock
		if hi > n {
			hi = n
		}
		end := e + 1
		for end < hi && coo.Dst[end] == d {
			end++
		}
		v = append(v, int32(end))
		e = end
	}
	c.blockBuf = v
	return v
}

// msgScratch returns numSMs reusable message-scratch rows of length dim
// (contents undefined; kernels fully overwrite them per edge).
func (c *Ctx) msgScratch(numSMs, dim int) [][]float32 {
	return growScratch(&c.msgBuf, &c.msgViews, numSMs, dim)
}

// wScratch returns numSMs reusable edge-weight-scratch rows of length
// cols. Distinct from msgScratch so one kernel may hold both.
func (c *Ctx) wScratch(numSMs, cols int) [][]float32 {
	return growScratch(&c.wBuf, &c.wViews, numSMs, cols)
}

// dwScratch returns the Ctx's retained rows×cols product buffer (contents
// undefined; the GEMM fully overwrites it).
func (c *Ctx) dwScratch(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(c.dwBuf.Data) < n {
		c.dwBuf.Data = make([]float32, n)
	}
	c.dwBuf.Rows, c.dwBuf.Cols, c.dwBuf.Data = rows, cols, c.dwBuf.Data[:n]
	return &c.dwBuf
}

func growScratch(buf *[]float32, views *[][]float32, n, dim int) [][]float32 {
	need := n * dim
	if cap(*buf) < need {
		*buf = make([]float32, need)
	}
	*buf = (*buf)[:need]
	if cap(*views) < n {
		*views = make([][]float32, n)
	}
	*views = (*views)[:n]
	for i := 0; i < n; i++ {
		(*views)[i] = (*buf)[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return *views
}

// span is an open booking under a stage: the clock and the device counters as
// begin read them. A value, so booking a kernel allocates nothing and moves
// none of the kernel's variables to the heap.
type span struct {
	stage  metrics.Stage
	t0     time.Time
	before gpusim.Counters
}

// begin opens a booking under stage.
func (c *Ctx) begin(stage metrics.Stage) span {
	return span{stage: stage, t0: time.Now(), before: c.Dev.Snapshot()}
}

// end accrues the wall time and the device work since sp's begin under its
// stage and returns the wall time. A kernel that fails returns without it.
func (c *Ctx) end(sp span) time.Duration {
	elapsed := time.Since(sp.t0)
	c.Stages.Add(sp.stage, elapsed)
	c.Work[sp.stage] = c.Work[sp.stage].Add(c.Dev.Snapshot().Sub(sp.before))
	return elapsed
}

// Graphs bundles whichever storage formats of one GNN layer are resident
// on device. Strategies consume the format they are built around and
// translate — at a real, recorded cost — when their format is missing.
type Graphs struct {
	COO *graph.BCOO
	CSR *graph.BCSR
	CSC *graph.BCSC
}

// Shape returns (numDst, numSrc, numEdges) from whichever format is present.
func (g *Graphs) Shape() (numDst, numSrc, numEdges int) {
	switch {
	case g.CSR != nil:
		return g.CSR.NumDst, g.CSR.NumSrc, g.CSR.NumEdges()
	case g.COO != nil:
		return g.COO.NumDst, g.COO.NumSrc, g.COO.NumEdges()
	case g.CSC != nil:
		return g.CSC.NumDst, g.CSC.NumSrc, g.CSC.NumEdges()
	}
	return 0, 0, 0
}

// ensureCSR returns a CSR view, translating from COO on demand and charging
// the work to StageTranslation (the Graph-approach's recurring cost,
// Fig 5c). The translation allocates — and frees — real scratch device
// memory, so memory footprint measurements see it; the translated CSR's
// own buffer stays accounted until EndBatch, like the real framework's.
func (c *Ctx) ensureCSR(g *Graphs) (*graph.BCSR, error) {
	if g.CSR != nil {
		return g.CSR, nil
	}
	sp := c.begin(metrics.StageTranslation)
	csr, stats := graph.BCOOToBCSR(g.COO)
	scratch, err := c.header(stats.BufferBytes, "format-translation-scratch")
	if err != nil {
		return nil, err
	}
	_, err = c.header(csr.Bytes(), "translated-csr")
	scratch.buf.Free()
	if err != nil {
		return nil, err
	}
	g.CSR = csr
	c.end(sp)
	return csr, nil
}

// ensureCSC returns a CSC view, translating on demand (BWP path).
func (c *Ctx) ensureCSC(g *Graphs) (*graph.BCSC, error) {
	if g.CSC != nil {
		return g.CSC, nil
	}
	sp := c.begin(metrics.StageTranslation)
	if g.COO != nil {
		csc, stats := graph.BCOOToBCSC(g.COO)
		scratch, err := c.header(stats.BufferBytes, "format-translation-scratch")
		if err != nil {
			return nil, err
		}
		scratch.buf.Free()
		g.CSC = csc
	} else {
		g.CSC = graph.BCSRToBCSC(g.CSR)
	}
	c.end(sp)
	return g.CSC, nil
}

// ensureCOO returns a COO view, expanding from CSR on demand.
func (c *Ctx) ensureCOO(g *Graphs) *graph.BCOO {
	if g.COO == nil {
		sp := c.begin(metrics.StageTranslation)
		g.COO = graph.BCSRToBCOO(g.CSR)
		c.end(sp)
	}
	return g.COO
}

// hostCSR and hostCSC are the views the numeric pass reads a layer graph
// through when the strategy at hand traverses another format: the batch's own
// structure if it has one, else derived here — once per batch, on the host,
// uncharged — and never written back onto g. What a strategy's device needs
// it still translates and pays for (ensureCSR/ensureCSC); the values of a
// layer do not depend on which formats its schedule happens to hold.
func (c *Ctx) hostCSR(g *Graphs) *graph.BCSR {
	if g.CSR != nil {
		return g.CSR
	}
	return memoized(&c.csrOf, g.COO, func() *graph.BCSR { csr, _ := graph.BCOOToBCSR(g.COO); return csr })
}

func (c *Ctx) hostCSC(g *Graphs) *graph.BCSC {
	if g.CSC != nil {
		return g.CSC
	}
	csr := c.hostCSR(g)
	return memoized(&c.cscOf, csr, func() *graph.BCSC { return graph.BCSRToBCSC(csr) })
}
