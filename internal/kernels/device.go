// Package kernels implements the GNN compute kernels — edge weighting
// (SDDMM), aggregation (SpMM) and combination (dense MLP) — under the four
// scheduling strategies the paper compares:
//
//   - DL-approach (PyG/NeuGraph-like, §III Fig 5a): sparse→dense conversion
//     followed by dense DL operations; pays memory bloat.
//   - Graph-approach (DGL/FeatGraph-like, §III Fig 5b/5c): edge-wise thread
//     scheduling over COO with on-the-fly COO→CSR/CSC translation; pays
//     cache bloat and format translation.
//   - GNNAdvisor-like (§VI-A): neighbor-group scheduling over CSR with
//     cross-SM synchronization on shared dst outputs.
//   - NAPA (GraphTensor, §IV-B Fig 9): destination-centric, feature-wise
//     scheduling over CSR (FWP) / CSC (BWP); no translation, no bloats.
//
// A strategy is a schedule, not an arithmetic. All of them compute the same
// layer f(h(x_s, g(x_s, x_d))), so its values come from one numeric pass
// (Ctx.aggregate, Ctx.aggregateBackward) and are bitwise the same under every
// strategy; what a strategy owns is what the paper compares — the format it
// traverses (and translates to), the intermediates it materializes as device
// bytes, and the per-SM access stream its launches replay into the gpusim
// device from geometry alone.
package kernels

import (
	"fmt"
	"math"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// DeviceMatrix pairs a host-resident matrix (the real data our kernels
// compute on) with its simulated device allocation (the addresses the cache
// model sees). The allocation lives in the header, and the header lives in
// its batch scope's slab (Ctx.hdrs): EndBatch zeroes it and the next batch
// reuses it. A handle therefore dies with its scope — using a swept one is a
// programmer error, which poison mode (poisonFreed) turns into a panic — and Detach is the
// one way out: it moves the matrix into a header of its own.
type DeviceMatrix struct {
	M   *tensor.Matrix
	buf gpusim.Buffer

	// scope is the batch scope whose slab holds the header, nil for a
	// detached one. pooled says M is borrowed from the tensor pool
	// (AllocDeviceMatrix) and goes back at Free or EndBatch; a wrapped
	// matrix's M is its caller's.
	scope  *Ctx
	pooled bool
	// dead marks a header its scope swept with poisonFreed set: it is never
	// reused, and every use of it panics.
	dead bool
}

// AllocDeviceMatrix allocates a zeroed rows×cols device matrix in c's batch
// scope, propagating OOM. Its host storage is borrowed from the tensor pool:
// M is valid until the matrix's Free or the scope's EndBatch, whichever
// comes first, and nil afterwards.
func AllocDeviceMatrix(c *Ctx, rows, cols int, label string) (*DeviceMatrix, error) {
	m := tensor.Get(rows, cols)
	dm, err := WrapDeviceMatrix(c, m, 0, label)
	if err != nil {
		tensor.Put(m)
		return nil, err
	}
	dm.pooled = true
	return dm, nil
}

// WrapDeviceMatrix registers an existing host matrix as device-resident in
// c's batch scope: Free releases the allocation early, EndBatch at the
// latest. The host matrix stays the caller's; the scope never recycles it.
// tail more bytes are accounted behind the matrix's rows in the same
// allocation and share its lifetime — what an executor stages with a
// batch's embedding rows (its graph structures) and no kernel addresses;
// zero for a plain matrix.
func WrapDeviceMatrix(c *Ctx, m *tensor.Matrix, tail int64, label string) (*DeviceMatrix, error) {
	dm, err := c.header(m.Bytes()+tail, label)
	if err != nil {
		return nil, err
	}
	dm.M = m
	return dm, nil
}

// Geom is the geometry of a device-resident float32 matrix — where its rows
// lie and how wide they are. It is all a trace pass reads of a matrix: the
// counters are functions of addresses and shapes, never of values.
type Geom struct {
	Addr       int64 // device address of row 0
	Rows, Cols int
}

// RowAddr returns the device address of row i.
func (g Geom) RowAddr(i int) int64 { return g.Addr + int64(i)*int64(g.Cols)*4 }

// RowBytes returns the byte length of one row.
func (g Geom) RowBytes() int64 { return int64(g.Cols) * 4 }

// Geom returns the matrix's geometry.
func (dm *DeviceMatrix) Geom() Geom {
	dm.live()
	return Geom{Addr: dm.buf.Addr(0), Rows: dm.M.Rows, Cols: dm.M.Cols}
}

// AllocGeom reserves the device bytes of a rows×cols matrix in c's batch
// scope and returns its geometry — an allocation with no host matrix behind
// it, for a caller that runs trace passes only (dkp.Calibrate). EndBatch
// frees it.
func AllocGeom(c *Ctx, rows, cols int, label string) (Geom, error) {
	db, err := allocDeviceBytes(c, rows, cols, label)
	return db.Geom, err
}

// deviceBytes is an intermediate a strategy materializes on the device and
// no numeric pass reads — a per-edge gather, a weight matrix, a partial-sum
// slab: its geometry, for the launches that address it, and its allocation,
// so it dies where the strategy frees it and MemPeak sees exactly that.
type deviceBytes struct {
	Geom
	buf *gpusim.Buffer
}

// Free releases the allocation ahead of the scope's EndBatch; the zero value
// (an intermediate a mode does not need) frees nothing.
func (db deviceBytes) Free() { db.buf.Free() }

func allocDeviceBytes(c *Ctx, rows, cols int, label string) (deviceBytes, error) {
	h, err := c.header(int64(rows)*int64(cols)*4, label)
	if err != nil {
		return deviceBytes{}, err
	}
	return deviceBytes{Geom{Addr: h.buf.Addr(0), Rows: rows, Cols: cols}, &h.buf}, nil
}

// RowAddr returns the device address of row i.
func (dm *DeviceMatrix) RowAddr(i int) int64 {
	dm.live()
	return dm.buf.Addr(int64(i) * int64(dm.M.Cols) * 4)
}

// RowBytes returns the byte length of one row.
func (dm *DeviceMatrix) RowBytes() int64 { return int64(dm.M.Cols) * 4 }

// Free releases the device allocation and, for a matrix allocated in a batch
// scope, hands M's storage back to the tensor pool. Freeing twice is a
// no-op, and so is freeing a detached matrix after its scope ended.
func (dm *DeviceMatrix) Free() {
	if dm == nil {
		return
	}
	dm.live()
	if dm.M == nil { // storage already back, or the header was detached from
		return
	}
	dm.buf.Free()
	dm.giveBack()
}

// Detach moves the matrix out of its batch scope into a header of its own
// and returns that header, for a result that outlives its batch
// (Engine.Infer's logits). The scope never recycles the returned M, but its
// device bytes are still the scope's and go at EndBatch: the record moves
// with them, so they are freed once. The header dm is dead from here on.
func (dm *DeviceMatrix) Detach() *DeviceMatrix {
	dm.live()
	c := dm.scope
	if c == nil {
		return dm
	}
	d := &DeviceMatrix{M: dm.M, buf: dm.buf}
	for i := len(c.bufs) - 1; i >= 0; i-- {
		if c.bufs[i] == &dm.buf {
			c.bufs[i] = &d.buf
			break
		}
	}
	dm.M, dm.scope, dm.pooled = nil, nil, false
	return d
}

// poisonFreed makes giveBack fill a matrix with NaN on its way to the pool,
// so a read past the lifetime AllocDeviceMatrix states shows up in a result,
// and makes EndBatch retire the headers it sweeps instead of reusing them,
// so a handle used past its scope panics (live). Tests set it while no
// engine runs; it is package-wide, not a Ctx field, because a server's
// replicas build their Ctx where no test can reach it.
var poisonFreed bool

// live panics on a header its scope swept in poison mode.
func (dm *DeviceMatrix) live() {
	if dm.dead {
		panic(fmt.Sprintf("kernels: device matrix %q used after its batch scope ended", dm.buf.Label()))
	}
}

// giveBack returns pooled storage to the tensor pool.
func (dm *DeviceMatrix) giveBack() {
	if !dm.pooled {
		return
	}
	if poisonFreed {
		dm.M.Fill(float32(math.NaN()))
	}
	tensor.Put(dm.M)
	dm.M, dm.pooled = nil, false
}

// smBody is the body of a simulated launch on one SM: units [lo, hi) of the
// launch, on sm, the context of SM smID. A trace pass passes a top-level
// function that reads the rest of its arguments from c.trace, so dispatching
// a launch allocates nothing.
type smBody func(c *Ctx, sm *gpusim.SMContext, smID, lo, hi int)

// smRun carries one simulated kernel launch onto the shared worker pool.
// The dispatch unit is the SM index: each claimed SM is processed start to
// finish by exactly one participant, so per-SM access streams — and with
// them the modeled counters — are deterministic at any worker count. The one
// instance is owned by the Ctx, whose launches are sequential.
type smRun struct {
	c      *Ctx
	k      *gpusim.Kernel
	n      int
	numSMs int
	chunk  int
	body   smBody
}

// smStripeTask replays units u ≡ smID (mod numSMs) on each claimed SM, in
// ascending unit order — the same per-SM stream the serial path produces.
func smStripeTask(arg any, lo, hi int) {
	r := arg.(*smRun)
	for smID := lo; smID < hi; smID++ {
		sm := r.k.SM(smID)
		for u := smID; u < r.n; u += r.numSMs {
			r.body(r.c, sm, smID, u, u+1)
		}
	}
}

// smChunkTask hands each claimed SM its contiguous unit range.
func smChunkTask(arg any, lo, hi int) {
	r := arg.(*smRun)
	for smID := lo; smID < hi; smID++ {
		cLo, cHi := smID*r.chunk, min((smID+1)*r.chunk, r.n)
		if cLo >= r.n {
			return
		}
		r.body(r.c, r.k.SM(smID), smID, cLo, cHi)
	}
}

// runSMs executes a kernel across the simulated SMs: work unit u of n is
// processed on SM (u mod NumSMs) in per-SM submission order, one body call
// per unit. Real parallelism dispatches SM indices onto the shared worker
// pool; each SM context is claimed by exactly one participant, so access
// recording is race-free and the per-SM access streams are deterministic.
func (c *Ctx) runSMs(k *gpusim.Kernel, n int, body smBody) {
	c.dispatch(k, n, 0, body, smStripeTask)
}

// runSMsChunked partitions n work units into NumSMs contiguous chunks, one
// per SM (the scheduling NAPA uses: all features of one dst stay on one
// SM, and consecutive dsts map to the same SM run).
func (c *Ctx) runSMsChunked(k *gpusim.Kernel, n int, body smBody) {
	numSMs := k.NumSMs()
	c.dispatch(k, n, (n+numSMs-1)/numSMs, body, smChunkTask)
}

// dispatch runs task over the SMs of k: on the calling goroutine when the
// pool offers no second worker, on the pool otherwise.
func (c *Ctx) dispatch(k *gpusim.Kernel, n, chunk int, body smBody, task func(arg any, lo, hi int)) {
	if n == 0 {
		return
	}
	numSMs := k.NumSMs()
	r := &c.smRun
	*r = smRun{c: c, k: k, n: n, numSMs: numSMs, chunk: chunk, body: body}
	if workers := sched.Workers(numSMs); workers <= 1 {
		task(r, 0, numSMs)
	} else {
		sched.RunChunk(numSMs, 1, workers, r, task)
	}
	*r = smRun{}
}

// traceArgs is the argument block of the trace pass in flight: what a
// launch's per-SM body reads besides its SM and unit range. Like Ctx.napa it
// is owned by the Ctx, and finish zeroes it after every launch, so the Ctx
// pins no batch storage between launches. Each launch documents which
// fields it sets.
type traceArgs struct {
	csr *graph.BCSR
	csc *graph.BCSC
	coo *graph.BCOO
	// in is the matrix a launch reads row by row (x, a GEMM's input), grad
	// the upstream gradient, out the matrix it writes.
	in, grad, out Geom
	// edges and edges2 are per-edge (or per-group) device matrices: weights,
	// gathered rows, messages, partial sums.
	edges, edges2 Geom
	// idx holds a launch's structural indices: edge-block or neighbour-group
	// boundaries, merge holder counts, CSC→CSR edge ids.
	idx []int32
	// act is traceDW's activation matrix when it has a zero (nil: zero-free).
	act      *tensor.Matrix
	flops    int64 // per-row or per-edge FLOPs, as the launch states
	unit     int64 // the row size offered to every SM (Ctx.rowUnit)
	weighted bool  // the launch also reads dst rows or per-edge messages
}

// finish closes launch k and forgets its trace arguments.
func (c *Ctx) finish(k *gpusim.Kernel) {
	k.Finish()
	c.trace = traceArgs{}
}
