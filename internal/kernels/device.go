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
	"math"
	"sync"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// DeviceMatrix pairs a host-resident matrix (the real data our kernels
// compute on) with its simulated device allocation (the addresses the cache
// model sees).
type DeviceMatrix struct {
	M   *tensor.Matrix
	Buf *gpusim.Buffer

	// scope is the batch scope M's storage is borrowed from — set by
	// AllocDeviceMatrix, nil for a wrapped matrix (M is its caller's) and
	// once the storage went back or was detached.
	scope *Ctx
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
	dm.scope = c
	c.mats = append(c.mats, dm)
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
	buf, err := c.alloc(m.Bytes()+tail, label)
	if err != nil {
		return nil, err
	}
	return &DeviceMatrix{M: m, Buf: buf}, nil
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
	return Geom{Addr: dm.Buf.Addr(0), Rows: dm.M.Rows, Cols: dm.M.Cols}
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
	buf, err := c.alloc(int64(rows)*int64(cols)*4, label)
	if err != nil {
		return deviceBytes{}, err
	}
	return deviceBytes{Geom{Addr: buf.Addr(0), Rows: rows, Cols: cols}, buf}, nil
}

// RowAddr returns the device address of row i.
func (dm *DeviceMatrix) RowAddr(i int) int64 {
	return dm.Buf.Addr(int64(i) * int64(dm.M.Cols) * 4)
}

// RowBytes returns the byte length of one row.
func (dm *DeviceMatrix) RowBytes() int64 { return int64(dm.M.Cols) * 4 }

// Free releases the device allocation and, for a matrix allocated in a batch
// scope, hands M's storage back to the tensor pool. Freeing twice is a no-op.
func (dm *DeviceMatrix) Free() {
	if dm == nil {
		return
	}
	dm.Buf.Free()
	dm.giveBack()
}

// Detach makes M the caller's: the scope that allocated the matrix will not
// recycle its storage, at Free or at EndBatch. For a result that outlives
// its batch (Engine.Infer's logits).
func (dm *DeviceMatrix) Detach() { dm.scope = nil }

// poisonFreed makes giveBack fill a matrix with NaN on its way to the pool,
// so a read past the lifetime AllocDeviceMatrix states shows up in a result.
// Tests set it while no engine runs; it is package-wide, not a Ctx field,
// because a server's replicas build their Ctx where no test can reach it.
var poisonFreed bool

// giveBack returns scope-owned storage to the tensor pool.
func (dm *DeviceMatrix) giveBack() {
	if dm.scope == nil {
		return
	}
	if poisonFreed {
		dm.M.Fill(float32(math.NaN()))
	}
	tensor.Put(dm.M)
	dm.M, dm.scope = nil, nil
}

// smRun carries one simulated kernel launch onto the shared worker pool.
// The dispatch unit is the SM index: each claimed SM is processed start to
// finish by exactly one participant, so per-SM access streams — and with
// them the modeled counters — are deterministic at any worker count.
// Instances are pooled so steady-state launches allocate only the kernel
// body's own closure.
type smRun struct {
	k      *gpusim.Kernel
	n      int
	numSMs int
	chunk  int
	fn     func(sm *gpusim.SMContext, unit int)
	fnIdx  func(sm *gpusim.SMContext, smID, lo, hi int)
}

var smRunPool = sync.Pool{New: func() any { return new(smRun) }}

func getSMRun(k *gpusim.Kernel, n int) *smRun {
	r := smRunPool.Get().(*smRun)
	r.k, r.n, r.numSMs = k, n, k.NumSMs()
	return r
}

func putSMRun(r *smRun) {
	*r = smRun{}
	smRunPool.Put(r)
}

// smStripeTask replays units u ≡ smID (mod numSMs) on each claimed SM, in
// ascending unit order — the same per-SM stream the serial path produces.
func smStripeTask(ctx any, lo, hi int) {
	r := ctx.(*smRun)
	for smID := lo; smID < hi; smID++ {
		sm := r.k.SM(smID)
		for u := smID; u < r.n; u += r.numSMs {
			r.fn(sm, u)
		}
	}
}

// smChunkTask hands each claimed SM its contiguous [lo,hi) unit range.
func smChunkTask(ctx any, lo, hi int) {
	r := ctx.(*smRun)
	for smID := lo; smID < hi; smID++ {
		cLo, cHi := smID*r.chunk, (smID+1)*r.chunk
		if cLo >= r.n {
			return
		}
		if cHi > r.n {
			cHi = r.n
		}
		r.fnIdx(r.k.SM(smID), smID, cLo, cHi)
	}
}

// runSMs executes a kernel across the simulated SMs: work unit u of n is
// processed on SM (u mod NumSMs) in per-SM submission order. Real
// parallelism dispatches SM indices onto the shared worker pool; each SM
// context is claimed by exactly one participant, so access recording is
// race-free and the per-SM access streams are deterministic.
func runSMs(k *gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, unit int)) {
	numSMs := k.NumSMs()
	workers := sched.Workers(numSMs)
	if n == 0 {
		return
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			fn(k.SM(u%numSMs), u)
		}
		return
	}
	r := getSMRun(k, n)
	r.fn = fn
	sched.RunChunk(numSMs, 1, workers, r, smStripeTask)
	putSMRun(r)
}

// runSMsChunked partitions n work units into NumSMs contiguous chunks, one
// per SM (the scheduling NAPA uses: all features of one dst stay on one
// SM, and consecutive dsts map to the same SM run).
func runSMsChunked(k *gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, lo, hi int)) {
	runSMsChunkedIdx(k, n, func(sm *gpusim.SMContext, _, lo, hi int) { fn(sm, lo, hi) })
}

// runSMsChunkedIdx is runSMsChunked but also hands fn the SM index, which
// kernels use to pick their per-SM scratch rows from the Ctx workspace.
func runSMsChunkedIdx(k *gpusim.Kernel, n int, fn func(sm *gpusim.SMContext, smID, lo, hi int)) {
	numSMs := k.NumSMs()
	workers := sched.Workers(numSMs)
	if n == 0 {
		return
	}
	chunk := (n + numSMs - 1) / numSMs
	if workers <= 1 {
		for smID := 0; smID < numSMs; smID++ {
			lo, hi := smID*chunk, (smID+1)*chunk
			if lo >= n {
				break
			}
			if hi > n {
				hi = n
			}
			fn(k.SM(smID), smID, lo, hi)
		}
		return
	}
	r := getSMRun(k, n)
	r.chunk, r.fnIdx = chunk, fn
	sched.RunChunk(numSMs, 1, workers, r, smChunkTask)
	putSMRun(r)
}
