// Package gpusim models the GPU execution behaviour the paper's evaluation
// measures, replacing the NVIDIA RTX 3090 testbed that a pure-Go build
// cannot drive. It is not a cycle simulator: it replays the *memory access
// pattern* each kernel scheduling strategy generates and counts the
// quantities the paper reports —
//
//   - device memory footprint (Fig 6a memory bloat, Fig 17a),
//   - bytes loaded into per-SM caches (Fig 6b cache bloat, Fig 17b),
//   - global memory accesses (Fig 18b),
//   - floating point operations (Fig 18a),
//   - host→device transfer time under pinned vs pageable buffers (Fig 19/20).
//
// The modeled device defaults to the paper's RTX 3090 shape: 82 SMs, each
// with an L1 data cache, 128-byte cache lines, and a fixed-capacity global
// memory. Kernels obtain one SMContext per streaming multiprocessor; a
// context is confined to a single goroutine, so access recording is
// lock-free and deterministic given a deterministic schedule.
package gpusim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the simulated device.
type Config struct {
	NumSMs          int   // streaming multiprocessors (RTX 3090: 82)
	CacheBytesPerSM int64 // L1 data cache per SM (RTX 3090: 128 KiB)
	CacheLineBytes  int64 // cache line / sector granularity
	MemoryBytes     int64 // global memory capacity (for OOM behaviour)

	// PCIeBytesPerSec is the host→device copy bandwidth used by the
	// transfer-time model; PageableOverhead multiplies the cost of
	// transfers from unpinned buffers (driver staging copy).
	PCIeBytesPerSec   float64
	PageableOverhead  float64
	TransferLatencyNs float64 // fixed per-transfer setup cost

	// Interconnect selects the device-to-device fabric a multi-device group
	// runs its gradient all-reduce over (see interconnect.go). The zero
	// value is a flat PCIe ring whose concurrent scatter pays no
	// contention; DefaultConfig installs DefaultInterconnect (PCIe ring,
	// half the scatter rate lost under a draining all-reduce).
	Interconnect InterconnectConfig
}

// DefaultConfig returns the RTX 3090-like device the paper evaluates on.
// Cache line size and per-SM cache capacity are scaled down by the same
// factor as the dataset feature dimensions (internal/datasets divides dims
// by 8), so that one embedding row spans the same number of cache lines as
// at paper scale; global memory is scaled so the paper's out-of-memory
// cases still OOM.
func DefaultConfig() Config {
	return Config{
		NumSMs:            82,
		CacheBytesPerSM:   16 << 10, // 128 KiB / feature-scale 8
		CacheLineBytes:    32,       // 128 B sectors / feature-scale
		MemoryBytes:       384 << 20,
		PCIeBytesPerSec:   12e9, // ~PCIe 4.0 x16 effective
		PageableOverhead:  2.2,  // staging copy + driver sync
		TransferLatencyNs: 8000,
		Interconnect:      DefaultInterconnect(),
	}
}

// Device is a simulated GPU. All methods are safe for concurrent use except
// where noted.
type Device struct {
	cfg Config

	mu      sync.Mutex
	nextMem int64
	inUse   int64
	peak    int64

	// pcie is the device's one host→device link engine (see PCIe).
	pcie PCIe

	// smMu guards kFree, the pool of finished launches. Kernel launches are
	// frequent (one per GNN stage per batch, per shard) and each needs a
	// header and NumSMs contexts with their cache slots; recycling them
	// across launches, header and set as one unit, removes every allocation
	// of a warm launch while preserving the cold-cache-per-kernel semantics
	// (contexts are reset at checkout).
	smMu  sync.Mutex
	kFree []*Kernel

	// dead flips once when Kill is called (fault injection): every
	// subsequent Alloc fails with *DeviceLostError. Kernels allocate
	// their outputs before running, so a killed device fails its next
	// batch at the first device operation — a clean, catchable error on
	// the existing Alloc error path, never a panic mid-kernel.
	dead atomic.Bool
	// stallNs accumulates injected modeled stall time (InjectStall):
	// transient kernel stalls and slow-replica events charge the device
	// modeled delay without touching correctness or wall-clock sleeps.
	stallNs atomic.Int64

	// Global counters aggregated across all finished kernels.
	flops        atomic.Int64
	globalLoads  atomic.Int64 // cache-line loads from global memory
	globalStores atomic.Int64
	cacheHits    atomic.Int64
	cacheBytes   atomic.Int64 // bytes brought into SM caches
	launches     atomic.Int64 // kernel launches
}

// NewDevice creates a simulated device.
func NewDevice(cfg Config) *Device {
	if cfg.NumSMs <= 0 || cfg.CacheLineBytes <= 0 {
		panic("gpusim: invalid config")
	}
	d := &Device{cfg: cfg}
	d.pcie.dev = d
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Buffer is a device memory allocation. Addresses are virtual: the
// simulator only needs them to be stable and non-overlapping so the cache
// model can distinguish data structures.
type Buffer struct {
	dev   *Device
	base  int64
	size  int64
	label string
	freed bool
}

// ErrDeviceLost is the sentinel every DeviceLostError unwraps to; use
// IsDeviceLost (or errors.Is) to classify failures that failover should
// absorb rather than report.
var ErrDeviceLost = errors.New("gpusim: device lost")

// DeviceLostError is returned by Alloc on a killed device, mirroring
// CUDA's sticky cudaErrorDevicesUnavailable: once a device dies, every
// subsequent operation on it fails until the process (here: the engine's
// failover) gives up on the device.
type DeviceLostError struct {
	Label string // the allocation that observed the death
}

func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("gpusim: device lost (allocating %q)", e.Label)
}

// Unwrap makes errors.Is(err, ErrDeviceLost) work through wrapping.
func (e *DeviceLostError) Unwrap() error { return ErrDeviceLost }

// IsDeviceLost reports whether err (anywhere in its chain) is a device
// loss — the class of failure failover absorbs.
func IsDeviceLost(err error) bool { return errors.Is(err, ErrDeviceLost) }

// ErrOutOfMemory is returned by Alloc when the allocation would exceed the
// device capacity, mirroring CUDA's cudaErrorMemoryAllocation.
type OOMError struct {
	Label     string
	Requested int64
	InUse     int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("gpusim: out of memory allocating %q (%d bytes; %d in use of %d)",
		e.Label, e.Requested, e.InUse, e.Capacity)
}

// Alloc reserves size bytes of device memory. It fails with *OOMError when
// capacity would be exceeded. Addresses come from a bump pointer that starts
// at 0 and never rewinds, so no buffer ever lies below zero: kernels reserve
// that space for data resident across launches (the weight tile).
func (d *Device) Alloc(size int64, label string) (*Buffer, error) {
	var b Buffer
	if err := d.AllocInto(&b, size, label); err != nil {
		return nil, err
	}
	return &b, nil
}

// AllocInto is Alloc into a caller-owned Buffer — the destination-passing
// form, for a caller that keeps the buffer inside a header of its own. b is
// overwritten on success and untouched on failure.
func (d *Device) AllocInto(b *Buffer, size int64, label string) error {
	if size < 0 {
		panic("gpusim: negative allocation")
	}
	if d.dead.Load() {
		return &DeviceLostError{Label: label}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.MemoryBytes > 0 && d.inUse+size > d.cfg.MemoryBytes {
		return &OOMError{Label: label, Requested: size, InUse: d.inUse, Capacity: d.cfg.MemoryBytes}
	}
	*b = Buffer{dev: d, base: d.nextMem, size: size, label: label}
	// Align the next base to a cache line so buffers never share lines.
	d.nextMem += (size + d.cfg.CacheLineBytes - 1) / d.cfg.CacheLineBytes * d.cfg.CacheLineBytes
	d.inUse += size
	if d.inUse > d.peak {
		d.peak = d.inUse
	}
	return nil
}

// Free releases the buffer. Freeing twice is a no-op, so an executor's batch
// scope (kernels.Ctx.EndBatch) can sweep every buffer a batch's kernels
// allocated whether or not the kernel already freed it.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.dev.mu.Lock()
	defer b.dev.mu.Unlock()
	b.freed = true
	b.dev.inUse -= b.size
}

// Addr returns the device address of byte offset within the buffer.
func (b *Buffer) Addr(offset int64) int64 {
	if offset < 0 || offset > b.size {
		panic(fmt.Sprintf("gpusim: offset %d outside buffer %q of %d bytes", offset, b.label, b.size))
	}
	return b.base + offset
}

// Label returns the name the buffer was allocated under.
func (b *Buffer) Label() string { return b.label }

// MemInUse returns the bytes currently allocated.
func (d *Device) MemInUse() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inUse
}

// MemPeak returns the high-water mark since the last ResetPeak.
func (d *Device) MemPeak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// ResetPeak sets the high-water mark to the current usage.
func (d *Device) ResetPeak() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peak = d.inUse
}

// Counters is a snapshot of the device-wide work counters.
type Counters struct {
	FLOPs        int64
	GlobalLoads  int64 // cache-line fills from global memory
	GlobalStores int64
	CacheHits    int64
	CacheBytes   int64 // bytes loaded into SM caches (loads × line size)
	Launches     int64 // kernel launches
}

// Snapshot returns the current device-wide counters.
func (d *Device) Snapshot() Counters {
	return Counters{
		FLOPs:        d.flops.Load(),
		GlobalLoads:  d.globalLoads.Load(),
		GlobalStores: d.globalStores.Load(),
		CacheHits:    d.cacheHits.Load(),
		CacheBytes:   d.cacheBytes.Load(),
		Launches:     d.launches.Load(),
	}
}

// Sub returns c − o, the work performed between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		FLOPs:        c.FLOPs - o.FLOPs,
		GlobalLoads:  c.GlobalLoads - o.GlobalLoads,
		GlobalStores: c.GlobalStores - o.GlobalStores,
		CacheHits:    c.CacheHits - o.CacheHits,
		CacheBytes:   c.CacheBytes - o.CacheBytes,
		Launches:     c.Launches - o.Launches,
	}
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		FLOPs:        c.FLOPs + o.FLOPs,
		GlobalLoads:  c.GlobalLoads + o.GlobalLoads,
		GlobalStores: c.GlobalStores + o.GlobalStores,
		CacheHits:    c.CacheHits + o.CacheHits,
		CacheBytes:   c.CacheBytes + o.CacheBytes,
		Launches:     c.Launches + o.Launches,
	}
}

// Kill marks the device dead: every subsequent Alloc fails with
// *DeviceLostError. Killing twice is a no-op; engines drop the device and
// degrade to the surviving set until Revive re-admits it.
func (d *Device) Kill() { d.dead.Store(true) }

// Revive clears the dead flag: the elastic-membership half of the fault
// model, a replacement device coming up under the old identity. The
// simulated hardware carries no batch state across death (the executor's
// EndBatch already freed it), so reviving is just re-opening the
// allocator; the *engine* owns re-installing weights before the device
// serves a shard. Reviving an alive device is a no-op.
func (d *Device) Revive() { d.dead.Store(false) }

// Alive reports whether the device has not been killed.
func (d *Device) Alive() bool { return !d.dead.Load() }

// InjectStall charges the device a modeled stall (a straggling kernel or
// a slow-replica episode). Purely modeled: it adjusts reported time, not
// wall time, so fault runs stay bitwise reproducible.
func (d *Device) InjectStall(delay time.Duration) {
	if delay > 0 {
		d.stallNs.Add(int64(delay))
	}
}

// StallTime returns the cumulative injected stall.
func (d *Device) StallTime() time.Duration {
	return time.Duration(d.stallNs.Load())
}

// KernelTimeModel estimates what the counted work would cost on the real
// GPU the simulator stands in for. Our kernels execute on the host CPU, so
// their wall-clock time is orders of magnitude above GPU time; end-to-end
// experiments (Fig 12a, Fig 19) combine real preprocessing wall time with
// this modeled compute time to keep the paper's prep/compute balance.
type KernelTimeModel struct {
	// FLOPSPerSec is the achieved arithmetic throughput. Small sampled-
	// batch GNN kernels reach only a few percent of the RTX 3090's 35.6
	// TFLOPS peak.
	FLOPSPerSec float64
	// BytesPerSec is the achieved global memory bandwidth.
	BytesPerSec float64
	// LaunchOverheadNs is the fixed cost per kernel launch.
	LaunchOverheadNs float64
}

// DefaultKernelTimeModel returns RTX 3090-like achieved figures. The
// achieved rates are deliberately well below the 35.6 TFLOPS / 936 GB/s
// peak: sampled-batch GNN kernels are tiny and latency-bound, so they
// realize only a few percent of peak. Calibrated so GPU compute is ~15% of
// the end-to-end latency on the paper's workloads (Fig 12a).
func DefaultKernelTimeModel() KernelTimeModel {
	return KernelTimeModel{FLOPSPerSec: 4e11, BytesPerSec: 120e9, LaunchOverheadNs: 6000}
}

// Estimate converts a counter delta into modeled GPU time: kernels are
// bounded by the slower of arithmetic and memory, plus launch overhead.
func (d *Device) Estimate(m KernelTimeModel, c Counters) time.Duration {
	arith := float64(c.FLOPs) / m.FLOPSPerSec * 1e9
	bytes := float64(c.CacheBytes+c.GlobalStores*d.cfg.CacheLineBytes) / m.BytesPerSec * 1e9
	ns := arith
	if bytes > ns {
		ns = bytes
	}
	ns += float64(c.Launches) * m.LaunchOverheadNs
	return time.Duration(ns)
}
