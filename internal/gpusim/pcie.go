package gpusim

import (
	"sync/atomic"
	"time"
)

// PCIe models a device's host→device link (the T subtask of
// preprocessing) on the modeled clock only. A transfer moves no data and
// costs no wall time: it accrues modeled link time under the configured
// bandwidth and latency, with pageable buffers paying the driver staging
// overhead that pinned (page-locked) buffers avoid (§V-B, SALIENT
// comparison in §VI-B). Each device owns one engine for its lifetime, so
// what a prepare accrued is readable afterwards.
type PCIe struct {
	dev        *Device
	modeledNs  atomic.Int64
	bytesMoved atomic.Int64
}

// PCIe returns the device's transfer engine.
func (d *Device) PCIe() *PCIe { return &d.pcie }

// TransferBytes accounts a transfer of n bytes and returns its modeled
// duration. Callers pay only for what crosses the link: cache-resident
// embedding rows are device-held and are left out of n.
func (p *PCIe) TransferBytes(n int64, pinned bool) time.Duration {
	cfg := p.dev.cfg
	ns := cfg.TransferLatencyNs
	if cfg.PCIeBytesPerSec > 0 {
		ns += float64(n) / cfg.PCIeBytesPerSec * 1e9
	}
	if !pinned {
		ns *= cfg.PageableOverhead
	}
	d := time.Duration(ns)
	p.modeledNs.Add(int64(d))
	p.bytesMoved.Add(n)
	return d
}

// ModeledTime returns the total modeled transfer time accrued.
func (p *PCIe) ModeledTime() time.Duration { return time.Duration(p.modeledNs.Load()) }

// BytesMoved returns the total bytes transferred.
func (p *PCIe) BytesMoved() int64 { return p.bytesMoved.Load() }
