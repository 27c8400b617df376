package gpusim

import "testing"

func TestPCIeAccounting(t *testing.T) {
	d := NewDevice(DefaultConfig())
	d.PCIe().TransferBytes(1<<20, true)
	// The engine is the device's own: a later PCIe() reads what an earlier
	// one accrued.
	p := d.PCIe()
	if p.BytesMoved() != 1<<20 {
		t.Errorf("bytes moved %d", p.BytesMoved())
	}
	if p.ModeledTime() <= 0 {
		t.Error("modeled time not accrued")
	}
}

func TestPCIeBandwidthScaling(t *testing.T) {
	d := NewDevice(DefaultConfig())
	p := d.PCIe()
	small := p.TransferBytes(1<<10, true)
	large := p.TransferBytes(1<<24, true)
	if large <= small {
		t.Error("larger transfer should take longer")
	}
}

func TestPCIePageablePenaltyExact(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDevice(cfg)
	p := d.PCIe()
	pinned := p.TransferBytes(1<<20, true)
	pageable := p.TransferBytes(1<<20, false)
	ratio := float64(pageable) / float64(pinned)
	// The penalty should be close to the configured overhead factor.
	if ratio < cfg.PageableOverhead*0.9 || ratio > cfg.PageableOverhead*1.1 {
		t.Errorf("pageable/pinned ratio %.2f not near %.2f", ratio, cfg.PageableOverhead)
	}
}

func TestKernelTimeModelMemoryBound(t *testing.T) {
	d := NewDevice(DefaultConfig())
	m := DefaultKernelTimeModel()
	// A kernel with huge cache traffic but few FLOPs is memory-bound.
	memBound := d.Estimate(m, Counters{FLOPs: 1, CacheBytes: 1 << 30, Launches: 1})
	compBound := d.Estimate(m, Counters{FLOPs: 1 << 30, CacheBytes: 1, Launches: 1})
	if memBound <= 0 || compBound <= 0 {
		t.Error("estimates should be positive")
	}
}
