package gpusim

import (
	"testing"
	"time"
)

// allReduce is the collective's whole modeled time: both tiers' sum.
func allReduce(ic *Interconnect, bytes int64, n int, pinned bool) time.Duration {
	intra, inter := ic.AllReduceTiers(bytes, n, pinned)
	return intra + inter
}

// TestInterconnectAllReduceRing checks the PCIe-ring collective model
// against the closed form: 2·(n−1) steps of bytes/n, each paying the
// per-transfer latency (and the pageable factor when unpinned).
func TestInterconnectAllReduceRing(t *testing.T) {
	cfg := DefaultConfig()
	ic := NewInterconnect(cfg)
	if d := allReduce(ic, 1<<20, 1, true); d != 0 {
		t.Fatalf("1-device all-reduce costs %v, want 0", d)
	}
	const bytes, n = int64(1 << 20), 4
	got := allReduce(ic, bytes, n, true)
	per := cfg.TransferLatencyNs + float64(bytes)/float64(n)/cfg.PCIeBytesPerSec*1e9
	want := time.Duration(float64(2*(n-1)) * per)
	if got != want {
		t.Errorf("pinned ring all-reduce %v, want %v", got, want)
	}
	unpinned := allReduce(ic, bytes, n, false)
	if unpinned <= got {
		t.Errorf("pageable all-reduce %v should exceed pinned %v", unpinned, got)
	}
	if moved := ic.BytesMoved(); moved != 2*2*(n-1)*bytes {
		t.Errorf("fabric traffic %d, want %d (two collectives of 2(n-1)·bytes)", moved, 2*2*(n-1)*bytes)
	}
}

// TestInterconnectAllReduceEdgeCases: n<=1 and bytes<=0 collectives return
// zero without touching the modeled-time/bytes accumulators, on the flat
// and the hierarchical path alike.
func TestInterconnectAllReduceEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	flat := NewInterconnect(cfg)
	hierCfg := cfg
	hierCfg.Interconnect = HierarchicalInterconnect(4)
	hier := NewInterconnect(hierCfg)
	for _, ic := range []*Interconnect{flat, hier} {
		name := ic.Config().Name()
		if d := allReduce(ic, 1<<20, 1, true); d != 0 {
			t.Errorf("%s: 1-device all-reduce costs %v, want 0", name, d)
		}
		if d := allReduce(ic, 0, 8, true); d != 0 {
			t.Errorf("%s: 0-byte all-reduce costs %v, want 0", name, d)
		}
		if intra, inter := ic.AllReduceTiers(-1, 8, false); intra != 0 || inter != 0 {
			t.Errorf("%s: negative-byte all-reduce costs (%v, %v), want zero", name, intra, inter)
		}
		if d := ic.InterScatter(0, 0); d != 0 {
			t.Errorf("%s: empty inter-node scatter costs %v, want 0", name, d)
		}
		if mt, mb := ic.ModeledTime(), ic.BytesMoved(); mt != 0 || mb != 0 {
			t.Errorf("%s: degenerate collectives accrued time=%v bytes=%d, want zero", name, mt, mb)
		}
		if it, ib := ic.InterNodeTime(), ic.InterNodeBytes(); it != 0 || ib != 0 {
			t.Errorf("%s: degenerate collectives accrued inter tier time=%v bytes=%d, want zero", name, it, ib)
		}
	}
}

// TestInterconnectHierarchical checks the two-tier collective against its
// closed form: the intra tier costs one NVLink ring over the node's p
// devices, the inter tier a ring of one representative per node on the
// network, and the per-tier accumulators split accordingly.
func TestInterconnectHierarchical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interconnect = HierarchicalInterconnect(4)
	ic := NewInterconnect(cfg)

	const bytes = int64(8 << 20)
	const n, p = 16, 4
	nodes := n / p
	intra, inter := ic.AllReduceTiers(bytes, n, true)

	icc := cfg.Interconnect
	wantIntra := time.Duration(2*icc.LinkLatencyNs +
		float64(2*(p-1))*float64(bytes)/float64(p)/icc.LinkBytesPerSec*1e9)
	net := DefaultNetworkLink()
	wantInter := time.Duration(float64(2*(nodes-1)) *
		(net.HopLatencyNs + float64(bytes)/float64(nodes)/net.BytesPerSec*1e9))
	if intra != wantIntra {
		t.Errorf("intra tier %v, want %v", intra, wantIntra)
	}
	if inter != wantInter {
		t.Errorf("inter tier %v, want %v", inter, wantInter)
	}
	if got, want := ic.IntraNodeBytes(), int64(nodes)*int64(2*(p-1))*bytes; got != want {
		t.Errorf("intra-tier traffic %d, want %d", got, want)
	}
	if got, want := ic.InterNodeBytes(), int64(2*(nodes-1))*bytes; got != want {
		t.Errorf("inter-tier traffic %d, want %d", got, want)
	}
	if got, want := ic.ModeledTime(), intra+inter; got != want {
		t.Errorf("total modeled time %v, want %v", got, want)
	}
	if nn := ic.NumNodes(n); nn != nodes {
		t.Errorf("NumNodes(%d) = %d, want %d", n, nn, nodes)
	}

	// The hierarchy must beat a flat PCIe ring at the same scale: that gap
	// is the whole point of the two-tier fabric.
	flat := NewInterconnect(DefaultConfig())
	if ft := allReduce(flat, bytes, n, true); intra+inter >= ft {
		t.Errorf("hierarchical all-reduce %v should beat flat PCIe %v at n=%d", intra+inter, ft, n)
	}

	// Degenerate hierarchy: a group that fits in one node rides the intra
	// tier alone with the flat NVLink closed form.
	one := NewInterconnect(cfg)
	sIntra, sInter := one.AllReduceTiers(bytes, p, true)
	if sInter != 0 || one.InterNodeBytes() != 0 {
		t.Errorf("single-node group paid the network tier: time=%v bytes=%d", sInter, one.InterNodeBytes())
	}
	nvCfg := DefaultConfig()
	nvCfg.Interconnect = NVLinkInterconnect()
	nv := NewInterconnect(nvCfg)
	if want := allReduce(nv, bytes, p, true); sIntra != want {
		t.Errorf("single-node hierarchical ring %v, want flat NVLink %v", sIntra, want)
	}
}

// TestInterconnectInterScatter checks the cross-node scatter model: hops
// pay the network hop latency, bytes ride the network bandwidth, and the
// traffic lands on the inter tier.
func TestInterconnectInterScatter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interconnect = HierarchicalInterconnect(4)
	ic := NewInterconnect(cfg)
	net := DefaultNetworkLink()
	const bytes, hops = int64(2 << 20), 3
	got := ic.InterScatter(bytes, hops)
	want := time.Duration(float64(hops)*net.HopLatencyNs + float64(bytes)/net.BytesPerSec*1e9)
	if got != want {
		t.Errorf("inter-node scatter %v, want %v", got, want)
	}
	if ic.InterNodeBytes() != bytes {
		t.Errorf("inter-tier traffic %d, want %d", ic.InterNodeBytes(), bytes)
	}
	if ic.IntraNodeBytes() != 0 {
		t.Errorf("scatter leaked %d bytes onto the intra tier", ic.IntraNodeBytes())
	}
}

// TestInterconnectNVLink: the switched fabric is strictly faster than the
// PCIe ring (higher links, pipelined step latencies), ignores the pageable
// penalty (peer DMA), and reports zero scatter contention.
func TestInterconnectNVLink(t *testing.T) {
	cfg := DefaultConfig()
	ring := NewInterconnect(cfg)
	nvCfg := cfg
	nvCfg.Interconnect = NVLinkInterconnect()
	nv := NewInterconnect(nvCfg)

	const bytes, n = int64(4 << 20), 8
	if rt, nt := allReduce(ring, bytes, n, true), allReduce(nv, bytes, n, true); nt >= rt {
		t.Errorf("NVLink all-reduce %v should beat the PCIe ring's %v", nt, rt)
	}
	if p, u := allReduce(nv, bytes, n, true), allReduce(nv, bytes, n, false); p != u {
		t.Errorf("peer DMA must not pay the pageable factor (pinned %v vs pageable %v)", p, u)
	}
	if c := nv.OverlapContention(); c != 0 {
		t.Errorf("NVLink scatter contention %v, want 0", c)
	}
	if c := ring.OverlapContention(); c <= 0 || c >= 1 {
		t.Errorf("PCIe-ring scatter contention %v, want within (0,1)", c)
	}
}
