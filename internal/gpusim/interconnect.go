package gpusim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Topology selects the device-to-device interconnect model a multi-device
// group's gradient all-reduce runs over.
type Topology int

const (
	// TopologyPCIeRing is the default: a flat ring over each device's PCIe
	// link (peer traffic crosses the host root complex). Collective steps
	// serialize hop by hop and contend with concurrent host→device traffic
	// on the same fabric.
	TopologyPCIeRing Topology = iota
	// TopologyNVLink is an NVLink-style switched fabric: much higher
	// per-link bandwidth, the ring's per-step latencies pipeline through
	// the switch, peer DMA skips the pageable staging penalty, and —
	// decisive for overlap — the collective leaves the PCIe links free, so
	// a concurrent input scatter proceeds at full rate.
	TopologyNVLink
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopologyPCIeRing:
		return "pcie-ring"
	case TopologyNVLink:
		return "nvlink"
	}
	return "topology?"
}

// NetworkLink models the inter-node tier of a hierarchical fabric: an
// Ethernet/InfiniBand-class network connecting the nodes of a multi-node
// group. It has no pinned/pageable distinction (RDMA transports bypass the
// host staging copy) and its per-hop latency is paid on every collective
// step — node-to-node hops cannot pipeline through a switch the way
// intra-node NVLink steps do.
type NetworkLink struct {
	// BytesPerSec is the per-direction node-to-node bandwidth.
	BytesPerSec float64
	// HopLatencyNs is the fixed setup cost of one inter-node hop
	// (collective step or scatter transfer).
	HopLatencyNs float64
	// Contention is the fraction of cross-node scatter rate lost while an
	// inter-node collective drains on the same network (the network-tier
	// analogue of InterconnectConfig.OverlapContention).
	Contention float64
}

// DefaultNetworkLink returns the inter-node network the hierarchical fabric
// models by default: an HDR InfiniBand-class link (~200 Gb/s per direction),
// microsecond-scale hop setup, and a quarter of the scatter rate lost under
// a draining inter-node collective (the NIC is shared, but scatter and
// collective steps interleave).
func DefaultNetworkLink() NetworkLink {
	return NetworkLink{
		BytesPerSec:  25e9,
		HopLatencyNs: 5000,
		Contention:   0.25,
	}
}

// InterconnectConfig describes the interconnect of a device group.
type InterconnectConfig struct {
	Topology Topology
	// LinkBytesPerSec is the per-direction device-to-device bandwidth; 0
	// falls back to the device's PCIe bandwidth (the flat-ring default).
	LinkBytesPerSec float64
	// LinkLatencyNs is the fixed setup cost of one collective step; 0 falls
	// back to the device's TransferLatencyNs.
	LinkLatencyNs float64
	// OverlapContention is the fraction of host→device scatter rate lost
	// while a collective drains on a shared fabric: 0 means the scatter
	// proceeds at full speed during the previous step's all-reduce
	// (separate fabrics, NVLink), 1 means no overlap at all (fully shared
	// link). The DeviceGroup uses it to model the overlapped schedule.
	OverlapContention float64

	// DevicesPerNode splits the group into nodes of this size, turning the
	// flat fabric into a two-tier hierarchy: the link parameters above
	// become the intra-node tier and Network becomes the inter-node tier.
	// 0 (the default) keeps the whole group on one flat single-node
	// fabric.
	DevicesPerNode int
	// Network is the inter-node tier of a hierarchical fabric (ignored
	// while DevicesPerNode is 0). Zero-valued fields fall back to
	// DefaultNetworkLink.
	Network NetworkLink
}

// Name labels the configured fabric for reports: the topology name, with
// the node size appended for hierarchical fabrics ("hier-4/node").
func (c InterconnectConfig) Name() string {
	if c.DevicesPerNode > 0 {
		return fmt.Sprintf("hier-%d/node", c.DevicesPerNode)
	}
	return c.Topology.String()
}

// DefaultInterconnect returns the flat PCIe-ring interconnect: link
// parameters inherited from the device's PCIe model, and half of the
// scatter rate lost while an all-reduce shares the fabric.
func DefaultInterconnect() InterconnectConfig {
	return InterconnectConfig{Topology: TopologyPCIeRing, OverlapContention: 0.5}
}

// NVLinkInterconnect returns an NVLink-style option (RTX 3090 NVLink
// bridge class, ~4x the modeled PCIe bandwidth): the collective runs on
// its own fabric, so a concurrent scatter pays no contention.
func NVLinkInterconnect() InterconnectConfig {
	return InterconnectConfig{
		Topology:          TopologyNVLink,
		LinkBytesPerSec:   48e9,
		LinkLatencyNs:     1300,
		OverlapContention: 0,
	}
}

// HierarchicalInterconnect returns the two-tier fabric of a multi-node
// group: NVLink-class links inside each node of devsPerNode devices, and
// the default Ethernet/IB-class network between nodes. The hierarchical
// all-reduce runs its reduce-scatter and broadcast on the fast intra-node
// tier and only the per-node ring on the network, which is what lets the
// modeled step keep scaling past a single box.
func HierarchicalInterconnect(devsPerNode int) InterconnectConfig {
	ic := NVLinkInterconnect()
	ic.DevicesPerNode = devsPerNode
	ic.Network = DefaultNetworkLink()
	return ic
}

// Interconnect is the accounting engine of a device group's collective
// fabric — the peer-to-peer analogue of the per-device PCIe engine. It
// models ring all-reduce time under the configured topology (hierarchically
// when the config declares nodes) and accrues the modeled traffic per tier.
type Interconnect struct {
	cfg InterconnectConfig
	dev Config

	// Per-tier accumulators: intra counts device-to-device traffic inside a
	// node (the whole collective on a flat single-node fabric), inter
	// counts node-to-node network traffic (collective steps plus cross-node
	// scatter). ModeledTime/BytesMoved report their sums.
	intraNs    atomic.Int64
	interNs    atomic.Int64
	intraBytes atomic.Int64
	interBytes atomic.Int64

	// Link degradation (fault injection): the network tier runs at
	// degradeFactor × bandwidth with degradeExtraNs added to every hop
	// while a chaos plan declares a degradation window. Stored as atomics
	// so the batch-boundary writer never races concurrent device workers
	// reading network(). Zero degradeFactor bits mean healthy (factor 1).
	degradeFactor  atomic.Uint64
	degradeExtraNs atomic.Int64
}

// NewInterconnect builds the engine from a device config (whose
// Interconnect field selects the topology and whose PCIe numbers are the
// fallback link parameters).
func NewInterconnect(dev Config) *Interconnect {
	return &Interconnect{cfg: dev.Interconnect, dev: dev}
}

// Config returns the interconnect configuration.
func (ic *Interconnect) Config() InterconnectConfig { return ic.cfg }

// linkParams resolves the effective per-step bandwidth and latency of the
// intra-node tier.
func (ic *Interconnect) linkParams() (bw, latNs float64) {
	bw = ic.cfg.LinkBytesPerSec
	if bw <= 0 {
		bw = ic.dev.PCIeBytesPerSec
	}
	latNs = ic.cfg.LinkLatencyNs
	if latNs <= 0 {
		latNs = ic.dev.TransferLatencyNs
	}
	return bw, latNs
}

// network resolves the effective inter-node tier parameters (zero-valued
// config fields fall back to DefaultNetworkLink), with any active link
// degradation applied: bandwidth scaled down by the degradation factor and
// the extra per-hop latency added. Degradation shapes modeled time only —
// collective results and fold order never see it.
func (ic *Interconnect) network() NetworkLink {
	net := ic.cfg.Network
	def := DefaultNetworkLink()
	if net.BytesPerSec <= 0 {
		net.BytesPerSec = def.BytesPerSec
	}
	if net.HopLatencyNs <= 0 {
		net.HopLatencyNs = def.HopLatencyNs
	}
	if bits := ic.degradeFactor.Load(); bits != 0 {
		if f := math.Float64frombits(bits); f > 0 && f < 1 {
			net.BytesPerSec *= f
		}
	}
	if extra := ic.degradeExtraNs.Load(); extra > 0 {
		net.HopLatencyNs += float64(extra)
	}
	return net
}

// SetLinkDegradation installs (or, with factor >= 1 and extra 0, clears)
// the network tier's degradation state: bandwidth scaled by factor, extra
// added to every hop. Engines call it at batch boundaries from the chaos
// plan's LinkDegraded verdict; flat single-node fabrics have no network
// tier, so degradation is inert there by construction.
func (ic *Interconnect) SetLinkDegradation(factor float64, extra time.Duration) {
	if factor >= 1 {
		ic.degradeFactor.Store(0)
	} else {
		if factor <= 0 {
			factor = 0.25
		}
		ic.degradeFactor.Store(math.Float64bits(factor))
	}
	ic.degradeExtraNs.Store(int64(extra))
}

// LinkDegradation reports the installed degradation (factor 1, extra 0
// when healthy).
func (ic *Interconnect) LinkDegradation() (factor float64, extra time.Duration) {
	factor = 1
	if bits := ic.degradeFactor.Load(); bits != 0 {
		factor = math.Float64frombits(bits)
	}
	return factor, time.Duration(ic.degradeExtraNs.Load())
}

// NumNodes returns how many nodes a collective over n devices spans under
// the configured node size (1 on a flat fabric).
func (ic *Interconnect) NumNodes(n int) int {
	p := ic.cfg.DevicesPerNode
	if p <= 0 || n <= 0 {
		return 1
	}
	return (n + p - 1) / p
}

// ringNs is the closed-form flat ring all-reduce over m devices on the
// intra-node tier: 2·(m−1) steps of bytes/m. On the PCIe ring each step
// pays the full per-transfer latency (and the pageable staging penalty when
// pinned is false) exactly as the per-device engine would; on NVLink the
// steps pipeline through the switch, so only the two phase latencies are
// exposed and peer DMA never pays the pageable factor.
func (ic *Interconnect) ringNs(bytes int64, m int, pinned bool) float64 {
	bw, latNs := ic.linkParams()
	steps := 2 * (m - 1)
	chunk := float64(bytes) / float64(m)
	switch ic.cfg.Topology {
	case TopologyNVLink:
		return 2*latNs + float64(steps)*chunk/bw*1e9
	default:
		per := latNs + chunk/bw*1e9
		if !pinned {
			per *= ic.dev.PageableOverhead
		}
		return float64(steps) * per
	}
}

// AllReduceTiers accounts an all-reduce of `bytes` gradient bytes across n
// devices and returns its per-tier modeled per-device time. On a flat fabric the whole ring runs on the intra tier. On a
// hierarchical fabric (DevicesPerNode > 0 spanning more than one node) the
// collective is hierarchical:
//
//  1. intra-node reduce-scatter — m−1 steps of bytes/m on the fast tier,
//  2. inter-node ring all-reduce over one representative per node —
//     2·(nodes−1) steps of bytes/nodes on the network, each paying the
//     per-hop latency (inter-node steps never pipeline and never pay the
//     pageable factor: RDMA),
//  3. intra-node broadcast of the folded result — m−1 steps of bytes/m.
//
// Phases 1+3 together cost exactly one flat ring over the node's m devices;
// only the (much shorter) per-node ring touches the slow tier, which is why
// the hierarchy keeps scaling past a single box. n <= 1 or bytes <= 0
// return (0, 0) without touching the modeled-time/bytes accumulators on
// either path.
func (ic *Interconnect) AllReduceTiers(bytes int64, n int, pinned bool) (intra, inter time.Duration) {
	if n <= 1 || bytes <= 0 {
		return 0, 0
	}
	p := ic.cfg.DevicesPerNode
	if p <= 0 || p >= n {
		// Flat fabric (or a hierarchy degenerated to one node): the whole
		// collective rides the intra tier.
		d := time.Duration(ic.ringNs(bytes, n, pinned))
		ic.intraNs.Add(int64(d))
		ic.intraBytes.Add(int64(2*(n-1)) * bytes) // n devices × 2(n−1) chunks of bytes/n
		return d, 0
	}
	nodes := (n + p - 1) / p
	intra = time.Duration(ic.ringNs(bytes, p, pinned))
	net := ic.network()
	chunk := float64(bytes) / float64(nodes)
	inter = time.Duration(float64(2*(nodes-1)) * (net.HopLatencyNs + chunk/net.BytesPerSec*1e9))
	ic.intraNs.Add(int64(intra))
	ic.interNs.Add(int64(inter))
	// Fabric traffic: a ring of p inside each of the nodes, a ring of
	// `nodes` representatives on the network.
	ic.intraBytes.Add(int64(nodes) * int64(2*(p-1)) * bytes)
	ic.interBytes.Add(int64(2*(nodes-1)) * bytes)
	return intra, inter
}

// InterScatter accounts a cross-node host→node transfer on the network
// tier: `hops` per-transfer setups plus bytes at the link rate, serialized
// on the producer node's uplink. bytes <= 0 and hops <= 0 return 0 without
// touching the accumulators.
func (ic *Interconnect) InterScatter(bytes int64, hops int) time.Duration {
	if bytes <= 0 && hops <= 0 {
		return 0
	}
	if bytes < 0 {
		bytes = 0
	}
	if hops < 0 {
		hops = 0
	}
	net := ic.network()
	d := time.Duration(float64(hops)*net.HopLatencyNs + float64(bytes)/net.BytesPerSec*1e9)
	ic.interNs.Add(int64(d))
	ic.interBytes.Add(bytes)
	return d
}

// Broadcast accounts a one-source weight reinstall — the modeled cost of
// an elastic rejoin, where one survivor streams the full weight snapshot to
// the returning device. crossNode selects the tier: false is one
// device-to-device transfer on the intra tier (paying the pageable staging
// factor on a PCIe fabric when pinned is false), true is one network hop on
// the inter tier (RDMA — no pageable factor, but any active link
// degradation applies). bytes <= 0 returns 0 without touching the
// accumulators.
func (ic *Interconnect) Broadcast(bytes int64, crossNode, pinned bool) time.Duration {
	if bytes <= 0 {
		return 0
	}
	if crossNode {
		net := ic.network()
		d := time.Duration(net.HopLatencyNs + float64(bytes)/net.BytesPerSec*1e9)
		ic.interNs.Add(int64(d))
		ic.interBytes.Add(bytes)
		return d
	}
	bw, latNs := ic.linkParams()
	ns := latNs + float64(bytes)/bw*1e9
	if ic.cfg.Topology != TopologyNVLink && !pinned {
		ns *= ic.dev.PageableOverhead
	}
	d := time.Duration(ns)
	ic.intraNs.Add(int64(d))
	ic.intraBytes.Add(bytes)
	return d
}

// OverlapContention returns the configured intra-tier scatter-rate loss
// factor.
func (ic *Interconnect) OverlapContention() float64 {
	return clamp01(ic.cfg.OverlapContention)
}

// NetworkContention returns the inter-node tier's scatter-rate loss factor.
func (ic *Interconnect) NetworkContention() float64 {
	return clamp01(ic.cfg.Network.Contention)
}

func clamp01(c float64) float64 {
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// ModeledTime returns the cumulative modeled collective time (both tiers).
func (ic *Interconnect) ModeledTime() time.Duration {
	return time.Duration(ic.intraNs.Load() + ic.interNs.Load())
}

// BytesMoved returns the cumulative fabric traffic (both tiers).
func (ic *Interconnect) BytesMoved() int64 { return ic.intraBytes.Load() + ic.interBytes.Load() }

// IntraNodeTime returns the cumulative modeled time on the intra-node tier.
func (ic *Interconnect) IntraNodeTime() time.Duration { return time.Duration(ic.intraNs.Load()) }

// InterNodeTime returns the cumulative modeled time on the network tier.
func (ic *Interconnect) InterNodeTime() time.Duration { return time.Duration(ic.interNs.Load()) }

// IntraNodeBytes returns the cumulative intra-node fabric traffic.
func (ic *Interconnect) IntraNodeBytes() int64 { return ic.intraBytes.Load() }

// InterNodeBytes returns the cumulative network-tier traffic (collective
// steps plus cross-node scatter).
func (ic *Interconnect) InterNodeBytes() int64 { return ic.interBytes.Load() }
