package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/multigpu"
)

// multiGPUShards fixes the gradient-shard count of the scale-out sweep:
// trajectories are comparable across device counts only at an identical
// shard count, and the sweep's largest group is 64 devices.
const multiGPUShards = 64

// runMultiGPU measures the data-parallel training engine built on ROC's
// balanced-edge partitioning (§VII [19]) as it scales past a single box:
// 1 (baseline) and 16/32/64 devices on the flat PCIe ring, the NVLink-style
// switched fabric, and the hierarchical two-tier fabric at 4 and 8 devices
// per node. Each batch is carved into 64 shape-fixed gradient shards;
// hierarchical groups assign shards to nodes first (LPT), pay the scatter
// and the hierarchical all-reduce on the matching tier, and overlap each
// tier's drain independently. The table reports the busiest device's work,
// the per-tier communication split (intra-node vs network, plus the
// deduplicated cross-node scatter bytes), the overlap efficiency and the
// modeled step speedup. The loss column is the proof of exactness: bitwise
// identical at every device count, node count and fabric.
func runMultiGPU(cfg Config) (string, error) {
	datasets := []string{"products", "reddit2"}
	if cfg.Quick {
		datasets = datasets[:1]
	}
	batches := cfg.batches(3)
	fabrics := []struct {
		name string
		ic   gpusim.InterconnectConfig
		dpn  int
		nGPU []int
	}{
		{"pcie-ring", gpusim.DefaultInterconnect(), 0, []int{1, 16, 32, 64}},
		{"nvlink", gpusim.NVLinkInterconnect(), 0, []int{16, 32, 64}},
		{"hier-4/node", gpusim.InterconnectConfig{}, 4, []int{16, 32, 64}},
		{"hier-8/node", gpusim.InterconnectConfig{}, 8, []int{16, 32, 64}},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-12s %5s %6s %8s %10s %10s %10s %10s %9s %8s %10s %8s %10s\n",
		"dataset", "fabric", "nGPU", "nodes", "nodeimb", "compute", "comm", "intra", "inter", "xnode MB", "overlap", "step", "speedup", "loss")
	for _, name := range datasets {
		ds, err := loadDataset(name)
		if err != nil {
			return "", err
		}
		var baseStep time.Duration
		var refLoss float64
		var pcie64, hier64 time.Duration
		for _, fb := range fabrics {
			for _, nGPU := range fb.nGPU {
				opt := frameworks.DefaultOptions()
				opt.NumDevices = nGPU
				opt.GradShards = multiGPUShards
				if fb.dpn > 0 {
					opt.DevicesPerNode = fb.dpn
				} else {
					opt.Device.Interconnect = fb.ic
				}
				tr, err := frameworks.New(frameworks.BaseGT, ds, opt)
				if err != nil {
					return "", err
				}
				var loss float64
				var st multigpu.GroupStats
				for i := 0; i < batches; i++ {
					bs, err := tr.TrainBatch()
					if err != nil {
						return "", err
					}
					loss = bs.Loss
					st = tr.Group().LastStats()
				}
				// The first row is the one-device baseline.
				if nGPU == 1 {
					baseStep, refLoss = st.StepTime, loss
				} else if loss != refLoss {
					return "", fmt.Errorf("multigpu: %s loss diverged on %s at %d devices: %v != %v (exactness rule violated)",
						name, fb.name, nGPU, loss, refLoss)
				}
				switch {
				case nGPU == 64 && fb.name == "pcie-ring":
					pcie64 = st.StepTime
				case nGPU == 64 && fb.name == "hier-8/node":
					hier64 = st.StepTime
				}
				speedup := 0.0
				if baseStep > 0 && st.StepTime > 0 {
					speedup = float64(baseStep) / float64(st.StepTime)
				}
				fmt.Fprintf(&sb, "%-12s %-12s %5d %6d %7.2fx %10s %10s %10s %10s %9.2f %7.0f%% %10s %7.2fx %10.6f\n",
					name, fb.name, nGPU, st.Nodes, st.NodeImbalance,
					st.MaxDeviceCompute.Round(time.Microsecond),
					st.CommTime.Round(time.Microsecond),
					st.IntraNodeTime.Round(time.Microsecond),
					st.InterNodeTime.Round(time.Microsecond),
					float64(st.CrossNodeBytes)/(1<<20),
					st.OverlapEfficiency*100,
					st.StepTime.Round(time.Microsecond), speedup, loss)
			}
		}
		if pcie64 > 0 && hier64 > 0 && hier64 >= pcie64 {
			return "", fmt.Errorf("multigpu: %s hierarchical step %v did not beat flat PCIe %v at 64 devices",
				name, hier64, pcie64)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("Scaling past one box: the flat PCIe ring's all-reduce pays 2(n-1)\n" +
		"latency-bound steps, so its comm term explodes at 64 devices. The\n" +
		"hierarchical fabric runs the reduce-scatter and broadcast phases on\n" +
		"NVLink-class links inside each node and only a ring of one\n" +
		"representative per node on the network, so the slow-tier step count\n" +
		"grows with nodes, not devices. Node-aware shard assignment (LPT over\n" +
		"nodes, then over each node's devices) concentrates halo overlap inside\n" +
		"a node: embedding rows shared by a node's shards cross the network\n" +
		"once (the xnode column is the deduplicated payload). Each tier's\n" +
		"scatter overlaps the previous step's drain on the same tier at that\n" +
		"tier's contention. The loss column is bitwise identical across device\n" +
		"counts, node counts and fabrics: the dst->shard partition and the\n" +
		"ascending-shard fold order are fixed by the batch shape and the shard\n" +
		"count alone; node assignment steers modeled scheduling and\n" +
		"communication only.\n")
	return sb.String(), nil
}
