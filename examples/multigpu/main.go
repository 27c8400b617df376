// Multi-GPU data-parallel training
// ================================
//
// This example trains a GCN end to end on a group of simulated GPUs and
// demonstrates the three properties of the data-parallel engine:
//
//  1. Exactness. Every batch is carved into a fixed number of edge-balanced
//     gradient shards (ROC's balanced-SpMM partitioning, §VII [19]); the
//     per-shard gradients are folded in a fixed order during the modeled
//     all-reduce, so the per-epoch losses printed for the 1-device,
//     4-device and hierarchical 16-device runs are BITWISE IDENTICAL — not
//     merely close. Node assignment on the hierarchical fabric steers
//     modeled scheduling and communication only.
//  2. Scaling. The busiest device's kernel work falls ~linearly with the
//     device count, at the price of a communication term (the gradient
//     all-reduce plus the sub-batch scatter). Past one box the fabric goes
//     hierarchical: NVLink-class links inside each 4-device node, a modeled
//     network between nodes, and a two-tier collective whose slow-tier step
//     count grows with nodes, not devices — the per-tier split is reported
//     below from the gpusim interconnect model.
//  3. Hygiene. A batch's device memory is scoped to its executor; after
//     every batch — and after the run — every device reports
//     MemInUse() == 0.
//
// Run it with:
//
//	go run ./examples/multigpu
package main

import (
	"fmt"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/train"
)

// gradShards fixes the partition for every run: trajectories are bitwise
// comparable across device counts and fabrics only at an identical shard
// count, and the largest group below is 16 devices.
const gradShards = 16

func trainRun(ds *datasets.Dataset, numDevices, devsPerNode, epochs int) (*train.History, *frameworks.Trainer, error) {
	opt := frameworks.DefaultOptions()
	opt.NumDevices = numDevices
	opt.GradShards = gradShards
	// devsPerNode > 0 swaps the flat fabric for the two-tier hierarchical
	// interconnect (NVLink intra-node, modeled network inter-node) and
	// makes the group node-aware end to end.
	opt.DevicesPerNode = devsPerNode
	// Dynamic-GT: the fitted placement policy is live on every device —
	// decisions are a pure function of the fitted cost profile and each
	// gradient shard's shape, so they cannot differ between runs.
	tr, err := frameworks.New(frameworks.DynamicGT, ds, opt)
	if err != nil {
		return nil, nil, err
	}
	cfg := train.Config{Epochs: epochs, BatchesPerEpoch: 10, LearningRate: 0.05, ValEvery: 2}
	h, err := train.NewDriver(tr, cfg, ds.BatchDsts(300, 999)).Run()
	return h, tr, err
}

func main() {
	ds, err := datasets.Generate("reddit2", datasets.DefaultScale())
	if err != nil {
		panic(err)
	}
	const epochs = 4

	one, oneTr, err := trainRun(ds, 1, 0, epochs)
	if err != nil {
		panic(err)
	}
	four, fourTr, err := trainRun(ds, 4, 0, epochs)
	if err != nil {
		panic(err)
	}
	// 16 devices as 4 nodes of 4 over the hierarchical fabric.
	hier, hierTr, err := trainRun(ds, 16, 4, epochs)
	if err != nil {
		panic(err)
	}

	fmt.Println("epoch   loss (1 device)       loss (4 dev, flat)    loss (16 dev, 4/node)  bitwise")
	for e := 0; e < epochs; e++ {
		l1, l4, l16 := one.Epochs[e].MeanLoss, four.Epochs[e].MeanLoss, hier.Epochs[e].MeanLoss
		match := "==" // the whole point
		if l1 != l4 || l1 != l16 {
			match = "DIFFER"
		}
		fmt.Printf("%5d   %-20.17f  %-20.17f  %-20.17f   %s\n", e, l1, l4, l16, match)
	}

	st1, st4, st16 := oneTr.Group().LastStats(), fourTr.Group().LastStats(), hierTr.Group().LastStats()
	fmt.Printf("\n%-22s %14s %14s %16s\n", "last-batch stats", "1 device", "4 dev flat", "16 dev 4/node")
	fmt.Printf("%-22s %13.2fx %13.2fx %15.2fx\n", "shard imbalance", st1.Imbalance, st4.Imbalance, st16.Imbalance)
	fmt.Printf("%-22s %13.2fx %13.2fx %15.2fx\n", "node imbalance", st1.NodeImbalance, st4.NodeImbalance, st16.NodeImbalance)
	fmt.Printf("%-22s %14d %14d %16d\n", "peak device FLOPs", st1.PeakDeviceFLOPs, st4.PeakDeviceFLOPs, st16.PeakDeviceFLOPs)
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	fmt.Printf("%-22s %14s %14s %16s\n", "modeled compute", us(st1.MaxDeviceCompute), us(st4.MaxDeviceCompute), us(st16.MaxDeviceCompute))
	fmt.Printf("%-22s %14s %14s %16s\n", "modeled scatter", us(st1.ScatterTime), us(st4.ScatterTime), us(st16.ScatterTime))
	fmt.Printf("%-22s %14s %14s %16s\n", "modeled all-reduce", us(st1.AllReduceTime), us(st4.AllReduceTime), us(st16.AllReduceTime))
	fmt.Printf("%-22s %14s %14s %16s\n", "intra-node comm", us(st1.IntraNodeTime), us(st4.IntraNodeTime), us(st16.IntraNodeTime))
	fmt.Printf("%-22s %14s %14s %16s\n", "inter-node comm", us(st1.InterNodeTime), us(st4.InterNodeTime), us(st16.InterNodeTime))
	fmt.Printf("%-22s %11.2f MB %11.2f MB %13.2f MB\n", "cross-node payload",
		float64(st1.CrossNodeBytes)/(1<<20), float64(st4.CrossNodeBytes)/(1<<20), float64(st16.CrossNodeBytes)/(1<<20))
	fmt.Printf("%-22s %13.0f%% %13.0f%% %15.0f%%\n", "overlap efficiency", st1.OverlapEfficiency*100, st4.OverlapEfficiency*100, st16.OverlapEfficiency*100)
	fmt.Printf("%-22s %14s %14s %16s\n", "modeled step (serial)", us(st1.StepTimeSerial), us(st4.StepTimeSerial), us(st16.StepTimeSerial))
	fmt.Printf("%-22s %14s %14s %16s\n", "modeled step (overlap)", us(st1.StepTime), us(st4.StepTime), us(st16.StepTime))
	fmt.Printf("%-22s %14s %13.2fx %15.2fx\n", "step speedup", "1.00x",
		float64(st1.StepTime)/float64(st4.StepTime), float64(st1.StepTime)/float64(st16.StepTime))

	fmt.Println("\nhierarchical 16-device step (GroupStats.String):")
	fmt.Printf("  %s\n", st16)

	fmt.Println("\nper-layer kernel placements over the last batch's gradient shards")
	fmt.Println("(decided by the fitted cost profile; identical at any device count):")
	for li := range st16.Placements {
		fmt.Printf("  layer %d: 1 device  %2d aggr-first / %2d comb-first   16 devices  %2d aggr-first / %2d comb-first\n",
			li, st1.Placements[li].AggrFirst, st1.Placements[li].CombFirst,
			st16.Placements[li].AggrFirst, st16.Placements[li].CombFirst)
	}

	fmt.Println("\nper-device memory after training (batch-scoped executors):")
	for _, tr := range []*frameworks.Trainer{oneTr, fourTr, hierTr} {
		inUse := int64(0)
		for _, d := range tr.Group().Devices() {
			inUse += d.Dev.MemInUse()
		}
		fmt.Printf("  group(%d devices): total MemInUse = %d bytes\n", tr.Group().NumDevices(), inUse)
	}
}
