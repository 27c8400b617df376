// Command gttrain trains a GNN model on a synthetic dataset under any of
// the framework builds and reports per-batch latency on both clocks (host
// wall time of this box; modeled device time), loss and device counters.
//
// Usage:
//
//	gttrain -dataset products -model gcn -framework prepro-gt -batches 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/metrics"
	"graphtensor/internal/multigpu"
)

func main() {
	var (
		dataset = flag.String("dataset", "products", "dataset name")
		model   = flag.String("model", "gcn", "gcn|ngcf|graphsage|gat")
		fwName  = flag.String("framework", "prepro-gt", "framework build (a Table III name, any case)")
		batches = flag.Int("batches", 8, "training batches")
		batchSz = flag.Int("batch-size", 300, "dst vertices per batch")
		hidden  = flag.Int("hidden", 16, "hidden dimension")
		layers  = flag.Int("layers", 2, "GNN depth")
		lr      = flag.Float64("lr", 0.05, "SGD learning rate")
		devices = flag.Int("devices", 0, "data-parallel device count (0 = classic single-device engine)")
		perNode = flag.Int("devices-per-node", 0, "devices per node on the hierarchical fabric (0 = flat single-node fabric)")
		shards  = flag.Int("grad-shards", 0, "fixed gradient-shard count (0 = profile default, raised to -devices when below it)")
	)
	flag.Parse()

	kind := frameworks.Kind(-1)
	for _, k := range frameworks.Kinds() {
		if strings.EqualFold(k.String(), *fwName) {
			kind = k
		}
	}
	if kind < 0 {
		fmt.Fprintf(os.Stderr, "gttrain: unknown framework %q\n", *fwName)
		os.Exit(2)
	}
	ds, err := datasets.Generate(*dataset, datasets.DefaultScale())
	if err != nil {
		fmt.Fprintf(os.Stderr, "gttrain: %v\n", err)
		os.Exit(1)
	}
	opt := frameworks.DefaultOptions()
	opt.Model = *model
	opt.BatchSize = *batchSz
	opt.Hidden = *hidden
	opt.Layers = *layers
	opt.LearningRate = float32(*lr)
	opt.NumDevices = *devices
	opt.DevicesPerNode = *perNode
	opt.GradShards = *shards
	if opt.GradShards == 0 && *devices > multigpu.DefaultShards {
		// Every device needs at least one shard; keep the default's
		// bitwise trajectory when it already covers the device count.
		opt.GradShards = *devices
	}
	tr, err := frameworks.New(kind, ds, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gttrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("training %s on %s with %s (%d batches of %d)\n",
		strings.ToUpper(*model), *dataset, kind, *batches, *batchSz)
	if kind == frameworks.DynamicGT || kind == frameworks.PreproGT {
		prof := dkp.ProfileFor(opt.Device)
		fmt.Printf("DKP cost model fitted offline for device class %s (%.1f%% error)\n",
			prof.Class, 100*prof.FitErr)
	}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	start := time.Now()
	var stages metrics.Stages
	for i := 0; i < *batches; i++ {
		st, err := tr.TrainBatch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gttrain: batch %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Printf("batch %2d  loss %.4f  host: prep %8v compute %8v  modeled: prep %8v compute %8v step %8v  flops %d\n",
			i, st.Loss, us(st.Prep), us(st.Compute),
			us(st.ModeledPrep), us(st.ModeledCompute), us(st.ModeledStep), st.Counters.FLOPs)
		stages = stages.Plus(st.Stages)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if g := tr.Group(); g != nil {
		st := g.LastStats()
		fmt.Printf("data-parallel step (last batch): %d devices, imbalance %.2fx, peak dev FLOPs %d, modeled compute %v + comm %v, step %v overlapped (%v serialized, %.0f%% of the scatter hidden)\n",
			st.Devices, st.Imbalance, st.PeakDeviceFLOPs,
			st.MaxDeviceCompute.Round(time.Microsecond), st.CommTime.Round(time.Microsecond),
			st.StepTime.Round(time.Microsecond), st.StepTimeSerial.Round(time.Microsecond),
			st.OverlapEfficiency*100)
		if st.Nodes > 1 {
			fmt.Printf("hierarchical fabric: %d nodes (%d devices/node), node imbalance %.2fx, intra-node comm %v, inter-node comm %v, cross-node payload %.2f MB\n",
				st.Nodes, *perNode, st.NodeImbalance,
				st.IntraNodeTime.Round(time.Microsecond), st.InterNodeTime.Round(time.Microsecond),
				float64(st.CrossNodeBytes)/(1<<20))
		}
	}
	fmt.Printf("stage breakdown (host clock, all batches and devices):\n%s", stages)
}
