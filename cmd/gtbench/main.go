// Command gtbench regenerates the paper's tables and figures, and captures
// hot-path micro-benchmark snapshots.
//
// Usage:
//
//	gtbench -exp fig15            # one experiment
//	gtbench -exp all              # every experiment (slow)
//	gtbench -list                 # list experiment ids
//	gtbench -exp fig19 -quick     # reduced dataset set and batch count
//	gtbench -micro                # run micro-benchmarks, write BENCH_1.json
//	gtbench -micro -count 10 -out BENCH_2.json
//	gtbench -micro -count 1 -bench 'BenchmarkCalibrate$' -cpuprofile calib.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphtensor/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or \"all\")")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quick   = flag.Bool("quick", false, "reduced datasets and batch counts")
		batches = flag.Int("batches", 0, "override per-measurement batch count")
		micro   = flag.Bool("micro", false, "run hot-path micro-benchmarks and write a BENCH json snapshot")
		count   = flag.Int("count", 5, "benchmark repetitions per micro-benchmark (-micro)")
		outPath = flag.String("out", "BENCH_1.json", "output path for the micro-benchmark snapshot (-micro)")
		benchRe = flag.String("bench", defaultMicroBench, "benchmark name regexp (-micro)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile per benchmarked package, cpu.prof as cpu.<package>.prof (-micro)")
		memProf = flag.String("memprofile", "", "write an allocation profile per benchmarked package, mem.prof as mem.<package>.prof (-micro)")
	)
	flag.Parse()

	if *micro {
		if err := runMicro(*benchRe, *count, *outPath, *cpuProf, *memProf); err != nil {
			fmt.Fprintf(os.Stderr, "gtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-10s %s\n", id, experiments.Title(id))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Batches = *batches

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gtbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("================ %s — %s ================\n", res.ID, res.Title)
		fmt.Print(res.Text)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}
