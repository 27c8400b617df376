// Command benchdiff compares two BENCH_<n>.json snapshots produced by
// `gtbench -micro` / scripts/bench.sh, prints the per-benchmark delta in
// best ns/op, B/op and allocs/op, and exits non-zero when any benchmark
// present in both snapshots grew its allocs/op beyond
// max(-allocslack, -allocnoise percent of the old count). That is its one
// job: the allocation disciplines (arena, worker pool, batch scope) are a
// ratcheted invariant and allocs/op is machine-independent, so CI can hold
// it on every push. ns/op is printed as context and never gated — the
// committed snapshots come from a different machine each time, and no box
// this repo runs on repeats wall time to better than 10-25 %.
//
// The absolute slack (default 2) keeps near-zero floors exact; the
// proportional term (default 0.5%) exists because the concurrent benchmarks
// (server contention, multi-device training) run thousands of allocs/op and
// goroutine scheduling shifts that count by a handful between otherwise
// identical runs. A real regression scales with the per-op work (one alloc
// per query/shard/batch adds tens to hundreds), so it still trips the
// proportional gate. Benchmarks that legitimately change shape get headroom
// via a larger -allocslack, not by dropping the gate.
//
// Usage:
//
//	go run ./scripts/benchdiff BENCH_1.json BENCH_2.json
//	go run ./scripts/benchdiff -allocslack 0 BENCH_1.json BENCH_2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOpBest float64 `json:"ns_per_op_best"`
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type benchFile struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func load(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "graphtensor-bench/v1" {
		return nil, fmt.Errorf("%s: unexpected schema %q", path, f.Schema)
	}
	return &f, nil
}

func main() {
	allocSlack := flag.Int64("allocslack", 2, "max allowed allocs/op growth before failing (small allowance for benchmarks that legitimately change)")
	allocNoise := flag.Float64("allocnoise", 0.5, "scheduler-noise allowance in percent of old allocs/op; the effective slack per benchmark is max(allocslack, ceil(allocnoise*old/100))")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-allocslack n] [-allocnoise pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldBy := map[string]benchResult{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}

	fmt.Printf("%-38s %14s %14s %9s %12s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns/op", "Δallocs/op", "ΔB/op")
	regressed := 0
	compared := 0
	for _, nb := range newF.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-38s %14s %14.0f %9s %12d %12d  (new)\n",
				nb.Name, "-", nb.NsPerOpBest, "-", nb.AllocsPerOp, nb.BytesPerOp)
			continue
		}
		delete(oldBy, nb.Name)
		compared++
		pct := (nb.NsPerOpBest - ob.NsPerOpBest) / ob.NsPerOpBest * 100
		slack := *allocSlack
		if prop := int64(math.Ceil(*allocNoise * float64(ob.AllocsPerOp) / 100)); prop > slack {
			slack = prop
		}
		mark := ""
		if nb.AllocsPerOp > ob.AllocsPerOp+slack {
			mark = "  ALLOC-REGRESSION"
			regressed++
		}
		fmt.Printf("%-38s %14.0f %14.0f %8.1f%% %12d %12d%s\n",
			nb.Name, ob.NsPerOpBest, nb.NsPerOpBest, pct,
			nb.AllocsPerOp-ob.AllocsPerOp, nb.BytesPerOp-ob.BytesPerOp, mark)
	}
	for name := range oldBy {
		fmt.Printf("%-38s  (dropped from new snapshot)\n", name)
	}
	fmt.Printf("%d benchmarks compared, %d regressed (allocs/op slack max(%d, %.2g%%); ns/op not gated)\n",
		compared, regressed, *allocSlack, *allocNoise)
	if regressed > 0 {
		os.Exit(1)
	}
}
