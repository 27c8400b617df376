package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Micro-benchmark capture: `gtbench -micro` runs the repository's hot-path
// benchmarks (`go test -bench -benchmem` at the module root), parses the
// ns/op, B/op and allocs/op columns, and writes a BENCH_<n>.json snapshot.
// Successive snapshots (BENCH_1.json, BENCH_2.json, ...) form the
// performance trajectory of the substrate; compare them with any JSON
// diff, or benchstat on the raw `go test` output.

// defaultMicroBench selects the substrate hot paths (not the full
// paper-figure regenerations, which dominate wall time).
const defaultMicroBench = "BenchmarkMatMul$|BenchmarkMatMulParallel$|BenchmarkNAPAForward|BenchmarkGraphApproachForwardNGCF$|BenchmarkDLApproachForwardNGCF$|BenchmarkCOOToCSR$|BenchmarkNeighborSampling$|BenchmarkPrepareBatch$|BenchmarkServeQuery$|BenchmarkServeThroughput$|BenchmarkServeContention$|BenchmarkTrainBatchPreproGT$|BenchmarkTrainEpoch$|BenchmarkMultiGPUTrainBatch$|BenchmarkCountResident$|BenchmarkPolicyDecide$|BenchmarkLRUTouch$|BenchmarkKernelLaunchReset$|BenchmarkLinearBackwardTrace$|BenchmarkAllocDeviceMatrix$|BenchmarkCalibrate$|BenchmarkNAPATrace$"

// benchResult is one benchmark's aggregated samples.
type benchResult struct {
	Name        string    `json:"name"`
	Samples     int       `json:"samples"`
	NsPerOp     []float64 `json:"ns_per_op"`
	NsPerOpBest float64   `json:"ns_per_op_best"`
	NsPerOpMean float64   `json:"ns_per_op_mean"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
}

// benchFile is the BENCH_<n>.json schema.
type benchFile struct {
	Schema     string        `json:"schema"`
	CreatedUTC string        `json:"created_utc"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Count      int           `json:"count"`
	Bench      string        `json:"bench_regexp"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchLine tolerates custom metrics between ns/op and B/op (e.g.
// BenchmarkServeThroughput's queries/sec from b.ReportMetric).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.e+]+ [\w/]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// microPkgs are the packages -micro benchmarks. The module root holds the
// end-to-end benchmarks and the calibration; internal/cache holds the
// epoch-snapshot read path whose zero-alloc floor the snapshot ratchets,
// internal/gpusim the cache simulator's touch and launch costs,
// internal/kernels the dense and sparse trace passes and an output matrix's
// pool round trip at train-heavy's shape.
var microPkgs = []string{".", "./internal/cache", "./internal/gpusim", "./internal/kernels"}

// goTestBench runs `go test -bench` over pkgs with extra flags appended and
// returns its standard output.
func goTestBench(benchRe string, count int, extra, pkgs []string) ([]byte, error) {
	// -timeout scales with -count: the default 10m cap kills deep captures
	// (the snapshot records min-over-samples, which needs count >= ~20 to
	// converge on the concurrency-heavy benchmarks).
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count), "-timeout", "120m"}
	args = append(append(args, extra...), pkgs...)
	fmt.Fprintf(os.Stderr, "gtbench: go %v\n", args)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench failed: %w\n%s", err, out)
	}
	return out, nil
}

// runMicro executes the micro-benchmark suite and writes outPath. It must
// run from the module root (where go.mod lives). With cpuProf or memProf set
// every package runs on its own — `go test` profiles one package per run —
// and leaves its own profile behind, the package's name ("root" for the module
// root) before the file's extension: cpu.prof → cpu.kernels.prof. The test
// binaries go to a temporary directory.
func runMicro(benchRe string, count int, outPath, cpuProf, memProf string) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("gtbench -micro must run from the repository root (go.mod not found): %w", err)
	}
	// One `go test` over all packages, or one per package when profiling.
	runs := [][]string{microPkgs}
	profiles := [][2]string{{"-cpuprofile", cpuProf}, {"-memprofile", memProf}}
	binDir := ""
	if cpuProf != "" || memProf != "" {
		runs = nil
		for _, pkg := range microPkgs {
			runs = append(runs, []string{pkg})
		}
		dir, err := os.MkdirTemp("", "gtbench-micro")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		binDir = dir
	}
	var outBytes []byte
	for _, pkgs := range runs {
		var extra []string
		if binDir != "" {
			name := path.Base(pkgs[0])
			if pkgs[0] == "." {
				name = "root"
			}
			extra = []string{"-o", filepath.Join(binDir, name+".test")}
			for _, prof := range profiles {
				if prof[1] == "" {
					continue
				}
				ext := filepath.Ext(prof[1])
				file, err := filepath.Abs(prof[1][:len(prof[1])-len(ext)] + "." + name + ext)
				if err != nil {
					return err
				}
				extra = append(extra, prof[0], file)
			}
		}
		out, err := goTestBench(benchRe, count, extra, pkgs)
		if err != nil {
			return err
		}
		outBytes = append(outBytes, out...)
	}

	byName := map[string]*benchResult{}
	var order []string
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(outBytes), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytesOp, _ := strconv.ParseInt(m[3], 10, 64)
		allocsOp, _ := strconv.ParseInt(m[4], 10, 64)
		r := byName[m[1]]
		if r == nil {
			r = &benchResult{Name: m[1], BytesPerOp: bytesOp, AllocsPerOp: allocsOp}
			byName[m[1]] = r
			order = append(order, m[1])
		}
		r.NsPerOp = append(r.NsPerOp, ns)
		if bytesOp < r.BytesPerOp {
			r.BytesPerOp = bytesOp
		}
		if allocsOp < r.AllocsPerOp {
			r.AllocsPerOp = allocsOp
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no benchmark lines matched %q in go test output", benchRe)
	}
	sort.Strings(order)

	f := benchFile{
		Schema:     "graphtensor-bench/v1",
		CreatedUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      count,
		Bench:      benchRe,
	}
	for _, name := range order {
		r := byName[name]
		r.Samples = len(r.NsPerOp)
		best, sum := r.NsPerOp[0], 0.0
		for _, v := range r.NsPerOp {
			if v < best {
				best = v
			}
			sum += v
		}
		r.NsPerOpBest = best
		r.NsPerOpMean = sum / float64(len(r.NsPerOp))
		f.Benchmarks = append(f.Benchmarks, *r)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%-36s %14s %14s %10s %10s\n", "benchmark", "best ns/op", "mean ns/op", "B/op", "allocs/op")
	for _, r := range f.Benchmarks {
		fmt.Printf("%-36s %14.0f %14.0f %10d %10d\n", r.Name, r.NsPerOpBest, r.NsPerOpMean, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s (%d benchmarks × %d samples)\n", outPath, len(f.Benchmarks), count)
	return nil
}
