// Command benchmark is the repository's end-to-end benchmark: four workloads
// driven through the public functions of the internal packages and timed from
// outside, on two clocks — the host clock (process CPU, allocations, live
// heap) and the modeled clock (what the simulated device, link and fabric
// would take). See README.md in this directory.
//
//	bash benchmark/run.sh                               # every workload, untraced
//	bash benchmark/run.sh --workload train-light        # one workload
//	bash benchmark/run.sh --workload train-light --trace 1 --trace-out trace.json
//	bash benchmark/run.sh --selfcheck                   # repeatability check
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all, each in a fresh process): "+strings.Join(workloadNames(), ", "))
		seed         = fs.Uint64("seed", 1, "seed of the generated inputs: batch dsts, model init, query set, arrival schedule")
		seconds      = fs.Float64("seconds", runSeconds, "length of the measured window, seconds")
		trace        = fs.Int("trace", 0, "1 = traced run: spans, shadow replays and the per-layer metrics; 0 = end-to-end metrics")
		traceOut     = fs.String("trace-out", "", "with -trace 1: write the spans to this file as Chrome trace-event JSON")
		metricsArg   = fs.String("metrics", "", "comma-separated metric names to print (default: all the run measured)")
		selfcheck    = fs.Bool("selfcheck", false, "run every workload twice, untraced and traced, and fail if end-to-end metrics differ by more than their bounds or exact metrics differ at all")
		smoke        = fs.Bool("smoke", false, "tiny run at datasets.TestScale(): exercises every path and check, measures nothing")
		spec         = fs.Bool("spec", false, "print BENCHMARK.json as generated from the benchmark's tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *spec {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchSpec()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	only, err := parseMetricFilter(*metricsArg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cfg := &runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, smoke: *smoke}
	if cfg.smoke {
		cfg.seconds = 0 // the minimum segments and nothing more
	}

	switch {
	case *selfcheck:
		err = selfCheck(cfg, stdout)
	case *workloadName == "":
		err = runAll(cfg, *metricsArg, stdout)
	default:
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		var res *result
		if res, err = runWorkload(w, cfg); err == nil {
			printResult(stdout, res, only)
			if !res.correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// parseMetricFilter validates a -metrics list: an unknown name is an error,
// not a silently empty result.
func parseMetricFilter(arg string) (map[string]bool, error) {
	if arg == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, m := range endToEnd {
		known[m.name] = true
	}
	for _, m := range perLayer {
		known[m.name] = true
	}
	only := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		if !known[name] {
			return nil, fmt.Errorf("unknown metric %q", name)
		}
		only[name] = true
	}
	return only, nil
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, cfg *runCfg) (*result, error) {
	// Every workload runs at min(nproc, 4) unless GOMAXPROCS says otherwise.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	}
	runFn := runTrain
	if w.serve {
		runFn = runServe
	}
	res, err := runFn(w, cfg)
	if err != nil {
		return nil, err
	}
	res.metrics["bench.failed_op_pct"] = 100 * float64(res.failed) / float64(res.attempted)
	if cfg.trace && cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, res.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// jsonResult is the machine-readable last line of a run.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes one run: a noise record and notes, every measured
// metric as "name value unit", a traced run's layer table, and last the JSON
// line — the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func printResult(w io.Writer, res *result, only map[string]bool) {
	fmt.Fprintf(w, "# workload=%s seed=%d traced=%t nproc=%d GOMAXPROCS=%d go=%s steal_pct=%.1f checksum=%016x\n",
		res.workload, res.seed, res.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		res.metrics["bench.steal_pct"], res.checksum)
	for _, note := range res.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	emit := func(specs []metricSpec, inJSON bool) {
		for _, s := range specs {
			v, measured := res.metrics[s.name]
			if inJSON {
				out.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
			}
			if (measured || inJSON) && (only == nil || only[s.name]) {
				fmt.Fprintf(w, "%s %.6g %s\n", s.name, v, s.unit)
			}
		}
	}
	emit(endToEnd, !res.traced)
	emit(perLayer, res.traced)
	if res.traced {
		printLayerTable(w, res.workload, res.spans)
	}
	line, err := json.Marshal(out)
	if err != nil { // only a NaN or Inf metric can do this
		line = []byte(fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, res.attempted, res.attempted))
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runChild runs one workload in a fresh process of this binary and returns
// its parsed JSON line; the child's report is copied to out.
func runChild(cfg *runCfg, name string, traced bool, extra []string, out io.Writer) (*jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("workload %s: last line is not a result: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, each in a fresh process.
func runAll(cfg *runCfg, metricsArg string, out io.Writer) error {
	var extra []string
	if metricsArg != "" {
		extra = []string{"-metrics", metricsArg}
	}
	var errs []error
	for _, w := range workloads {
		if _, err := runChild(cfg, w.name, cfg.trace, extra, out); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// selfCheck runs every workload twice untraced and twice traced on one seed
// and compares the pairs: an end-to-end metric may differ by its bound, an
// exact metric (a count or a modeled-clock figure) not at all.
func selfCheck(cfg *runCfg, out io.Writer) error {
	var bad []string
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			a, err := runChild(cfg, w.name, traced, nil, out)
			if err != nil {
				return err
			}
			b, err := runChild(cfg, w.name, traced, nil, out)
			if err != nil {
				return err
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, s := range specs {
				va, vb := a.Metrics[s.name].Value, b.Metrics[s.name].Value
				switch {
				case s.exact && va != vb:
					bad = append(bad, fmt.Sprintf("%s %s: exact metric differs: %v != %v", w.name, s.name, va, vb))
				case s.bound > 0 && math.Abs(va-vb) > s.bound*math.Min(va, vb):
					bad = append(bad, fmt.Sprintf("%s %s: %v vs %v differ by more than %g%%", w.name, s.name, va, vb, 100*s.bound))
				}
			}
		}
	}
	sort.Strings(bad)
	for _, line := range bad {
		fmt.Fprintln(out, "SELFCHECK FAILED:", line)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %d metrics did not repeat", len(bad))
	}
	fmt.Fprintln(out, "selfcheck: every end-to-end metric repeated within its bound and every exact metric to the last digit")
	return nil
}
