package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
)

// runCfg is one run's command line.
type runCfg struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// smoke shrinks the run to datasets.TestScale() and a handful of ops: it
	// exercises every code path and correctness check, and measures nothing
	// worth reading.
	smoke bool
}

// units is how many units of work a segment of n holds.
func (c *runCfg) units(n int) int {
	if c.smoke {
		return 2
	}
	return n
}

// setupReps is how often the run sets the program up.
func (c *runCfg) setupReps() int {
	if c.smoke {
		return 1
	}
	return setupReps
}

// replayStride is the unit stride of replays inside a replay segment.
func (c *runCfg) replayStride() int {
	if c.smoke {
		return 1
	}
	return replayEvery
}

func (c *runCfg) scale() datasets.Scale {
	if c.smoke {
		return datasets.TestScale()
	}
	return datasets.DefaultScale()
}

// Shape of a run. A measured window is at least prefixSegs segments and then
// as many more as fit in --seconds. Counts and modeled-clock figures are
// taken over the first prefixSegs segments only — a fixed set of ops, so they
// compare exactly between runs and commits — while host-clock figures are
// medians over every segment.
const (
	prefixSegs = 8
	// setupReps is how often a run sets the program up; setup_s is the
	// median, and the last set-up is the one measured.
	setupReps = 5
	// checkOps is how many leading ops the differential checks compare.
	checkOps = 32
	// replayEvery is the stride, in batches or query windows, of replays
	// inside a replay segment.
	replayEvery = 16
)

// segMode says what a segment records besides the end-to-end clocks. An
// untraced run is all plain segments. A traced run interleaves plain, traced
// (spans only) and replay segments (spans plus shadow replays), so tracing
// overhead is plain against traced from one process and one stretch of time.
type segMode int

const (
	modePlain segMode = iota
	modeTraced
	modeReplay
)

func segModeOf(cfg *runCfg, seg int) segMode {
	if !cfg.trace {
		return modePlain
	}
	switch seg % 4 {
	case 0:
		return modePlain
	case 1:
		return modeTraced
	}
	return modeReplay
}

// segment is the host-clock record of one measured segment.
type segment struct {
	mode    segMode
	ops     int
	failed  int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64 // heap objects allocated
	bytes   uint64 // heap bytes allocated
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// cpuStat reads the machine-wide steal and total jiffies from /proc/stat
// (zeros where it is not readable).
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// measure runs the measured window: whole segments of segUnits units each
// until prefixSegs segments and cfg.seconds have both passed. unit issues one
// unit of work (one batch, or one window of queries) and reports the ops it
// attempted and how many failed.
func measure(cfg *runCfg, tr *tracer, segUnits int,
	unit func(mode segMode, inPrefix bool) (ops, failed int, err error)) ([]segment, error) {
	minSegs := prefixSegs
	if cfg.smoke {
		minSegs = 4 // one round of segment modes
	}
	var segs []segment
	var mem runtime.MemStats
	start := time.Now()
	for len(segs) < minSegs || time.Since(start).Seconds() < cfg.seconds {
		sg := segment{mode: segModeOf(cfg, len(segs))}
		tr.on = sg.mode != modePlain
		runtime.ReadMemStats(&mem)
		m0, b0, c0, t0 := mem.Mallocs, mem.TotalAlloc, cpuNow(), time.Now()
		for u := 0; u < segUnits; u++ {
			ops, failed, err := unit(sg.mode, len(segs) < prefixSegs)
			if err != nil {
				tr.on = false
				return nil, err
			}
			sg.ops += ops
			sg.failed += failed
		}
		sg.wall, sg.cpu = time.Since(t0), cpuNow()-c0
		runtime.ReadMemStats(&mem)
		sg.mallocs, sg.bytes = mem.Mallocs-m0, mem.TotalAlloc-b0
		segs = append(segs, sg)
	}
	tr.on = false
	return segs, nil
}

// liveHeapMB returns what the idle program keeps allocated: datasets,
// weights, slot structures, memo tables and caches. Call it with no op in
// flight. It collects twice, because the tensor pools are sync.Pools and
// keep their victims through one collection — how full those are is an
// accident of collector timing, not something the program retains.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// upperPercentile picks the highest percentile, capped at max, that still
// has at least ten of the n samples beyond it (0 when even the median has
// not).
func upperPercentile(n int, max float64) float64 {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if p <= max && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// result is what one run of one workload reports.
type result struct {
	workload  string
	seed      uint64
	traced    bool
	correct   bool
	attempted int
	failed    int
	// metrics holds every metric the run measured: the end-to-end ones
	// always, the per-layer ones in a traced run.
	metrics map[string]float64
	// checksum is an FNV-1a hash of the loss (training) or logit (serving)
	// bits the correctness checks compared, for human diffs.
	checksum uint64
	// notes are extra human-readable lines: sample counts, percentiles used.
	notes []string
	// spans are a traced run's spans, for the layer table.
	spans []span
}

func newResult(w workload, cfg *runCfg) *result {
	return &result{workload: w.name, seed: cfg.seed, traced: cfg.trace, correct: true, metrics: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.failed++
	r.notef("FAILED CHECK: "+format, args...)
}

// hostMetrics fills the host-side end-to-end metrics and the bench.* figures
// from the measured segments. Per-op figures are medians over the plain
// segments only, so a traced run's spans and replays never reach them.
func (r *result) hostMetrics(segs []segment, setups []setupCost, heapMB float64, steal0, total0 uint64) {
	var cpuPlain, cpuTraced, allocs, allocKB []float64
	var wall time.Duration
	for _, sg := range segs {
		r.attempted += sg.ops
		r.failed += sg.failed
		wall += sg.wall
		perOp := ms(sg.cpu) / float64(sg.ops)
		switch sg.mode {
		case modePlain:
			cpuPlain = append(cpuPlain, perOp)
			allocs = append(allocs, float64(sg.mallocs)/float64(sg.ops))
			allocKB = append(allocKB, float64(sg.bytes)/1024/float64(sg.ops))
		case modeTraced:
			cpuTraced = append(cpuTraced, perOp)
		}
	}
	var setupCPU, setupWall, gen, calib, mk []float64
	for _, s := range setups {
		setupCPU = append(setupCPU, s.cpu.Seconds())
		setupWall = append(setupWall, s.wall.Seconds())
		gen = append(gen, s.generate.Seconds())
		calib = append(calib, s.calibrate.Seconds())
		mk = append(mk, s.newTrainer.Seconds())
	}
	m := r.metrics
	m["setup_s"] = median(setupCPU)
	m["allocs_per_op"] = median(allocs)
	m["alloc_kb_per_op"] = median(allocKB)
	m["live_heap_mb"] = heapMB

	m["bench.cpu_ms_per_op"] = median(cpuPlain)
	m["bench.wall_ops_per_s"] = float64(r.attempted) / wall.Seconds()
	if steal1, total1 := cpuStat(); total1 > total0 {
		m["bench.steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	m["bench.setup_wall_s"] = median(setupWall)
	m["bench.peak_rss_mb"] = peakRSSMB()
	if len(cpuTraced) > 0 {
		m["bench.trace_overhead_pct"] = 100 * (median(cpuTraced) - median(cpuPlain)) / median(cpuPlain)
	}
	m["datasets.generate_s"] = median(gen)
	m["dkp.calibrate_s"] = median(calib)
	m["frameworks.new_s"] = median(mk)
	r.notef("segments=%d ops=%d measured_wall_s=%.2f", len(segs), r.attempted, wall.Seconds())
}

// setupCost is the host cost of one set-up of the program.
type setupCost struct {
	cpu, wall                       time.Duration
	generate, calibrate, newTrainer time.Duration // wall
}

// buildTrainer generates the workload's dataset and assembles its trainer,
// timing the three public calls set-up consists of. The fitted DKP profile is
// memoized per process, so only the first set-up calibrates inside
// dkp.ProfileFor; later ones call dkp.Calibrate for the same work.
func buildTrainer(w workload, cfg *runCfg, opt frameworks.Options, first bool, cost *setupCost) (*datasets.Dataset, *frameworks.Trainer, error) {
	t0 := time.Now()
	ds, err := datasets.Generate(w.dataset, cfg.scale())
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	if first {
		dkp.ProfileFor(opt.Device)
	} else if _, err := dkp.Calibrate(opt.Device); err != nil {
		return nil, nil, fmt.Errorf("dkp.Calibrate: %w", err)
	}
	t2 := time.Now()
	tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
	if err != nil {
		return nil, nil, err
	}
	cost.generate, cost.calibrate, cost.newTrainer = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return ds, tr, nil
}

// freshTrainer builds another trainer over a freshly generated dataset, for
// the shadow and reference runs; it shares nothing with the measured one.
func freshTrainer(w workload, cfg *runCfg, opt frameworks.Options) (*datasets.Dataset, *frameworks.Trainer, error) {
	ds, err := datasets.Generate(w.dataset, cfg.scale())
	if err != nil {
		return nil, nil, err
	}
	tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
	return ds, tr, err
}

// options returns the workload's trainer options for a seed.
func (w workload) options(seed uint64) frameworks.Options {
	opt := frameworks.DefaultOptions()
	opt.Model = w.model
	opt.Seed = seed
	opt.NumDevices, opt.DevicesPerNode, opt.GradShards = w.numDevices, w.devicesPerNode, w.gradShards
	return opt
}

// bitsHash folds 64-bit patterns into an FNV-1a checksum.
type bitsHash struct{ h hash.Hash64 }

func newBitsHash() bitsHash { return bitsHash{h: fnv.New64a()} }

func (b bitsHash) add(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:]) // a hash.Hash never fails a Write
}

func (b bitsHash) sum() uint64 { return b.h.Sum64() }
