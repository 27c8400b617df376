package frameworks

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
)

func quickOpts() Options {
	o := DefaultOptions()
	o.BatchSize = 60
	o.Device = gpusim.DefaultConfig()
	return o
}

func testDS(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAllFrameworksTrainABatch(t *testing.T) {
	ds := testDS(t)
	for _, k := range Kinds() {
		for _, model := range []string{"gcn", "ngcf"} {
			opt := quickOpts()
			opt.Model = model
			tr, err := New(k, ds, opt)
			if err != nil {
				t.Fatalf("%s/%s new: %v", k, model, err)
			}
			st, err := tr.TrainBatch()
			if err != nil {
				t.Fatalf("%s/%s train: %v", k, model, err)
			}
			if st.Loss <= 0 {
				t.Errorf("%s/%s loss %g not positive", k, model, st.Loss)
			}
			if st.Counters.FLOPs == 0 {
				t.Errorf("%s/%s did no FLOPs", k, model)
			}
		}
	}
}

// TestTrainersLeaveNoGoroutines: a dropped trainer leaves no goroutine
// behind — its prep subtasks and parallel regions run on the process's one
// worker pool, and its prefetch rings join their producers on Stop — so
// building, training and dropping trainers of every Table III kind does not
// grow the goroutine count: after five rounds it is no higher than after
// the first. Runs at GOMAXPROCS 1 and 4.
func TestTrainersLeaveNoGoroutines(t *testing.T) {
	ds := testDS(t)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		afterFirst := 0
		for round := 1; round <= 5; round++ {
			for _, k := range Kinds() {
				tr, err := New(k, ds, quickOpts())
				if err != nil {
					t.Fatalf("%s new: %v", k, err)
				}
				if _, err := tr.TrainBatch(); err != nil {
					t.Fatalf("%s batch: %v", k, err)
				}
				if _, _, err := tr.TrainEpoch(2); err != nil {
					t.Fatalf("%s epoch: %v", k, err)
				}
			}
			if round == 1 {
				afterFirst = settledGoroutines(0)
			}
		}
		if n := settledGoroutines(afterFirst); n > afterFirst {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after five rounds of trainers, %d after the first", procs, n, afterFirst)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// settledGoroutines yields, a bounded number of times and without sleeping,
// until the goroutine count is at most limit, and returns the count — so
// goroutines already on their way out are not counted.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > limit; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

func TestFrameworkFormats(t *testing.T) {
	ds := testDS(t)
	cases := map[Kind]string{
		DGL:      "COO",
		PyG:      "CSR",
		BaseGT:   "CSR+CSC",
		PreproGT: "CSR+CSC",
	}
	for k, want := range cases {
		tr, err := New(k, ds, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if tr.format.String() != want {
			t.Errorf("%s format %s want %s", k, tr.format, want)
		}
	}
}

func TestPinnedFrameworks(t *testing.T) {
	ds := testDS(t)
	for _, k := range []Kind{SALIENT, BaseGT, DynamicGT, PreproGT} {
		tr, _ := New(k, ds, quickOpts())
		if !tr.pinned {
			t.Errorf("%s should use pinned memory", k)
		}
	}
	for _, k := range []Kind{PyG, PyGMT, GNNAdvisor} {
		tr, _ := New(k, ds, quickOpts())
		if tr.pinned {
			t.Errorf("%s should not use pinned memory", k)
		}
	}
}

func TestModeledPrepPipelinedFaster(t *testing.T) {
	ds, _ := datasets.Generate("wiki-talk", datasets.TestScale())
	serial, _ := New(DynamicGT, ds, quickOpts())
	pipe, _ := New(PreproGT, ds, quickOpts())
	b1, err := serial.Prepare(ds.BatchDsts(60, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Release()
	b2, err := pipe.Prepare(ds.BatchDsts(60, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	serialPrep := serial.ModeledPrep(b1)
	pipePrep := pipe.ModeledPrep(b2)
	if pipePrep >= serialPrep {
		t.Errorf("pipelined prep %v should be faster than serial %v", pipePrep, serialPrep)
	}
}

func TestWarmupFitsDKP(t *testing.T) {
	ds := testDS(t)
	tr, _ := New(DynamicGT, ds, quickOpts())
	if err := tr.Warmup(3); err != nil {
		t.Fatal(err)
	}
	// Warmup either fits or keeps defaults; both are valid, but it must
	// not error and the model must still train.
	if _, err := tr.TrainBatch(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedEpochMonotone(t *testing.T) {
	ds := testDS(t)
	tr, _ := New(BaseGT, ds, quickOpts())
	d1, err := tr.SimulatedEpoch(1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tr.SimulatedEpoch(2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("2 batches (%v) should take longer than 1 (%v)", d2, d1)
	}
	// Every batch is charged its own modeled step: a twin trainer's three
	// batches are the 1-batch epoch, then the 2-batch one.
	twin, _ := New(BaseGT, ds, quickOpts())
	var steps [3]time.Duration
	for i := range steps {
		st, err := twin.TrainBatch()
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = st.ModeledStep
	}
	if d1 != steps[0] || d2 != steps[1]+steps[2] {
		t.Errorf("epochs %v, %v are not the per-batch steps %v", d1, d2, steps)
	}
}

// TestBatchStatsModeledClock: TrainBatch reports the modeled trio the frozen
// benchmark derives by hand (benchmark/train.go) — ModeledPrep of the batch,
// the kernel-time model's estimate of its counters, and their step: the
// larger of the two where preprocessing overlaps compute (Prepro-GT), the
// sum where it does not (PyG); on a device group, the group's own figures.
func TestBatchStatsModeledClock(t *testing.T) {
	ds := testDS(t)
	for _, k := range []Kind{PyG, PreproGT} {
		tr, _ := New(k, ds, quickOpts())
		twin, _ := New(k, ds, quickOpts())
		st, err := tr.TrainBatch()
		if err != nil {
			t.Fatal(err)
		}
		b, err := twin.Prepare(twin.NextDsts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		prep := twin.ModeledPrep(b)
		b.Release()
		compute := tr.Engine.Dev.Estimate(gpusim.DefaultKernelTimeModel(), st.Counters)
		step := prep + compute
		if k == PreproGT {
			step = max(prep, compute)
		}
		if prep <= 0 || compute <= 0 || st.ModeledPrep != prep || st.ModeledCompute != compute || st.ModeledStep != step {
			t.Errorf("%s: modeled prep/compute/step %v/%v/%v, want %v/%v/%v", k,
				st.ModeledPrep, st.ModeledCompute, st.ModeledStep, prep, compute, step)
		}
	}

	opt := quickOpts()
	opt.NumDevices = 2
	tr, err := New(PreproGT, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.TrainBatch()
	if err != nil {
		t.Fatal(err)
	}
	gs := tr.Group().LastStats()
	if gs.StepTime <= 0 || st.ModeledStep != gs.StepTime || st.ModeledCompute != gs.MaxDeviceCompute || st.Counters != gs.Counters {
		t.Errorf("group arm: step/compute %v/%v, LastStats has %v/%v", st.ModeledStep, st.ModeledCompute, gs.StepTime, gs.MaxDeviceCompute)
	}
}

// TestBatchStatsStages: TrainBatch says where its host time went, per batch
// and by value — the producer's four stages plus what the batch's compute
// added to the kernel record (the engine's, or the sum over a group's
// devices): a second batch reports its own time, not the run's, and
// Prepro-GT (NAPA over prepared CSR+CSC) runs neither a sparse2dense nor a
// translation kernel, while DGL's COO batches pay translation.
func TestBatchStatsStages(t *testing.T) {
	ds := testDS(t)
	for _, devices := range []int{0, 2} {
		opt := quickOpts()
		opt.NumDevices = devices
		tr, err := New(PreproGT, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		var run metrics.Stages
		for i := 0; i < 2; i++ {
			st, err := tr.TrainBatch()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []metrics.Stage{metrics.StageSample, metrics.StageReindex, metrics.StageLookup,
				metrics.StageAggregation, metrics.StageCombination} {
				if st.Stages[s] <= 0 {
					t.Errorf("devices=%d batch %d: stage %q not recorded", devices, i, s)
				}
			}
			if st.Stages[metrics.StageSparse2Dense] != 0 || st.Stages[metrics.StageTranslation] != 0 {
				t.Errorf("devices=%d batch %d: Prepro-GT recorded sparse2dense %v, translation %v", devices, i,
					st.Stages[metrics.StageSparse2Dense], st.Stages[metrics.StageTranslation])
			}
			run = run.Plus(st.Stages)
		}
		if devices == 0 {
			for s := metrics.StageAggregation; s < metrics.NumStages; s++ {
				if run[s] != tr.Engine.Ctx.Stages[s] {
					t.Errorf("stage %q: batches sum to %v, the engine's record holds %v", s, run[s], tr.Engine.Ctx.Stages[s])
				}
			}
		}
	}
	tr, _ := New(DGL, ds, quickOpts())
	st, err := tr.TrainBatch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stages[metrics.StageTranslation] <= 0 {
		t.Error("DGL's COO batch recorded no translation time")
	}
}

// TestCOOBatchTranslatesOnce: a batch's layer graphs are the model's input as
// they stand, so a format a strategy translates on demand stays on the batch
// until release — a COO batch pays StageTranslation once per layer and
// format, however many passes run over it.
func TestCOOBatchTranslatesOnce(t *testing.T) {
	ds := testDS(t)
	tr, _ := New(DGL, ds, quickOpts())
	b, err := tr.Prepare(ds.BatchDsts(30, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	translated := func(pass func() error) time.Duration {
		t.Helper()
		if err := pass(); err != nil {
			t.Fatal(err)
		}
		return tr.Engine.Ctx.Stages[metrics.StageTranslation]
	}
	infer := func() error {
		logits, err := tr.InferBatch(b)
		if err == nil {
			logits.Free()
		}
		return err
	}
	train := func() error { _, err := tr.Compute(b); return err }

	fwp := translated(infer)
	if fwp <= 0 {
		t.Fatal("the first forward pass over a COO batch translated nothing")
	}
	for li, l := range b.Layers {
		if l.COO == nil || l.CSR == nil {
			t.Errorf("layer %d: COO %v, CSR %v after FWP; want both", li, l.COO != nil, l.CSR != nil)
		}
	}
	if again := translated(infer); again != fwp {
		t.Errorf("second forward pass translated again: %v -> %v", fwp, again)
	}
	bwp := translated(train)
	if bwp <= fwp {
		t.Error("the first backward pass over a COO batch translated nothing (CSC)")
	}
	if again := translated(train); again != bwp {
		t.Errorf("second training pass translated again: %v -> %v", bwp, again)
	}
}

// TestEngineMemReturnsToZero: a batch's device memory ends with the batch on
// the classic engine — after every TrainBatch, an InferBatch (whose logits
// are detached from the scope, so readable once it has closed) and an
// Evaluate, with no prepared batch outstanding, the engine device holds
// nothing. DGL prepares COO, so the retained translated-csr buffer is
// exercised.
func TestEngineMemReturnsToZero(t *testing.T) {
	ds := testDS(t)
	for _, k := range []Kind{DGL, PyG, PreproGT} {
		tr, err := New(k, ds, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		dev := tr.Engine.Dev
		for i := 0; i < 5; i++ {
			if _, err := tr.TrainBatch(); err != nil {
				t.Fatalf("%s batch %d: %v", k, i, err)
			}
			if m := dev.MemInUse(); m != 0 {
				t.Fatalf("%s: %d bytes on the engine device after TrainBatch %d, want 0", k, m, i)
			}
		}
		b, err := tr.Prepare(ds.BatchDsts(40, 77), nil)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := tr.InferBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if m := dev.MemInUse(); m != 0 {
			t.Errorf("%s: InferBatch left %d bytes on the engine device", k, m)
		}
		if logits.M.Rows != 40 || logits.M.Cols != tr.OutDim() {
			t.Errorf("%s: logits %dx%d not readable after the scope closed", k, logits.M.Rows, logits.M.Cols)
		}
		logits.Free() // the benchmark's habit: a no-op now
		if _, err := tr.Evaluate(b); err != nil {
			t.Fatal(err)
		}
		b.Release()
		if m := dev.MemInUse(); m != 0 {
			t.Errorf("%s: %d bytes on the engine device after InferBatch + Evaluate, want 0", k, m)
		}
	}
}

// TestStagingPaysTOnce: the T task happens once, where a batch meets its
// device. A prepare — pipelined or serial, with or without an embedding
// cache — allocates nothing on the engine device and moves nothing over its
// link; the batch carries its payload (graphs + the rows no cache holds) as
// HostBytes; Compute moves exactly that, at the framework's pinned or
// pageable rate; and an Evaluate of the same batch afterwards moves it again
// — not the formats DGL's kernels have translated onto the batch meanwhile.
// A device too small for the staged batch fails the compute, not the
// prepare, and holds nothing afterwards.
func TestStagingPaysTOnce(t *testing.T) {
	ds := testDS(t)
	for _, k := range []Kind{PreproGT, DGL} {
		for _, cached := range []bool{false, true} {
			tr, err := New(k, ds, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			name := k.String()
			if cached {
				name += "+cache"
				tr.SetCache(cache.New(ds.NumVertices()/10, cache.Degree, ds.Graph))
			}
			dev, link := tr.Engine.Dev, tr.Engine.Dev.PCIe()
			idle := func(when string) {
				t.Helper()
				if m := dev.MemInUse(); m != 0 {
					t.Errorf("%s: %d bytes on the engine device after %s, want 0", name, m, when)
				}
			}

			b, err := tr.Prepare(ds.BatchDsts(40, 5), nil)
			if err != nil {
				t.Fatal(err)
			}
			idle("Prepare")
			if link.BytesMoved() != 0 || link.ModeledTime() != 0 {
				t.Errorf("%s: Prepare moved %d bytes (%v) over the device link", name, link.BytesMoved(), link.ModeledTime())
			}
			if cached == (b.CacheHits == 0) {
				t.Fatalf("%s: %d cache hits", name, b.CacheHits)
			}
			want := prep.GraphBytes(b.Layers) + int64(b.Embed.NumVertices()-b.CacheHits)*int64(ds.FeatureDim)*4
			if b.HostBytes != want {
				t.Errorf("%s: HostBytes %d, want graphs + missed rows %d", name, b.HostBytes, want)
			}
			once := gpusim.NewDevice(dev.Config()).PCIe().TransferBytes(want, tr.Pinned())

			if _, err := tr.Compute(b); err != nil {
				t.Fatal(err)
			}
			idle("Compute")
			if link.BytesMoved() != want || link.ModeledTime() != once {
				t.Errorf("%s: Compute moved %d bytes in %v, want %d in %v", name, link.BytesMoved(), link.ModeledTime(), want, once)
			}
			if k == DGL && prep.GraphBytes(b.Layers) == want-prep.MissBytes(b) {
				t.Fatalf("%s: compute translated no format onto the batch; the next clause needs it to", name)
			}
			if _, err := tr.Evaluate(b); err != nil {
				t.Fatal(err)
			}
			idle("Evaluate")
			if link.BytesMoved() != 2*want || link.ModeledTime() != 2*once {
				t.Errorf("%s: Compute + Evaluate moved %d bytes in %v, want %d in %v", name, link.BytesMoved(), link.ModeledTime(), 2*want, 2*once)
			}
			b.Release()
		}

		opt := quickOpts()
		opt.Device.MemoryBytes = 64
		tr, err := New(k, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tr.Prepare(ds.BatchDsts(40, 5), nil)
		if err != nil {
			t.Fatalf("%s: a prepare touched the 64-byte device: %v", k, err)
		}
		var oom *gpusim.OOMError
		if _, err := tr.Compute(b); !errors.As(err, &oom) {
			t.Errorf("%s: Compute on a 64-byte device returned %v, want *gpusim.OOMError", k, err)
		}
		if m := tr.Engine.Dev.MemInUse(); m != 0 {
			t.Errorf("%s: %d bytes on the engine device after the failed Compute, want 0", k, m)
		}
		b.Release()
	}
}
