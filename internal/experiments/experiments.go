// Package experiments regenerates every table and figure of the paper's
// evaluation (§III motivation and §VI), with the paper's own numbers printed
// alongside; cmd/gtbench and the repo-level benchmarks dispatch through Run.
//
// An experiment is a row of registry: id, title, clock and the function that
// prints it. Most figures are a value of one of two forms, each run by one
// runner (rows.go): a perDataset prints one row of numbers per dataset, then
// the column means against the paper's (fig6a, fig8, table2, the per-dataset
// ablations, …); a versus prints, per model and dataset, one time per
// framework normalised to one of them (fig15, fig19). The rest are one-off
// layouts and stay functions. To add a figure, write its value or function
// beside its section's and add its row to registry in id order; `go test
// ./internal/experiments -update` then pins its quick output under testdata/
// (<id>.txt byte for byte, or <id>.layout for a host-clock figure).
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
)

// Config shapes an experiment run.
type Config struct {
	// Quick restricts dataset lists and batch counts for smoke runs.
	Quick bool
	// Batches is the per-measurement batch count (0 = experiment default).
	Batches int
}

// DefaultConfig returns the standard experiment configuration: every
// dataset, each experiment's own batch count.
func DefaultConfig() Config { return Config{} }

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Text  string
}

// clock names what an experiment's figures are read from.
type clock int

const (
	modeled clock = iota // counters, memory, modeled time: the same bytes on every run
	host                 // a host-clock column (wall time, a real mutex): only the layout repeats
)

// experiment is one row of the registry.
type experiment struct {
	id, title string
	clock     clock
	run       func(Config) (string, error)
}

// registry is every experiment, sorted by id.
var registry = []experiment{
	{"abl-bwp-shortcut", "Ablation: first-layer aggregation-first BWP shortcut", modeled, ablBWPShortcut},
	{"abl-contention", "Ablation: A/H split vs shared hash table lock wait", host, ablContention.run},
	{"abl-dkp-sweep", "Ablation: DKP crossover as nFeature/nHidden sweeps", modeled, ablDKPSweep},
	{"abl-fusion", "Ablation: fused vs unfused NAPA (FusedMM idea, §VII)", modeled, ablFusion.run},
	{"abl-pinned", "Ablation: pinned vs pageable transfer buffers", modeled, ablPinned.run},
	{"abl-scheduling", "Ablation: feature-wise (NAPA) vs edge-wise (Graph) scheduling", modeled, ablScheduling.run},
	{"abl-translation", "Ablation: CSR-only NAPA vs COO + format translation cost", host, ablTranslation.run},
	{"cache", "PaGraph-style embedding cache: hit rate vs locality (§VII)", modeled, cacheHitRate.run},
	{"chaos", "Fault injection: replica failover, device death, crash/restore — all bitwise", host, runChaos},
	{"dkpfit", "DKP v2: offline cost-model fit + placement policy vs pinned orders", modeled, runDKPFit},
	{"fig11b", "Fig 11b: per-layer computation reduction, aggr-first vs comb-first", modeled, runFig11b},
	{"fig12a", "Fig 12a: end-to-end latency breakdown (S/R/K/T vs FWP+BWP)", modeled, fig12a.run},
	{"fig12b", "Fig 12b: system resource utilization per preprocessing task", host, runFig12b},
	{"fig14", "Fig 14a: hash-table lock contention in parallel preprocessing", host, runFig14},
	{"fig15", "Fig 15: training latency (GPU kernels) across frameworks", modeled, fig15.run},
	{"fig16", "Fig 16: GPU kernel execution breakdown (products, wiki-talk)", host, runFig16},
	{"fig17", "Fig 17: NAPA GPU resource usage (memory + cache reduction)", modeled, fig17.run},
	{"fig18", "Fig 18: DKP impact on FLOPs and global memory accesses", modeled, runFig18},
	{"fig19", "Fig 19: end-to-end latency across frameworks (incl. preprocessing)", modeled, fig19.run},
	{"fig20", "Fig 20: preprocessing timeline, Prepro-GT vs prior scheduling", modeled, runFig20},
	{"fig6a", "Fig 6a: DL-approach memory bloat (normalized footprint)", modeled, fig6a.run},
	{"fig6b", "Fig 6b: Graph-approach SDDMM cache bloat (normalized cache load)", modeled, fig6b.run},
	{"fig8", "Fig 8: degree distribution, original vs preprocessed graphs", modeled, fig8.run},
	{"multigpu", "Data-parallel training scaling to 64 modeled devices: flat vs hierarchical fabrics, per-tier comm (§VII)", modeled, runMultiGPU},
	{"serving", "Inference serving: request coalescing x replicas x embedding cache", host, runServing},
	{"table1", "Table I: DKP cost model coefficient fitting", modeled, runTable1},
	{"table2", "Table II: important characteristics of graphs", modeled, table2.run},
	{"table3", "Table III: comparison across various GNN frameworks", modeled, runTable3},
}

// IDs lists all experiment identifiers in registry (sorted) order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// lookup returns the registry row of id.
func lookup(id string) (experiment, bool) {
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// Title returns an experiment's title, or "" for an unknown id.
func Title(id string) string {
	e, _ := lookup(id)
	return e.title
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	text, err := e.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return &Result{ID: id, Title: e.title, Text: text}, nil
}

// allSets lists the datasets of the per-dataset figures: the paper's
// light-feature graphs, then its heavy-feature ones.
func allSets(cfg Config) []string {
	if cfg.Quick {
		return []string{"products", "reddit2", "wiki-talk", "roadnet-ca"}
	}
	return []string{"products", "citation2", "papers", "amazon", "reddit2",
		"gowalla", "google", "roadnet-ca", "wiki-talk", "livejournal"}
}

func (c Config) batches(def int) int {
	if c.Batches > 0 {
		return c.Batches
	}
	if c.Quick {
		return 3
	}
	return def
}

// loaded memoises loadDataset for the life of the process: generation is
// deterministic, datasets are read-only once built, and the experiments ask
// for the same handful dozens of times.
var loaded sync.Map // name → *datasets.Dataset

// scale is the dataset scale every experiment runs at.
var scale = datasets.DefaultScale()

// loadDataset returns the named dataset generated at scale.
func loadDataset(name string) (*datasets.Dataset, error) {
	if ds, ok := loaded.Load(name); ok {
		return ds.(*datasets.Dataset), nil
	}
	ds, err := datasets.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	loaded.Store(name, ds)
	return ds, nil
}

// trainerOptions are the experiment defaults for a trainer of the model.
func trainerOptions(cfg Config, model string) frameworks.Options {
	opt := frameworks.DefaultOptions()
	opt.Model = model
	if cfg.Quick {
		opt.BatchSize = 100
	}
	return opt
}

// newTrainer builds a framework trainer with the experiment defaults.
func newTrainer(cfg Config, kind frameworks.Kind, ds *datasets.Dataset, model string) (*frameworks.Trainer, error) {
	return frameworks.New(kind, ds, trainerOptions(cfg, model))
}

// isOOM reports whether err is a simulated device running out of memory.
func isOOM(err error) bool {
	var oom *gpusim.OOMError
	return errors.As(err, &oom)
}

// unlimitedDevice is the default device without a memory cap: the kernel
// figures measure footprints, they do not gate on them.
func unlimitedDevice() *gpusim.Device {
	c := gpusim.DefaultConfig()
	c.MemoryBytes = 0
	return gpusim.NewDevice(c)
}

// prepareKernelBatch samples and prepares one batch of a dataset with the
// given format and uploads its embedding matrix to dev, returning the
// batch's kernel context, the batch and the uploaded matrix.
func prepareKernelBatch(ds *datasets.Dataset, dev *gpusim.Device, format prep.Format) (*kernels.Ctx, *prep.Batch, *kernels.DeviceMatrix, error) {
	b, err := pipeline.Serial(ds.Graph, ds.Features, ds.Labels, ds.BatchDsts(300, 1), samplerFor(ds),
		prep.Config{Format: format})
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := kernels.NewCtx(dev)
	x, err := kernels.WrapDeviceMatrix(ctx, b.Embed.Data, 0, "batch-x")
	if err != nil {
		return nil, nil, nil, err
	}
	return ctx, b, x, nil
}

// lockWait prepares one batch of ds through the service-wide scheduler under
// the fully-shared VID table (relax=false) or the A/H split, and returns the
// prepare's host wall time and the time it spent blocked on the table's lock.
func lockWait(ds *datasets.Dataset, relax bool) (wall, wait time.Duration, err error) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Sampler = samplerFor(ds)
	pcfg.RelaxContention = relax
	sched := pipeline.NewScheduler(ds.Graph, ds.Features, ds.Labels, pcfg)
	t0 := time.Now()
	b, err := sched.Prepare(ds.BatchDsts(300, 1), nil)
	if err != nil {
		return 0, 0, err
	}
	defer b.Release()
	return time.Since(t0), b.Sample.Table.LockWait(), nil
}
