// Package experiments regenerates every table and figure of the paper's
// evaluation (§III motivation and §VI): each experiment is a named,
// self-contained function that builds its workloads, runs the relevant
// frameworks on the simulated device and formats the same rows/series the
// paper reports, with the paper's own numbers printed alongside for
// comparison. cmd/gtbench and the repo-level benchmarks both dispatch
// through Run.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
)

// Config shapes an experiment run.
type Config struct {
	// Scale is the dataset scale; DefaultScale reproduces the documented
	// laptop-scale setup.
	Scale datasets.Scale
	// Quick restricts dataset lists and batch counts for smoke runs.
	Quick bool
	// Device is the simulated GPU; zero value means gpusim.DefaultConfig.
	Device gpusim.Config
	// Batches is the per-measurement batch count (0 = experiment default).
	Batches int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Scale: datasets.DefaultScale(), Device: gpusim.DefaultConfig()}
}

func (c Config) device() gpusim.Config {
	if c.Device.NumSMs == 0 {
		return gpusim.DefaultConfig()
	}
	return c.Device
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Text  string
}

// runner is an experiment entry point.
type runner struct {
	title string
	fn    func(Config) (*Result, error)
}

var registry = map[string]runner{}

func register(id, title string, fn func(Config) (*Result, error)) {
	registry[id] = runner{title: title, fn: fn}
}

// IDs lists all experiment identifiers in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := r.fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	return res, nil
}

// lightSets and heavySets follow the paper's light/heavy feature split.
func lightSets(cfg Config) []string {
	if cfg.Quick {
		return []string{"products", "reddit2"}
	}
	return []string{"products", "citation2", "papers", "amazon", "reddit2"}
}

func heavySets(cfg Config) []string {
	if cfg.Quick {
		return []string{"wiki-talk", "roadnet-ca"}
	}
	return []string{"gowalla", "google", "roadnet-ca", "wiki-talk", "livejournal"}
}

func allSets(cfg Config) []string { return append(lightSets(cfg), heavySets(cfg)...) }

func (c Config) batches(def int) int {
	if c.Batches > 0 {
		return c.Batches
	}
	if c.Quick {
		return 3
	}
	return def
}

// loaded memoises loadDataset per (name, scale) for the life of the process:
// generation is deterministic, datasets are read-only once built, and the
// experiments ask for the same handful dozens of times.
var loaded sync.Map // datasetKey → *datasets.Dataset

type datasetKey struct {
	name  string
	scale datasets.Scale
}

// loadDataset returns the dataset generated at the config scale.
func loadDataset(cfg Config, name string) (*datasets.Dataset, error) {
	sc := cfg.Scale
	if sc.VertexDivisor == 0 {
		sc = datasets.DefaultScale()
	}
	key := datasetKey{name, sc}
	if ds, ok := loaded.Load(key); ok {
		return ds.(*datasets.Dataset), nil
	}
	ds, err := datasets.Generate(name, sc)
	if err != nil {
		return nil, err
	}
	loaded.Store(key, ds)
	return ds, nil
}

// newTrainer builds a framework trainer with the experiment defaults.
func newTrainer(cfg Config, kind frameworks.Kind, ds *datasets.Dataset, model string) (*frameworks.Trainer, error) {
	opt := frameworks.DefaultOptions()
	opt.Model = model
	opt.Device = cfg.device()
	if cfg.Quick {
		opt.BatchSize = 100
	}
	return frameworks.New(kind, ds, opt)
}

// fmtRatio prints "measured (paper: X)" rows.
func fmtRatio(measured, paper float64) string {
	if paper == 0 {
		return fmt.Sprintf("%8.2f", measured)
	}
	return fmt.Sprintf("%8.2f  (paper: %.2f)", measured, paper)
}
