package kernels_test

import (
	"fmt"
	"math"
	"testing"

	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/models"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/serve"
	"graphtensor/internal/tensor"
)

// A matrix AllocDeviceMatrix hands out is valid until its Free or its
// scope's EndBatch. TestPoisonedReleaseBitwise turns "nobody reads one
// later than that" into a check: with every returned matrix filled with NaN
// on its way to the pool, every engine must produce the bits it produces
// without.

// trace is what a run leaves for the comparison: every value, in order.
type trace []entry

type entry struct {
	name string
	vals []float32
}

func (tr *trace) add(name string, v ...float32) {
	*tr = append(*tr, entry{name, append([]float32(nil), v...)})
}

func (tr *trace) addModel(name string, m *core.Model) {
	for li, l := range m.Layers {
		tr.add(fmt.Sprintf("%s W%d", name, li), l.W.Data...)
		tr.add(fmt.Sprintf("%s B%d", name, li), l.B...)
	}
}

// layerGraph is a sampled-layer-shaped subgraph: a self edge plus fanout
// random neighbours per dst.
func layerGraph(rng *tensor.RNG, nDst, nSrc, fanout int) kernels.Graphs {
	coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
	for d := 0; d < nDst; d++ {
		coo.Src = append(coo.Src, graph.VID(d))
		coo.Dst = append(coo.Dst, graph.VID(d))
		for i := 0; i < fanout; i++ {
			coo.Src = append(coo.Src, graph.VID(rng.Intn(nSrc)))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	return kernels.Graphs{CSR: csr, CSC: graph.BCSRToBCSC(csr)}
}

// engineRuns drives one executor per strategy × model × placement through
// two training steps and two inferences.
func engineRuns(t *testing.T, tr *trace) {
	const nBatch, nMid, nSrc, dim, hidden, classes = 6, 14, 25, 10, 8, 3
	strategies := []kernels.Strategy{kernels.NAPA{}, kernels.DLApproach{}, kernels.GraphApproach{}, kernels.Advisor{}}
	modes := []struct {
		name string
		m    kernels.Modes
	}{
		{"gcn", kernels.GCNModes()}, {"ngcf", kernels.NGCFModes()},
		{"gat", kernels.AttentionModes()}, {"sagepool", models.SAGEPoolModes()},
	}
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 8
	for _, s := range strategies {
		for _, mc := range modes {
			for _, p := range []dkp.Placement{dkp.AggrFirst, dkp.CombFirst} {
				name := fmt.Sprintf("%s/%s/%v", s.Name(), mc.name, p)
				rng := tensor.NewRNG(42)
				graphs := []kernels.Graphs{layerGraph(rng, nMid, nSrc, 3), layerGraph(rng, nBatch, nMid, 3)}
				x := tensor.Random(nSrc, dim, 1, rng)
				labels := make([]int32, nBatch)
				for i := range labels {
					labels[i] = int32(rng.Intn(classes))
				}
				m, err := core.NewModel(core.Config{Strategy: s, Seed: 7, Specs: []core.LayerSpec{
					{Modes: mc.m, InDim: dim, OutDim: hidden, Activation: true},
					{Modes: mc.m, InDim: hidden, OutDim: classes},
				}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m.SetLayerPlacements([]dkp.Placement{p, p})
				eng := core.NewEngine(cfg)
				for step := 0; step < 2; step++ {
					loss, _, err := eng.ForwardBackward(m, graphs, x, labels, nBatch, 0)
					eng.EndBatch()
					if err != nil {
						t.Fatalf("%s: ForwardBackward: %v", name, err)
					}
					m.Step(0.1)
					logits, err := eng.Infer(m, graphs, x, 0)
					if err != nil {
						t.Fatalf("%s: Infer: %v", name, err)
					}
					tr.add(name+" loss", float32(loss))
					tr.add(name+" logits", logits.M.Data...)
					logits.Free()
				}
				tr.addModel(name, m)
			}
		}
	}
}

// groupRun trains two batches on a two-device group.
func groupRun(t *testing.T, tr *trace, ds *datasets.Dataset) {
	params := models.Params{InDim: ds.FeatureDim, Hidden: 8, OutDim: 8, Layers: 2, Seed: 1}
	g, err := multigpu.NewGroup(2, multigpu.DefaultShards, gpusim.DefaultConfig(), true,
		func() (*core.Model, error) { return models.NGCF(params) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		scfg := sampling.DefaultConfig()
		scfg.Seed = uint64(100 + i)
		b, err := prep.Serial(sampling.New(ds.Graph, scfg), ds.Features, ds.Labels,
			ds.BatchDsts(40, uint64(i+1)), prep.Config{Format: prep.FormatCSRCSC})
		if err != nil {
			t.Fatal(err)
		}
		loss, err := g.TrainBatch(b, 0.05)
		b.Release()
		if err != nil {
			t.Fatalf("group TrainBatch: %v", err)
		}
		tr.add("group loss", float32(loss))
	}
	tr.addModel("group", g.Replica(0))
}

// serveRun trains a trainer for two batches and serves one micro-batch
// through a server's replica.
func serveRun(t *testing.T, tr *trace, ds *datasets.Dataset) {
	opt := frameworks.DefaultOptions()
	opt.BatchSize = 40
	trainer, err := frameworks.New(frameworks.BaseGT, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, err := trainer.TrainBatch()
		if err != nil {
			t.Fatal(err)
		}
		tr.add("trainer loss", float32(st.Loss))
	}
	s, err := serve.NewServer(trainer, serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := ds.BatchDsts(20, 900)
	out := make([]float32, len(q)*s.OutDim())
	if err := s.Query(q, out); err != nil {
		t.Fatalf("served query: %v", err)
	}
	tr.add("served logits", out...)
}

func TestPoisonedReleaseBitwise(t *testing.T) {
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	runAll := func() trace {
		var tr trace
		engineRuns(t, &tr)
		groupRun(t, &tr, ds)
		serveRun(t, &tr, ds)
		return tr
	}
	clean := runAll()
	kernels.PoisonFreed(t)
	poisoned := runAll()

	if len(clean) != len(poisoned) {
		t.Fatalf("%d values clean, %d poisoned", len(clean), len(poisoned))
	}
	for i, want := range clean {
		got := poisoned[i].vals
		if len(got) != len(want.vals) {
			t.Fatalf("%s: %d values clean, %d poisoned", want.name, len(want.vals), len(got))
		}
		for j, w := range want.vals {
			if math.Float32bits(got[j]) != math.Float32bits(w) {
				t.Errorf("%s[%d]: %v with released matrices poisoned, %v without: something reads a matrix after its Free or its scope's EndBatch",
					want.name, j, got[j], w)
				break
			}
		}
	}
}
