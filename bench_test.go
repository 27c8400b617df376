// Package graphtensor's repository-level benchmarks: one testing.B per
// table and figure of the paper's evaluation. Each benchmark regenerates
// its experiment at quick scale so `go test -bench` stays tractable; the
// full rows/series are produced by `cmd/gtbench -exp <id>`.
//
// Run all:
//
//	go test -bench=. -benchmem ./...
package graphtensor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/experiments"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/sampling"
	"graphtensor/internal/serve"
	"graphtensor/internal/tensor"
)

func benchConfig() experiments.Config {
	c := experiments.DefaultConfig()
	c.Quick = true
	c.Batches = 1
	return c
}

// runExp benchmarks one experiment's regeneration.
func runExp(b *testing.B, id string) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B)       { runExp(b, "table2") }
func BenchmarkTable3Comparison(b *testing.B)     { runExp(b, "table3") }
func BenchmarkTable1CostModelFit(b *testing.B)   { runExp(b, "table1") }
func BenchmarkFig6aMemoryBloat(b *testing.B)     { runExp(b, "fig6a") }
func BenchmarkFig6bCacheBloat(b *testing.B)      { runExp(b, "fig6b") }
func BenchmarkFig8DegreeStats(b *testing.B)      { runExp(b, "fig8") }
func BenchmarkFig11bReduction(b *testing.B)      { runExp(b, "fig11b") }
func BenchmarkFig12aBreakdown(b *testing.B)      { runExp(b, "fig12a") }
func BenchmarkFig12bResources(b *testing.B)      { runExp(b, "fig12b") }
func BenchmarkFig14Contention(b *testing.B)      { runExp(b, "fig14") }
func BenchmarkFig15Training(b *testing.B)        { runExp(b, "fig15") }
func BenchmarkFig16KernelBreakdown(b *testing.B) { runExp(b, "fig16") }
func BenchmarkFig17NAPAResources(b *testing.B)   { runExp(b, "fig17") }
func BenchmarkFig18DKPImpact(b *testing.B)       { runExp(b, "fig18") }
func BenchmarkFig19EndToEnd(b *testing.B)        { runExp(b, "fig19") }
func BenchmarkFig20Timeline(b *testing.B)        { runExp(b, "fig20") }

// --- Micro-benchmarks of the hot paths, for profiling the substrate ---

// benchBipartite builds a sampled-subgraph-shaped BCSR for kernel benches.
func benchBipartite(nDst, nSrc, fanout, dim int) (*kernels.Graphs, *tensor.Matrix) {
	rng := tensor.NewRNG(1)
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
	return &kernels.Graphs{CSR: csr, CSC: graph.BCSRToBCSC(csr)}, tensor.Random(nSrc, dim, 1, rng)
}

func benchStrategyForward(b *testing.B, s kernels.Strategy, modes kernels.Modes) {
	g, x := benchBipartite(500, 900, 6, 64)
	dev := gpusim.NewDevice(gpusim.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := kernels.NewCtx(dev)
		gg := &kernels.Graphs{CSR: g.CSR, CSC: g.CSC}
		xd, _ := kernels.WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		out, err := s.Forward(ctx, gg, xd, modes)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
		xd.Free()
	}
}

func BenchmarkNAPAForwardGCN(b *testing.B) {
	benchStrategyForward(b, kernels.NAPA{}, kernels.GCNModes())
}
func BenchmarkNAPAForwardNGCF(b *testing.B) {
	benchStrategyForward(b, kernels.NAPA{}, kernels.NGCFModes())
}
func BenchmarkGraphApproachForwardNGCF(b *testing.B) {
	benchStrategyForward(b, kernels.GraphApproach{}, kernels.NGCFModes())
}
func BenchmarkDLApproachForwardNGCF(b *testing.B) {
	benchStrategyForward(b, kernels.DLApproach{}, kernels.NGCFModes())
}

// BenchmarkMatMul measures the GEMM the engines run: kernels.Linear (and,
// through it, every model forward, serving replica and dkp.Calibrate)
// computes through tensor.MatMulInto. A fresh destination per iteration, as
// Linear allocates its output (2 allocs/op: header + payload).
func BenchmarkMatMul(b *testing.B) {
	rng := tensor.NewRNG(2)
	x := tensor.Random(512, 128, 1, rng)
	w := tensor.Random(128, 64, 1, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(tensor.New(512, 64), x, w)
	}
}

// BenchmarkMatMulParallel measures the pooled parallel GEMM path: the same
// shape as BenchmarkMatMul dispatched onto the persistent worker pool at 8
// workers (forced, so the scaling is visible even on small CI boxes). The
// destination-passing form keeps the loop allocation-free.
func BenchmarkMatMulParallel(b *testing.B) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := tensor.NewRNG(2)
	x := tensor.Random(512, 128, 1, rng)
	w := tensor.Random(128, 64, 1, rng)
	dst := tensor.Get(512, 64)
	defer tensor.Put(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, w)
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	rng := tensor.NewRNG(3)
	n, e := 5000, 30000
	coo := &graph.COO{NumVertices: n, Src: make([]graph.VID, e), Dst: make([]graph.VID, e)}
	for i := 0; i < e; i++ {
		coo.Src[i] = graph.VID(rng.Intn(n))
		coo.Dst[i] = graph.VID(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = graph.COOToCSR(coo)
	}
}

func BenchmarkNeighborSampling(b *testing.B) {
	ds, _ := datasets.Generate("products", datasets.DefaultScale())
	cfg := sampling.DefaultConfig()
	sampler := sampling.New(ds.Graph, cfg)
	batch := ds.BatchDsts(300, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampler.Sample(batch)
	}
}

func BenchmarkTrainBatchPreproGT(b *testing.B) {
	ds, _ := datasets.Generate("products", datasets.DefaultScale())
	opt := frameworks.DefaultOptions()
	tr, _ := frameworks.New(frameworks.PreproGT, ds, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiGPUTrainBatch measures one data-parallel training step of
// the DeviceGroup engine at 1–8 flat simulated devices plus a 16-device
// hierarchical group (4 nodes of 4): batch partitioning into edge-balanced
// gradient shards (node-aware on the hierarchical fabric), per-device
// forward+backward on the worker pool, modeled all-reduce on the configured
// fabric, deterministic optimizer step. The per-device arenas recycle all
// device allocations, so allocs/op tracks the host-side steady state.
func BenchmarkMultiGPUTrainBatch(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name          string
		devs, perNode int
	}{
		{"devs=1", 1, 0},
		{"devs=2", 2, 0},
		{"devs=4", 4, 0},
		{"devs=8", 8, 0},
		// The multi-node step: 16 devices as 4 nodes of 4 over the
		// hierarchical fabric (node-aware shard assignment, two-tier
		// all-reduce, cross-node scatter) — its allocs/op ratchets the
		// node-assignment scratch reuse.
		{"devs=16/nodes=4", 16, 4},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opt := frameworks.DefaultOptions()
			opt.NumDevices = tc.devs
			opt.DevicesPerNode = tc.perNode
			if tc.devs > multigpu.DefaultShards {
				opt.GradShards = tc.devs
			}
			tr, err := frameworks.New(frameworks.BaseGT, ds, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.TrainBatch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareBatch is the producer-only benchmark: sample → reindex/
// translate → localize into gradient shards, through one warm prefetch-ring
// slot (arena + structure pool), with no compute and no device transfer.
// Its allocs/op is the steady-state allocation floor of the producer-arena
// discipline — a small constant independent of how many batches ran before.
func BenchmarkPrepareBatch(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	opt := frameworks.DefaultOptions()
	opt.NumDevices = 2 // staging + shard localization, the group's producer path
	tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	slot := pipeline.NewSlot()
	dsts := ds.BatchDsts(opt.BatchSize, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := tr.PrepareTrainInto(dsts, slot)
		if err != nil {
			b.Fatal(err)
		}
		batch.Release()
		slot.Recycle(batch)
	}
}

// BenchmarkServeQuery is the serving fast path's allocation/latency floor:
// one warm coalesced batch (256 dsts) through PrepareInto on a warm slot +
// FWP-only inference, no gradients and no backward workspaces. Its
// allocs/op is gated by the benchdiff alloc ratchet, like
// BenchmarkPrepareBatch.
func BenchmarkServeQuery(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := frameworks.New(frameworks.PreproGT, ds, frameworks.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	slot := pipeline.NewSlot()
	dsts := ds.BatchDsts(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits, batch, err := tr.Serve(dsts, slot)
		if err != nil {
			b.Fatal(err)
		}
		logits.Free()
		batch.Release()
		slot.Recycle(batch)
	}
}

// BenchmarkServeThroughput drives the concurrent serving engine end to end:
// 64 outstanding queries of 16 dsts per op, coalesced under the default
// size/deadline policy and drained by 2 replicas with a 10% degree cache.
// The reported queries/sec metric is the engine's steady-state throughput.
func BenchmarkServeThroughput(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := frameworks.New(frameworks.PreproGT, ds, frameworks.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := serve.DefaultConfig()
	cfg.Replicas = 2
	// One admission shard pins the historical batch composition (shard
	// count changes how the 64 outstanding queries coalesce, and with it
	// the per-batch fixed allocs this snapshot ratchets); the sharded
	// front end is measured by BenchmarkServeContention.
	cfg.Shards = 1
	cfg.MaxDelay = 500 * time.Microsecond
	cfg.Cache = cache.New(ds.NumVertices()/10, cache.Degree, ds.Graph)
	srv, err := serve.NewServer(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const queries, querySize = 64, 16
	dsts := make([][]graph.VID, queries)
	outs := make([][]float32, queries)
	for q := range dsts {
		dsts[q] = ds.BatchDsts(querySize, uint64(q+1))
		outs[q] = make([]float32, querySize*srv.OutDim())
	}
	tks := make([]*serve.Ticket, queries)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for q := range dsts {
			var err error
			tks[q], err = srv.Submit(dsts[q], outs[q])
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, tk := range tks {
			if err := tk.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(queries*b.N)/time.Since(start).Seconds(), "queries/sec")
}

// BenchmarkServeContention stresses the admission front end: 256
// outstanding 4-dst queries per op — small batches, so fixed per-query
// admission cost dominates — submitted in bulk through SubmitMany and
// routed over the sharded admission path (one shard per replica). With a
// single coalescing goroutine and a mutex-guarded stats path this workload
// serialized on admission; sharded admission + lock-free stats should let
// throughput scale with the replica count.
func BenchmarkServeContention(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := frameworks.New(frameworks.PreproGT, ds, frameworks.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	const queries, querySize = 256, 4
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := serve.DefaultConfig()
			cfg.Replicas = replicas
			cfg.MaxBatch = 64
			cfg.MaxDelay = 200 * time.Microsecond
			cfg.Cache = cache.New(ds.NumVertices()/10, cache.Degree, ds.Graph)
			srv, err := serve.NewServer(tr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			dsts := make([][]graph.VID, queries)
			outs := make([][]float32, queries)
			for q := range dsts {
				dsts[q] = ds.BatchDsts(querySize, uint64(q+1))
				outs[q] = make([]float32, querySize*srv.OutDim())
			}
			tks := make([]*serve.Ticket, queries)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := srv.SubmitMany(dsts, outs, tks); err != nil {
					b.Fatal(err)
				}
				for _, tk := range tks {
					if err := tk.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(queries*b.N)/time.Since(start).Seconds(), "queries/sec")
		})
	}
}

// BenchmarkTrainEpoch is the steady-state end-to-end benchmark: 8 batches
// per op through the depth-N prefetch ring (preprocessing of batch t+1
// overlapping compute of batch t, arena-recycled buffers), the discipline
// train.Driver runs production epochs under.
func BenchmarkTrainEpoch(b *testing.B) {
	ds, err := datasets.Generate("products", datasets.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	opt := frameworks.DefaultOptions()
	tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.TrainEpoch(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrate is the offline cost-model fit every process pays once
// per device class at set-up (dkp.ProfileFor): DefaultSweep's eight shapes
// through the kernels' trace passes, both placements, and four least-squares
// solves.
func BenchmarkCalibrate(b *testing.B) {
	cfg := gpusim.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dkp.Calibrate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyDecide is the placement policy's hot path, paid once per
// rearrangeable layer per forward/backward pass: the fitted cost model
// evaluated directly, zero locks — and held at exactly 0 allocs/op
// (ratcheted in CI).
func BenchmarkPolicyDecide(b *testing.B) {
	pol := dkp.NewPolicy(dkp.ProfileFor(gpusim.DefaultConfig()))
	shapes := dkp.DefaultSweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(shapes[i%len(shapes)], false, 0)
	}
}
