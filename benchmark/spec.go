package main

// The benchmark's vocabulary: every workload and metric the binary emits is
// declared here, and BENCHMARK.json at the repository root is generated from
// these tables (-spec) and checked against them by the harness tests.

const (
	lower  = "lower"
	higher = "higher"

	// runSeconds is the length of one measured window; the driver passes it
	// back as --seconds.
	runSeconds = 10
)

// metricSpec declares one metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen (per-layer metrics have none).
// exact marks counts and modeled-clock figures: for one seed they repeat to
// the last digit at any GOMAXPROCS, which -selfcheck enforces.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
}

// endToEnd lists the gated metrics. Every workload emits every one of them,
// and none is ever zero.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: lower, bound: 0.03},
	{name: "alloc_kb_per_op", unit: "KB", better: lower, bound: 0.05},
	{name: "live_heap_mb", unit: "MB", better: lower, bound: 0.05},
	{name: "modeled_step_us", unit: "us", better: lower, bound: 0.02, exact: true},
	{name: "modeled_compute_us", unit: "us", better: lower, bound: 0.02, exact: true},
	{name: "modeled_comm_us", unit: "us", better: lower, bound: 0.02, exact: true},
}

// perLayer lists the traced run's metrics, prefixed by the module they
// attribute to. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{name: "bench.cpu_ms_per_op", unit: "ms", better: lower},
	{name: "bench.wall_ops_per_s", unit: "ops/s", better: higher},
	{name: "bench.steal_pct", unit: "%", better: lower},
	{name: "bench.setup_wall_s", unit: "s", better: lower},
	{name: "bench.peak_rss_mb", unit: "MB", better: lower},
	{name: "bench.trace_overhead_pct", unit: "%", better: lower},
	{name: "bench.failed_op_pct", unit: "%", better: lower},
	{name: "datasets.generate_s", unit: "s", better: lower},
	{name: "frameworks.new_s", unit: "s", better: lower},
	{name: "dkp.calibrate_s", unit: "s", better: lower},
	{name: "pipeline.ring_wait_ms", unit: "ms", better: lower},
	{name: "pipeline.ring_wait_pct", unit: "%", better: lower},
	{name: "pipeline.prepare_ms", unit: "ms", better: lower},
	{name: "prep.sample_ms", unit: "ms", better: lower},
	{name: "prep.reindex_ms", unit: "ms", better: lower},
	{name: "prep.lookup_ms", unit: "ms", better: lower},
	{name: "prep.transfer_ms", unit: "ms", better: lower},
	{name: "prep.miss_kb_per_batch", unit: "KB", better: lower, exact: true},
	{name: "pipeline.modeled_sample_us", unit: "us", better: lower, exact: true},
	{name: "pipeline.modeled_reindex_us", unit: "us", better: lower, exact: true},
	{name: "pipeline.modeled_lookup_us", unit: "us", better: lower, exact: true},
	{name: "pipeline.modeled_transfer_us", unit: "us", better: lower, exact: true},
	{name: "pipeline.modeled_prep_us", unit: "us", better: lower, exact: true},
	{name: "sampling.sample_ns", unit: "ns", better: lower},
	{name: "sampling.vertices_per_batch", unit: "count", better: lower, exact: true},
	{name: "sampling.edges_per_batch", unit: "count", better: lower, exact: true},
	{name: "graph.coo_to_csr_ns", unit: "ns", better: lower},
	{name: "core.compute_ms", unit: "ms", better: lower},
	{name: "core.infer_ms", unit: "ms", better: lower},
	{name: "core.backward_share_pct", unit: "%", better: lower},
	{name: "kernels.aggr_fwd_ns", unit: "ns", better: lower},
	{name: "kernels.aggr_fwd_ns_per_access", unit: "ns", better: lower},
	{name: "kernels.linear_fwd_ns", unit: "ns", better: lower},
	{name: "kernels.linear_bwd_ns", unit: "ns", better: lower},
	{name: "tensor.matmul_ns", unit: "ns", better: lower},
	{name: "kernels.linear_over_matmul", unit: "ratio", better: lower},
	{name: "gpusim.flops_per_batch", unit: "count", better: lower, exact: true},
	{name: "gpusim.global_loads_per_batch", unit: "count", better: lower, exact: true},
	{name: "gpusim.cache_hit_pct", unit: "%", better: higher, exact: true},
	{name: "gpusim.launches_per_batch", unit: "count", better: lower, exact: true},
	{name: "dkp.decide_ns", unit: "ns", better: lower},
	{name: "dkp.comb_first_pct", unit: "%", better: lower, exact: true},
	{name: "cache.hit_pct", unit: "%", better: higher},
	{name: "cache.count_resident_ns", unit: "ns", better: lower},
	{name: "sched.dispatch_ns", unit: "ns", better: lower},
	{name: "multigpu.train_batch_ms", unit: "ms", better: lower},
	{name: "multigpu.partition_ns", unit: "ns", better: lower},
	{name: "multigpu.imbalance", unit: "ratio", better: lower, exact: true},
	{name: "multigpu.node_imbalance", unit: "ratio", better: lower, exact: true},
	{name: "multigpu.max_device_compute_us", unit: "us", better: lower, exact: true},
	{name: "multigpu.scatter_us", unit: "us", better: lower, exact: true},
	{name: "multigpu.allreduce_us", unit: "us", better: lower, exact: true},
	{name: "multigpu.intra_us", unit: "us", better: lower, exact: true},
	{name: "multigpu.inter_us", unit: "us", better: lower, exact: true},
	{name: "multigpu.overlap_pct", unit: "%", better: higher, exact: true},
	{name: "multigpu.comm_kb_per_batch", unit: "KB", better: lower, exact: true},
	{name: "multigpu.cross_node_kb_per_batch", unit: "KB", better: lower, exact: true},
	{name: "multigpu.modeled_speedup_vs_1dev", unit: "ratio", better: higher, exact: true},
	{name: "serve.wall_qps", unit: "q/s", better: higher},
	{name: "serve.query_p50_ms", unit: "ms", better: lower},
	{name: "serve.query_p99_ms", unit: "ms", better: lower},
	{name: "serve.open_p50_ms", unit: "ms", better: lower},
	{name: "serve.open_p99_ms", unit: "ms", better: lower},
	{name: "serve.open_gen_late_ms", unit: "ms", better: lower},
	{name: "serve.open_miss_pct", unit: "%", better: lower},
	{name: "serve.submit_ns", unit: "ns", better: lower},
	{name: "serve.mean_batch", unit: "dsts", better: higher},
	{name: "serve.stolen_pct", unit: "%", better: lower},
	{name: "serve.expired", unit: "count", better: lower},
	{name: "serve.serial_query_ms", unit: "ms", better: lower},
}

// workload declares one set of inputs. All run at datasets.DefaultScale(),
// batch 300, fanout 4, 2 layers, hidden 8 (frameworks.DefaultOptions) on
// frameworks.PreproGT.
type workload struct {
	name string
	why  string
	// serve selects the serving engine; otherwise the workload trains.
	serve   bool
	dataset string
	model   string
	// Data-parallel engine shape (zero = the single-device engine).
	numDevices, devicesPerNode, gradShards int
	// segOps is the op count of one measured segment: batches for a training
	// workload, queries (a multiple of serveWindow) for the serving one.
	segOps int
}

var workloads = []workload{
	{
		name:    "train-light",
		why:     "op=1 training batch. products (F=12) GCN on one device: sampling, reindexing, sparse aggregation and the per-SM cache simulation are most of a step; dense GEMM and transfer bytes are small.",
		dataset: "products", model: "gcn", segOps: 32,
	},
	{
		name:    "train-heavy",
		why:     "op=1 training batch. gowalla (F=544) NGCF on one device: Linear/LinearBackward and edge-weighted aggregation over wide rows dominate; K-lookup and T-transfer move 32x train-light's bytes.",
		dataset: "gowalla", model: "ngcf", segOps: 8,
	},
	{
		name:    "train-group",
		why:     "op=1 training batch. products GCN on 8 devices in 2 nodes, 8 gradient shards: the only workload that runs multigpu and the interconnect model, so kernel time reaches the modeled step time.",
		dataset: "products", model: "gcn", numDevices: 8, devicesPerNode: 4, gradShards: 8, segOps: 32,
	},
	{
		name:    "serve-mixed",
		why:     "op=1 served query. products GCN snapshot, 2 replicas, 2 shards, 10% degree cache; 70% queries of 1-4 dsts, 30% of 16-32; closed loop of 64 outstanding: the forward-only path beside training.",
		serve:   true,
		dataset: "products", model: "gcn", segOps: 16 * serveWindow,
	},
}

// benchFile is the shape of BENCHMARK.json.
type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec renders the tables above as BENCHMARK.json.
func benchSpec() benchFile {
	f := benchFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchLayer{Name: m.name, Unit: m.unit, Better: m.better})
	}
	return f
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
