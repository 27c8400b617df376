// Package sampling implements GNN neighbor sampling (§II-B, Fig 4a): for a
// batch of destination vertices it samples a bounded number of in-neighbors
// per vertex, hop by hop, allocating dense new VIDs through the shared
// vidmap hash table.
//
// Frontiers are cumulative (DGL-block style): F₀ is the batch and
// F_t = F_{t-1} ∪ sampled-neighbors(F_{t-1}); the hop-t subgraph has dsts
// F_{t-1} and srcs within F_t, so the embedding matrix after executing a
// GNN layer always covers exactly the next hop's src space. Because new
// VIDs are allocated in first-seen order, F_t always occupies the
// contiguous new-VID range [0, |F_t|).
//
// Neighbor choice is a deterministic function of (seed, dst original VID):
// re-sampling a vertex in a later hop yields the same neighbors, so hop t's
// edge list extends hop t-1's and each dst's neighbors are sampled exactly
// once regardless of how many hops include it.
package sampling

import (
	"fmt"
	"runtime"
	"sync"

	"graphtensor/internal/graph"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
	"graphtensor/internal/vidmap"
)

// Mode selects how sampler threads update the shared hash table.
type Mode int

const (
	// ModeShared is the naive discipline: every worker calls GetOrAssign
	// directly, contending on the table lock (Fig 14a).
	ModeShared Mode = iota
	// ModeSplit is the contention-relaxed discipline of Fig 14c: workers
	// run only the algorithm part (A) producing candidate lists, and a
	// single serialized hash-update part (H) performs all insertions.
	ModeSplit
)

// Config parameterizes the sampler.
type Config struct {
	Fanout  int // neighbors sampled per dst vertex (paper's n)
	Layers  int // GNN depth L (one hop per layer)
	Workers int // sampling threads; 0 means GOMAXPROCS
	Mode    Mode
	Seed    uint64
}

// DefaultConfig matches the paper's setup: batchwise 2-layer sampling with
// a small fanout (every dst also keeps a self edge, GCN-style).
func DefaultConfig() Config {
	return Config{Fanout: 4, Layers: 2, Mode: ModeSplit}
}

// Hop is one sampled hop in original-VID space, before reindexing.
type Hop struct {
	// SrcOrig/DstOrig are parallel edge arrays (COO in original VIDs).
	SrcOrig, DstOrig []graph.VID
	NumDst           int // |F_{t-1}|: dst new VIDs occupy [0, NumDst)
	NumSrc           int // |F_t|: src new VIDs occupy [0, NumSrc)
}

// Result is the sampler output: per-hop edge lists plus the hash table that
// reindexing (R) and embedding lookup (K) consume. A Result recycled
// through Sampler.BeginReuse/SampleReuse keeps its hash table and backing
// edge arrays across batches — the producer-arena discipline of the
// prefetch ring's slot rotation.
type Result struct {
	Table *vidmap.Table
	Batch []graph.VID // original VIDs of the batch dsts (new VIDs 0..len-1)
	Hops  []Hop       // Hops[t-1] is hop t; GNN layer ℓ uses Hops[Layers-ℓ]
	// FrontierSizes[t] = |F_t| (FrontierSizes[0] = len(Batch)).
	FrontierSizes []int

	// src/dst back the cumulative per-hop edge views in Hops; run is the
	// stepwise sampling state. Both are retained across BeginReuse so a
	// slot-recycled result re-enters sampling without reallocating.
	src, dst []graph.VID
	run      Run
}

// NumVertices returns the total number of sampled vertices |F_L|.
func (r *Result) NumVertices() int { return r.FrontierSizes[len(r.FrontierSizes)-1] }

// ForLayer returns the hop that GNN layer ℓ (1-based, first-executed = 1)
// processes: layer 1 gets the outermost hop.
func (r *Result) ForLayer(layer int) *Hop {
	if layer < 1 || layer > len(r.Hops) {
		panic(fmt.Sprintf("sampling: layer %d out of range [1,%d]", layer, len(r.Hops)))
	}
	return &r.Hops[len(r.Hops)-layer]
}

// Sampler samples subgraphs from a full graph. The sampler owns a scratch
// pool so the per-hop worker buffers (candidate edge lists and the
// duplicate-tracking window of Floyd's algorithm) are reused across Sample
// calls instead of reallocated; a Sampler is safe for concurrent Sample
// calls, each drawing its own scratch.
type Sampler struct {
	cfg     Config
	full    *graph.CSR
	scratch sync.Pool // *hopScratch
}

// hopScratch is the reusable workspace (and worker-pool dispatch context)
// of one in-flight sampleHop call.
type hopScratch struct {
	s      *Sampler
	dsts   []graph.VID
	per    int // fixed chunk width, derived from cfg.Workers — not the pool
	chunks []hopChunk
}

// hopChunk is one worker's output buffer: parallel src/dst edge arrays
// plus the chosen-index window Floyd's algorithm deduplicates against.
type hopChunk struct {
	src, dst []graph.VID
	chosen   []int
}

// New creates a sampler over the full graph (CSR of in-neighbors).
func New(full *graph.CSR, cfg Config) *Sampler {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Sampler{cfg: cfg, full: full}
}

// Sample runs the full multi-hop sampling for one batch.
func (s *Sampler) Sample(batch []graph.VID) *Result {
	return s.SampleReuse(batch, nil)
}

// SampleReuse is Sample drawing the result's storage (hash table, hop edge
// arrays) from a recycled Result — the one the prefetch-ring slot retained
// from its previous, released batch. recycled may be nil (plain Sample).
// Reuse is shape-derived only: every recycled buffer is fully rewritten, so
// the output is bitwise identical to a fresh Sample.
func (s *Sampler) SampleReuse(batch []graph.VID, recycled *Result) *Result {
	run := s.BeginReuse(batch, recycled)
	for !run.Done() {
		run.Step()
	}
	return run.Result()
}

// Run is an in-progress sampling whose hops are driven one Step at a time —
// the granularity the service-wide tensor scheduler needs to overlap the
// data preparation of completed hops with the sampling of later ones
// (§V-B, Fig 13: S2 and S1 run back-to-back while R2/K2 already execute).
type Run struct {
	s        *Sampler
	res      *Result
	frontier []graph.VID // dsts the next hop samples neighbors for
	t        int
}

// BeginReuse seeds a stepwise sampling run with the batch dst vertices over
// a recycled Result (nil for a fresh one); see SampleReuse. The returned Run
// is owned by the result, so a steady-state ring slot performs no allocation
// here at all.
func (s *Sampler) BeginReuse(batch []graph.VID, res *Result) *Run {
	if res == nil {
		res = &Result{Table: vidmap.New(len(batch) * (s.cfg.Fanout + 1) * s.cfg.Layers)}
	} else {
		res.Table.Reset()
		res.Batch = res.Batch[:0]
		res.Hops = res.Hops[:0]
		res.FrontierSizes = res.FrontierSizes[:0]
		res.src, res.dst = res.src[:0], res.dst[:0]
	}
	res.Batch = append(res.Batch, batch...)
	// The batch occupies new VIDs [0, len(batch)) in batch order.
	res.Table.InsertBatch(batch)
	res.FrontierSizes = append(res.FrontierSizes, res.Table.Len())
	res.run = Run{s: s, res: res, frontier: res.Batch, t: 1}
	return &res.run
}

// Done reports whether all hops have been sampled.
func (r *Run) Done() bool { return r.t > r.s.cfg.Layers }

// Step samples the next hop and returns it. The hop's A (algorithm) part
// runs across the sampler's workers; the H (hash update) part runs within
// this call, serialized by construction in ModeSplit.
func (r *Run) Step() *Hop {
	if r.Done() {
		return nil
	}
	res := r.res
	numDst := res.Table.Len()
	srcStart := len(res.src)
	res.src, res.dst = r.s.sampleHop(r.frontier, res.src, res.dst)
	src := res.src[srcStart:]
	// Allocate new VIDs for freshly seen srcs; the next hop samples
	// neighbors only for those.
	r.frontier = r.s.admit(res.Table, src)
	res.FrontierSizes = append(res.FrontierSizes, res.Table.Len())
	res.Hops = append(res.Hops, Hop{
		SrcOrig: res.src[:len(res.src):len(res.src)],
		DstOrig: res.dst[:len(res.dst):len(res.dst)],
		NumDst:  numDst,
		NumSrc:  res.Table.Len(),
	})
	r.t++
	return &res.Hops[len(res.Hops)-1]
}

// Result returns the sampling result; valid once Done.
func (r *Run) Result() *Result { return r.res }

// hopTask is the worker-pool entry of sampleHop: each claimed chunk fills
// its own buffer with the neighbors of its dst range. Chunk boundaries are
// derived from cfg.Workers (the sampler's configured thread count), never
// from the pool, and buffers concatenate in chunk order — so the edge
// stream is bitwise identical at any GOMAXPROCS, including the degraded
// single-call path.
func hopTask(ctx any, lo, hi int) {
	sc := ctx.(*hopScratch)
	c := &sc.chunks[lo/sc.per]
	for _, d := range sc.dsts[lo:hi] {
		sc.s.appendNeighbors(d, c)
	}
}

// sampleHop samples neighbors for each dst in parallel on the shared worker
// pool, appending the hop's new edges in deterministic (dst-major) order
// onto src/dst and returning the grown slices. Worker buffers come from the
// sampler's scratch pool and are reused across calls.
func (s *Sampler) sampleHop(dsts []graph.VID, src, dst []graph.VID) ([]graph.VID, []graph.VID) {
	workers := s.cfg.Workers
	if workers > len(dsts) {
		workers = len(dsts)
	}
	if workers < 1 {
		workers = 1
	}
	sc, _ := s.scratch.Get().(*hopScratch)
	if sc == nil {
		sc = &hopScratch{}
	}
	if cap(sc.chunks) < workers {
		sc.chunks = make([]hopChunk, workers)
	}
	sc.chunks = sc.chunks[:workers]
	for w := range sc.chunks {
		sc.chunks[w].src = sc.chunks[w].src[:0]
		sc.chunks[w].dst = sc.chunks[w].dst[:0]
	}
	per := (len(dsts) + workers - 1) / workers
	if per < 1 {
		per = 1
	}
	sc.s, sc.dsts, sc.per = s, dsts, per
	sched.RunChunk(len(dsts), per, workers, sc, hopTask)
	for i := range sc.chunks {
		src = append(src, sc.chunks[i].src...)
		dst = append(dst, sc.chunks[i].dst...)
	}
	sc.s, sc.dsts = nil, nil
	s.scratch.Put(sc)
	return src, dst
}

// appendNeighbors picks up to Fanout unique random in-neighbors of d (plus
// the self edge), deterministically in d and the sampler seed, appending
// the (src, dst) pairs onto the worker chunk.
func (s *Sampler) appendNeighbors(d graph.VID, c *hopChunk) {
	adj := s.full.Neighbors(d)
	c.src = append(c.src, d)
	c.dst = append(c.dst, d)
	if len(adj) <= s.cfg.Fanout {
		for _, n := range adj {
			if n != d {
				c.src = append(c.src, n)
				c.dst = append(c.dst, d)
			}
		}
		return
	}
	// Floyd's algorithm: Fanout distinct indices from [0, len(adj)). The
	// chosen window holds at most Fanout entries, so a linear scan beats a
	// map (and allocates nothing).
	rng := tensor.NewRNG(s.cfg.Seed ^ (uint64(d)+1)*0x9e3779b97f4a7c15)
	c.chosen = c.chosen[:0]
	for j := len(adj) - s.cfg.Fanout; j < len(adj); j++ {
		t := rng.Intn(j + 1)
		for _, prev := range c.chosen {
			if prev == t {
				t = j
				break
			}
		}
		c.chosen = append(c.chosen, t)
		n := adj[t]
		if n == d {
			continue
		}
		c.src = append(c.src, n)
		c.dst = append(c.dst, d)
	}
}

// admit allocates new VIDs for freshly seen srcs and returns the list of
// fresh original VIDs (the next hop's dsts), in deterministic order for
// ModeSplit. In ModeShared the admission runs through per-src GetOrAssign
// calls from multiple workers, reproducing the contended discipline.
func (s *Sampler) admit(table *vidmap.Table, srcs []graph.VID) []graph.VID {
	switch s.cfg.Mode {
	case ModeShared:
		return s.admitShared(table, srcs)
	default:
		return s.admitSplit(table, srcs)
	}
}

func (s *Sampler) admitSplit(table *vidmap.Table, srcs []graph.VID) []graph.VID {
	before := table.Len()
	table.InsertBatch(srcs)
	// Read-only view of the freshly assigned range; no copy.
	return table.OrigSlice(before, table.Len())
}

func (s *Sampler) admitShared(table *vidmap.Table, srcs []graph.VID) []graph.VID {
	workers := s.cfg.Workers
	if workers > len(srcs) {
		workers = len(srcs)
	}
	if workers < 1 {
		workers = 1
	}
	fresh := make([][]graph.VID, workers)
	var wg sync.WaitGroup
	per := (len(srcs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(srcs) {
			hi = len(srcs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, src := range srcs[lo:hi] {
				if _, isFresh := table.GetOrAssign(src); isFresh {
					fresh[w] = append(fresh[w], src)
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var out []graph.VID
	for _, f := range fresh {
		out = append(out, f...)
	}
	return out
}
