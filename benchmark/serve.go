package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/serve"
	"graphtensor/internal/tensor"
)

const (
	// serveWindow is the closed loop's depth: queries outstanding at once.
	serveWindow = 64
	// queryBlock is the length of the size deck the query pool repeats; a
	// window is not a whole number of blocks, the pool and the sample are.
	queryBlock = 40
	// queryPool is how many distinct queries a seed generates; the closed
	// loop cycles through them.
	queryPool = 400 * queryBlock
	// maxQueryDsts is the largest query the mix draws.
	maxQueryDsts = 32
	// sampledQueries is how many leading prefix queries the differential
	// check and the modeled-clock replay cover: ten windows, sixteen blocks.
	sampledQueries = 10 * serveWindow

	// Open loop (traced runs, reported only): Poisson arrivals at openRate
	// for half the run, each query timed from its due time against
	// openLimit.
	openRate  = 1000.0 // q/s
	openLimit = 50 * time.Millisecond
)

// newServeCache is the workload's embedding cache: the top-degree tenth of
// the vertices resident.
func newServeCache(ds *datasets.Dataset) *cache.Cache {
	return cache.New(ds.NumVertices()/10, cache.Degree, ds.Graph)
}

// queryDeck is the size mix of queryBlock consecutive queries: 70 % small
// (1-4 dsts, seven of each) and 30 % large (twelve sizes spread over 16-32).
// Every block of the pool is a shuffle of this deck, so the mix — and with
// it the work per query — is the same for every seed and every whole block;
// a seed decides the order and which vertices are asked for.
var queryDeck = [queryBlock]int{
	1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4,
	16, 17, 19, 20, 22, 23, 25, 26, 28, 29, 31, 32,
}

// genQueries draws a seed's pool of n queries (n a multiple of queryBlock),
// each a sorted set of distinct vertices.
func genQueries(ds *datasets.Dataset, seed uint64, n int) [][]graph.VID {
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	qs := make([][]graph.VID, 0, n)
	for len(qs) < n {
		deck := queryDeck
		for i := len(deck) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			deck[i], deck[j] = deck[j], deck[i]
		}
		for _, size := range deck {
			qs = append(qs, ds.BatchDsts(size, rng.Uint64()))
		}
	}
	return qs
}

// genArrivals draws a seed's open-loop schedule: n Poisson arrival offsets
// at the given rate.
func genArrivals(seed uint64, n int, rate float64) []time.Duration {
	rng := tensor.NewRNG(seed*0xd1342543de82ef95 + 7)
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		at += -math.Log(1-rng.Float64()) / rate
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

// serveRun is the state of the serving workload: a PreproGT weight snapshot
// behind serve.Server (2 replicas, 2 admission shards, a 10 % degree cache,
// default coalescing), driven in a closed loop by one generator goroutine.
type serveRun struct {
	w   workload
	cfg *runCfg
	t   *tracer
	rp  *replayer // traced runs only

	cache   *cache.Cache
	srv     *serve.Server
	queries [][]graph.VID
	pos     int // next query of the pool

	qs      [][]graph.VID // the window being issued
	outs    [][]float32
	tickets []*serve.Ticket
	window  int // windows issued since the server started (warm-up included)

	// sampledIdx and sampledOuts hold, for the first sampledQueries prefix
	// queries, the pool index and a copy of the logits the server returned.
	sampledIdx  []int
	sampledOuts [][]float32
	latencies   []time.Duration // per-query Submit->Wait, traced segments
	union       []graph.VID
}

func (r *serveRun) sampleSize() int {
	if r.cfg.smoke {
		return 2 * queryBlock
	}
	return sampledQueries
}

// warmWindows is the length of the warm-up: about one segment, rounded down
// to a whole number of query blocks so the sampled prefix queries start on
// one.
func (r *serveRun) warmWindows() int {
	if r.cfg.smoke {
		return 1
	}
	const blockWindows = 5 // lcm(queryBlock, serveWindow) / serveWindow
	n := r.w.segOps / serveWindow
	return n - n%blockWindows
}

// setup builds the program once: dataset, trainer (with the DKP fit), cache,
// server start, and warm-up windows.
func (r *serveRun) setup(first bool) (setupCost, error) {
	var cost setupCost
	c0, t0 := cpuNow(), time.Now()
	ds, tr, err := buildTrainer(r.w, r.cfg, r.w.options(r.cfg.seed), first, &cost)
	if err != nil {
		return cost, err
	}
	r.cache = newServeCache(ds)
	scfg := serve.DefaultConfig()
	scfg.Replicas, scfg.Shards, scfg.Cache = 2, 2, r.cache
	if r.srv, err = serve.NewServer(tr, scfg); err != nil {
		return cost, err
	}
	if r.outs == nil {
		r.outs = make([][]float32, serveWindow)
		for i := range r.outs {
			r.outs[i] = make([]float32, maxQueryDsts*r.srv.OutDim())
		}
		r.tickets = make([]*serve.Ticket, serveWindow)
		r.qs = make([][]graph.VID, 0, serveWindow)
	}
	r.pos, r.window = 0, 0
	for i := 0; i < r.warmWindows(); i++ {
		if _, failed, err := r.unit(modePlain, false); err != nil {
			return cost, err
		} else if failed > 0 {
			return cost, fmt.Errorf("%d queries failed during warm-up", failed)
		}
	}
	cost.cpu, cost.wall = cpuNow()-c0, time.Since(t0)
	return cost, nil
}

// unit issues one closed-loop window: serveWindow queries through
// SubmitMany, then Wait on every ticket.
func (r *serveRun) unit(mode segMode, inPrefix bool) (ops, failed int, err error) {
	t := r.t
	first := r.pos
	qs := r.qs[:0]
	for len(qs) < serveWindow {
		qs = append(qs, r.queries[r.pos])
		r.pos = (r.pos + 1) % len(r.queries)
	}

	opSpan := t.begin("serve.window", -1, r.window)
	h := t.begin("serve.submit", opSpan, r.window)
	start := time.Now()
	err = r.srv.SubmitMany(qs, r.outs, r.tickets)
	t.end(h)
	if err != nil {
		return 0, 0, fmt.Errorf("SubmitMany at window %d: %w", r.window, err)
	}
	h = t.begin("serve.wait", opSpan, r.window)
	for _, tk := range r.tickets {
		if tk.Wait() != nil {
			failed++
		}
		if t.on {
			r.latencies = append(r.latencies, time.Since(start))
		}
	}
	t.end(h)
	t.end(opSpan)

	// Keep a fixed sample of the prefix's answers for the differential check.
	if inPrefix {
		od := r.srv.OutDim()
		for q := 0; q < serveWindow && len(r.sampledIdx) < r.sampleSize(); q++ {
			r.sampledIdx = append(r.sampledIdx, (first+q)%len(r.queries))
			r.sampledOuts = append(r.sampledOuts, append([]float32(nil), r.outs[q][:len(qs[q])*od]...))
		}
	}

	if mode == modeReplay && r.window%r.cfg.replayStride() == 0 {
		// What the server would coalesce this window into: the distinct
		// dsts of its queries.
		r.union = r.union[:0]
		for _, q := range qs {
			r.union = append(r.union, q...)
		}
		sort.Slice(r.union, func(i, j int) bool { return r.union[i] < r.union[j] })
		n := 0
		for i, v := range r.union {
			if i == 0 || v != r.union[n-1] {
				r.union[n] = v
				n++
			}
		}
		if err := r.rp.replay(r.union[:n], false, inPrefix); err != nil {
			return 0, 0, fmt.Errorf("replay at window %d: %w", r.window, err)
		}
	}
	r.window++
	return serveWindow, failed, nil
}

// runServe runs the serving workload end to end.
func runServe(w workload, cfg *runCfg) (*result, error) {
	res := newResult(w, cfg)
	r := &serveRun{w: w, cfg: cfg, t: newTracer()}

	// The load generator's inputs come from the seed alone, before any
	// set-up is timed.
	ds, err := datasets.Generate(w.dataset, cfg.scale())
	if err != nil {
		return nil, err
	}
	pool := queryPool
	if cfg.smoke {
		pool = 8 * queryBlock
	}
	r.queries = genQueries(ds, cfg.seed, pool)

	defer func() {
		if r.srv != nil {
			r.srv.Close()
		}
	}()
	var setups []setupCost
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if r.srv != nil {
			r.srv.Close()
		}
		cost, err := r.setup(rep == 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cost)
	}
	if cfg.trace {
		if r.rp, err = newReplayer(r.t, w, cfg); err != nil {
			return nil, err
		}
	}

	// Phase A (gated): the closed loop. A traced run gives it half the time
	// and spends the other half on the open loop.
	closed := *cfg
	if cfg.trace {
		closed.seconds /= 2
	}
	steal0, total0 := cpuStat()
	segs, err := measure(&closed, r.t, cfg.units(w.segOps/serveWindow), r.unit)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	res.hostMetrics(segs, setups, heap, steal0, total0)

	var open *openLoop
	if cfg.trace {
		if open, err = r.openLoop(cfg.seconds / 2); err != nil {
			return nil, err
		}
	}
	st := r.srv.Stats()
	r.srv.Close()

	if err := r.reference(res); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.layerMetrics(res, st, open)
		res.spans = r.t.spans
	}
	return res, nil
}

// reference serves the sampled prefix queries again, one at a time, on a
// fresh trainer built from the same seed. A MaxBatch = 1 server (every query
// cut into its own batch) must return the measured server's logits bit for
// bit. The same queries, prepared and inferred uncoalesced on the fresh
// trainer's own device, give the workload's modeled clock: replica devices
// are private, so a served query's modeled latency is that of the serial
// fast path — ModeledPrep plus the forward kernels' estimate, with the
// host->device transfer as its link time.
func (r *serveRun) reference(res *result) error {
	ds, ref, err := freshTrainer(r.w, r.cfg, r.w.options(r.cfg.seed))
	if err != nil {
		return err
	}
	refCache := newServeCache(ds)
	srv, err := serve.NewServer(ref, serve.Config{MaxBatch: 1, Replicas: 1, Cache: refCache})
	if err != nil {
		return err
	}
	od := srv.OutDim()
	out := make([]float32, maxQueryDsts*od)
	sum := newBitsHash()
	mismatches := 0
	for i, qi := range r.sampledIdx {
		q := r.queries[qi]
		if err := srv.Query(q, out); err != nil {
			srv.Close()
			return fmt.Errorf("reference query %d: %w", i, err)
		}
		same := true
		for j, v := range r.sampledOuts[i] {
			sum.add(uint64(math.Float32bits(v)))
			if math.Float32bits(v) != math.Float32bits(out[j]) {
				same = false
			}
		}
		if !same {
			mismatches++
			if mismatches == 1 {
				res.fail("query %d (pool index %d) differs from the MaxBatch=1 reference", i, qi)
			}
		}
	}
	srv.Close()
	res.checksum = sum.sum()
	res.notef("reference: %d sampled queries compared bit for bit, %d differ", len(r.sampledIdx), mismatches)

	ref.SetCache(refCache)
	slot := pipeline.NewSlot()
	ktm := gpusim.DefaultKernelTimeModel()
	dev := ref.Engine.Dev
	var step, compute, comm time.Duration
	for _, qi := range r.sampledIdx {
		b, err := ref.PrepareInto(r.queries[qi], nil, slot)
		if err != nil {
			return fmt.Errorf("modeled replay Prepare: %w", err)
		}
		before := dev.Snapshot()
		logits, err := ref.InferBatch(b)
		if err != nil {
			b.Release()
			return fmt.Errorf("modeled replay InferBatch: %w", err)
		}
		c := dev.Estimate(ktm, dev.Snapshot().Sub(before))
		compute += c
		step += ref.ModeledPrep(b) + c
		comm += ref.ModeledTaskTimes(b).Transfer
		logits.Free()
		b.Release()
		slot.Recycle(b)
	}
	n := float64(len(r.sampledIdx))
	res.metrics["modeled_step_us"] = us(step) / n
	res.metrics["modeled_compute_us"] = us(compute) / n
	res.metrics["modeled_comm_us"] = us(comm) / n
	return nil
}

// openLoop is the outcome of the open-loop phase.
type openLoop struct {
	latencies []time.Duration // sorted; from each query's due time
	late      time.Duration   // the generator's worst lateness
	missed    int             // over openLimit, failed or refused
}

// openLoop submits Poisson arrivals for the given time regardless of
// completions. One generator goroutine sleeps to each due time; every query
// is timed from when it was due, so a stall shows in the queries behind it.
func (r *serveRun) openLoop(seconds float64) (*openLoop, error) {
	n := int(seconds * openRate)
	if r.cfg.smoke {
		n = 2 * serveWindow
	}
	arrivals := genArrivals(r.cfg.seed, n, openRate)
	od := r.srv.OutDim()
	lat := make([]time.Duration, n)
	bad := make([]bool, n)
	res := &openLoop{}
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range arrivals {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(start) - due; late > res.late {
			res.late = late
		}
		q := r.queries[(r.pos+i)%len(r.queries)]
		tk, err := r.srv.Submit(q, make([]float32, len(q)*od))
		if err != nil {
			wg.Wait()
			return nil, fmt.Errorf("open-loop Submit %d: %w", i, err)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			bad[i] = tk.Wait() != nil
			lat[i] = time.Since(start) - due
		}(i, due)
	}
	wg.Wait()
	for i := range lat {
		if bad[i] || lat[i] > openLimit {
			res.missed++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.latencies = lat
	return res, nil
}

// layerMetrics fills the per-layer metrics of the traced serving run.
func (r *serveRun) layerMetrics(res *result, st serve.Stats, open *openLoop) {
	m := res.metrics
	r.rp.emit(m)
	m["serve.wall_qps"] = m["bench.wall_ops_per_s"]
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	p := upperPercentile(len(r.latencies), 99)
	m["serve.query_p50_ms"] = ms(percentile(r.latencies, 50))
	m["serve.query_p99_ms"] = ms(percentile(r.latencies, p))
	res.notef("serve.query_*: %d samples, upper percentile p%g", len(r.latencies), p)

	p = upperPercentile(len(open.latencies), 99)
	m["serve.open_p50_ms"] = ms(percentile(open.latencies, 50))
	m["serve.open_p99_ms"] = ms(percentile(open.latencies, p))
	m["serve.open_gen_late_ms"] = ms(open.late)
	m["serve.open_miss_pct"] = 100 * float64(open.missed) / float64(len(open.latencies))
	res.notef("serve.open_*: %d samples at %g q/s, upper percentile p%g, limit %v", len(open.latencies), openRate, p, openLimit)

	submitNs, _ := r.t.mean("serve.submit")
	m["serve.submit_ns"] = submitNs / serveWindow
	m["serve.mean_batch"] = st.MeanBatch
	stolen := 0
	for _, sh := range st.PerShard {
		stolen += sh.Stolen
	}
	if st.Batches > 0 {
		m["serve.stolen_pct"] = 100 * float64(stolen) / float64(st.Batches)
	}
	m["serve.expired"] = float64(st.Expired)
	m["cache.hit_pct"] = 100 * st.CacheHitRate
	aggr, comb := 0, 0
	for _, pc := range st.Placements {
		aggr += pc.AggrFirst
		comb += pc.CombFirst
	}
	if aggr+comb > 0 {
		m["dkp.comb_first_pct"] = 100 * float64(comb) / float64(aggr+comb)
	}
}
