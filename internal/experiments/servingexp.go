package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/graph"
	"graphtensor/internal/serve"
)

func init() {
	register("serving", "Inference serving: request coalescing x replicas x embedding cache", runServing)
}

// runServing measures the concurrent inference engine against the serial
// per-query loop the old serving example ran. The baseline serves every
// query in its own micro-batch (MaxBatch=1: full per-query fixed costs —
// sampler setup, layer-chain translation, kernel launches, one link flush
// per query); the coalesced configurations sweep replica count × embedding
// cache capacity. Logits are checksummed per query: coalescing, replication
// and caching are pure perf, so every configuration's column must equal the
// serial baseline's bit for bit.
func runServing(cfg Config) (*Result, error) {
	dsNames := []string{"products"}
	if !cfg.Quick {
		dsNames = append(dsNames, "reddit2")
	}
	nQueries := 96
	if cfg.Quick {
		nQueries = 48
	}
	const querySize = 16

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-22s %5s %9s %9s %8s %9s %9s %6s %8s %7s\n",
		"dataset", "config", "nrep", "batch", "host qps", "speedup", "host p50", "host p99", "hit%", "acc", "logits")
	for _, name := range dsNames {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		tr, err := newTrainer(cfg, frameworks.PreproGT, ds, "gcn")
		if err != nil {
			return nil, err
		}
		if _, _, err := tr.TrainEpoch(cfg.batches(6)); err != nil {
			return nil, err
		}

		queries := make([][]graph.VID, nQueries)
		for q := range queries {
			queries[q] = ds.BatchDsts(querySize, uint64(50_000+q))
		}

		// Serial per-query loop: one micro-batch per query, blocking.
		serialSums, serialStats, serialWall, err := serveAll(tr, serve.Config{MaxBatch: 1}, queries, false)
		if err != nil {
			return nil, err
		}
		serialQPS := float64(nQueries) / serialWall.Seconds()
		acc := servingAccuracy(tr, ds.Labels, queries, serialStats.outs)
		fmt.Fprintf(&sb, "%-10s %-22s %5d %9.1f %9.1f %7.2fx %9s %9s %6s %8.3f %7s\n",
			name, "serial per-query", 1, serialStats.st.MeanBatch, serialQPS, 1.0,
			serialStats.st.Latency.P50.Round(time.Microsecond), serialStats.st.Latency.P99.Round(time.Microsecond),
			"-", acc, "ref")

		type sweep struct {
			label    string
			replicas int
			cachePct int
		}
		sweeps := []sweep{
			{"coalesced", 1, 0},
			{"coalesced+cache10", 1, 10},
			{"coalesced", 2, 0},
			{"coalesced+cache10", 2, 10},
			{"coalesced+cache25", 4, 25},
		}
		if cfg.Quick {
			sweeps = sweeps[:3]
		}
		for _, sw := range sweeps {
			scfg := serve.DefaultConfig()
			scfg.Replicas = sw.replicas
			if sw.cachePct > 0 {
				scfg.Cache = cache.New(ds.NumVertices()*sw.cachePct/100, cache.Degree, ds.Graph)
			}
			sums, res, wall, err := serveAll(tr, scfg, queries, true)
			if err != nil {
				return nil, err
			}
			qps := float64(nQueries) / wall.Seconds()
			exact := "exact"
			for q := range sums {
				if sums[q] != serialSums[q] {
					exact = "DIFF"
				}
			}
			hit := "-"
			if scfg.Cache != nil {
				hit = fmt.Sprintf("%.0f", 100*res.st.CacheHitRate)
			}
			fmt.Fprintf(&sb, "%-10s %-22s %5d %9.1f %9.1f %7.2fx %9s %9s %6s %8.3f %7s\n",
				name, sw.label, sw.replicas, res.st.MeanBatch, qps, qps/serialQPS,
				res.st.Latency.P50.Round(time.Microsecond), res.st.Latency.P99.Round(time.Microsecond),
				hit, servingAccuracy(tr, ds.Labels, queries, res.outs), exact)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("The serial row pays every query's fixed costs alone; coalescing\n" +
		"amortizes them across up to MaxBatch dsts per micro-batch, replicas\n" +
		"drain micro-batches concurrently, and the degree cache lets resident\n" +
		"vertices skip the modeled embedding transfer. The logits column proves\n" +
		"all of it is pure perf: per-query logits are checksummed and must be\n" +
		"bitwise identical to the serial reference in every configuration.\n")
	return &Result{Text: sb.String()}, nil
}

// servingRun carries one configuration's outputs and server stats.
type servingRun struct {
	outs [][]float32
	st   serve.Stats
}

// serveAll runs every query through a fresh server built from cfg. With
// async=false queries are submitted one at a time (the serial loop); with
// async=true all queries are submitted up front and awaited together (the
// coalescing load pattern). It returns one FNV checksum per query's logit
// buffer, the run's outputs/stats and the wall time.
func serveAll(tr *frameworks.Trainer, cfg serve.Config, queries [][]graph.VID, async bool) ([]uint64, *servingRun, time.Duration, error) {
	s, err := serve.NewServer(tr, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	defer s.Close()
	outs := make([][]float32, len(queries))
	for q := range queries {
		outs[q] = make([]float32, len(queries[q])*s.OutDim())
	}
	start := time.Now()
	if async {
		// Bulk submission: one channel hop per admission shard instead of
		// one per query.
		tks := make([]*serve.Ticket, len(queries))
		if err := s.SubmitMany(queries, outs, tks); err != nil {
			return nil, nil, 0, err
		}
		for _, tk := range tks {
			if err := tk.Wait(); err != nil {
				return nil, nil, 0, err
			}
		}
	} else {
		for q := range queries {
			if err := s.Query(queries[q], outs[q]); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	wall := time.Since(start)
	sums := make([]uint64, len(queries))
	for q, out := range outs {
		h := fnv.New64a()
		for _, v := range out {
			bits := math.Float32bits(v)
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
		sums[q] = h.Sum64()
	}
	return sums, &servingRun{outs: outs, st: s.Stats()}, wall, nil
}

// servingAccuracy scores argmax(logits) against the dataset labels over all
// queries.
func servingAccuracy(tr *frameworks.Trainer, labels []int32, queries [][]graph.VID, outs [][]float32) float64 {
	od := tr.OutDim()
	correct, total := 0, 0
	for q, dsts := range queries {
		for i, d := range dsts {
			row := outs[q][i*od : (i+1)*od]
			best := 0
			for j := 1; j < od; j++ {
				if row[j] > row[best] {
					best = j
				}
			}
			if int32(best) == labels[d] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
