package experiments

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/graph"
	"graphtensor/internal/serve"
)

// runServing measures the concurrent inference engine against the serial
// per-query loop the old serving example ran. The baseline serves every
// query in its own micro-batch (MaxBatch=1: full per-query fixed costs —
// sampler setup, layer-chain translation, kernel launches, one link flush
// per query); the coalesced configurations sweep replica count × embedding
// cache capacity. Logits are checksummed per query: coalescing, replication
// and caching are pure perf, so every configuration's column must equal the
// serial baseline's bit for bit.
func runServing(cfg Config) (string, error) {
	dsNames, nQueries := []string{"products"}, 48
	if !cfg.Quick {
		dsNames, nQueries = append(dsNames, "reddit2"), 96
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-22s %5s %9s %9s %8s %9s %9s %6s %8s %7s\n",
		"dataset", "config", "nrep", "batch", "host qps", "speedup", "host p50", "host p99", "hit%", "acc", "logits")
	for _, name := range dsNames {
		ds, err := loadDataset(name)
		if err != nil {
			return "", err
		}
		tr, err := servingTrainer(cfg, ds)
		if err != nil {
			return "", err
		}
		queries := queryDsts(ds, nQueries, 50_000)
		sweeps := []struct {
			label              string
			replicas, cachePct int
		}{
			{"serial per-query", 1, 0},
			{"coalesced", 1, 0},
			{"coalesced+cache10", 1, 10},
			{"coalesced", 2, 0},
			{"coalesced+cache10", 2, 10},
			{"coalesced+cache25", 4, 25},
		}
		if cfg.Quick {
			sweeps = sweeps[:4]
		}
		var serial *servingRun
		for _, sw := range sweeps {
			// The first row is the serial per-query loop: one micro-batch
			// per query, blocking.
			scfg := serve.Config{MaxBatch: 1}
			if serial != nil {
				scfg = serve.DefaultConfig()
				scfg.Replicas = sw.replicas
			}
			if sw.cachePct > 0 {
				scfg.Cache = cache.New(ds.NumVertices()*sw.cachePct/100, cache.Degree, ds.Graph)
			}
			run, err := serveAll(tr, scfg, queries, serial != nil)
			if err != nil {
				return "", err
			}
			hit, logits := "-", "ref"
			if serial == nil {
				serial = run
			} else {
				logits = verdict(slices.Equal(run.sums, serial.sums))
			}
			if scfg.Cache != nil {
				hit = fmt.Sprintf("%.0f", 100*run.st.CacheHitRate)
			}
			fmt.Fprintf(&sb, "%-10s %-22s %5d %9.1f %9.1f %7.2fx %9s %9s %6s %8.3f %7s\n",
				name, sw.label, sw.replicas, run.st.MeanBatch, float64(nQueries)/run.wall.Seconds(), serial.wall.Seconds()/run.wall.Seconds(),
				run.st.Latency.P50.Round(time.Microsecond), run.st.Latency.P99.Round(time.Microsecond),
				hit, servingAccuracy(tr, ds.Labels, queries, run.outs), logits)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("The serial row pays every query's fixed costs alone; coalescing\n" +
		"amortizes them across up to MaxBatch dsts per micro-batch, replicas\n" +
		"drain micro-batches concurrently, and the degree cache lets resident\n" +
		"vertices skip the modeled embedding transfer. The logits column proves\n" +
		"all of it is pure perf: per-query logits are checksummed and must be\n" +
		"bitwise identical to the serial reference in every configuration.\n")
	return sb.String(), nil
}

// servingTrainer is the Prepro-GT GCN trainer the serving rows serve from,
// trained for a few batches so its logits are not the initial weights'.
func servingTrainer(cfg Config, ds *datasets.Dataset) (*frameworks.Trainer, error) {
	tr, err := newTrainer(cfg, frameworks.PreproGT, ds, "gcn")
	if err != nil {
		return nil, err
	}
	_, _, err = tr.TrainEpoch(cfg.batches(6))
	return tr, err
}

// queryDsts draws n queries of 16 dsts each, query q from seed+q.
func queryDsts(ds *datasets.Dataset, n int, seed uint64) [][]graph.VID {
	queries := make([][]graph.VID, n)
	for q := range queries {
		queries[q] = ds.BatchDsts(16, seed+uint64(q))
	}
	return queries
}

// servingRun is one configuration's per-query outputs and their FNV
// checksums, the server's stats and the host wall time of the run.
type servingRun struct {
	sums []uint64
	outs [][]float32
	st   serve.Stats
	wall time.Duration
}

// serveAll runs every query through a fresh server built from cfg. With
// async=false queries are submitted one at a time (the serial loop); with
// async=true all queries are submitted up front and awaited together (the
// coalescing load pattern).
func serveAll(tr *frameworks.Trainer, cfg serve.Config, queries [][]graph.VID, async bool) (*servingRun, error) {
	s, err := serve.NewServer(tr, cfg)
	if err != nil {
		return nil, err
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
			return nil, err
		}
		for _, tk := range tks {
			if err := tk.Wait(); err != nil {
				return nil, err
			}
		}
	} else {
		for q := range queries {
			if err := s.Query(queries[q], outs[q]); err != nil {
				return nil, err
			}
		}
	}
	run := &servingRun{sums: make([]uint64, len(queries)), outs: outs, wall: time.Since(start), st: s.Stats()}
	for q, out := range outs {
		h := fnv.New64a()
		hashFloats(h, out)
		run.sums[q] = h.Sum64()
	}
	return run, nil
}

// hashFloats feeds the bit patterns of vals, little-endian, to h.
func hashFloats(h hash.Hash64, vals []float32) {
	var b [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
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
