package prep

import (
	"testing"

	"graphtensor/internal/cache"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/sampling"
)

func ring(n, deg int) *graph.CSR {
	coo := &graph.COO{NumVertices: n}
	for d := 0; d < n; d++ {
		for k := 1; k <= deg; k++ {
			coo.Src = append(coo.Src, graph.VID((d+k)%n))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.COOToCSR(coo)
	return csr
}

// patternTable fills an n×dim embedding table with the deterministic
// pattern row v, column c = v + c/100.
func patternTable(n, dim int) *graph.EmbeddingTable {
	t := graph.NewEmbeddingTable(n, dim)
	for v := 0; v < n; v++ {
		row := t.Data.Row(v)
		for c := range row {
			row[c] = float32(v) + float32(c)/100
		}
	}
	return t
}

func TestReindexWithinBounds(t *testing.T) {
	full := ring(100, 5)
	res := sampling.New(full, sampling.DefaultConfig()).Sample([]graph.VID{3, 6, 9})
	for li := 1; li <= 2; li++ {
		hop := res.ForLayer(li)
		coo, err := ReindexCOO(hop, res.Table)
		if err != nil {
			t.Fatal(err)
		}
		if err := coo.Validate(); err != nil {
			t.Errorf("layer %d reindexed coo invalid: %v", li, err)
		}
	}
}

func TestBuildLayerFormats(t *testing.T) {
	full := ring(80, 4)
	res := sampling.New(full, sampling.DefaultConfig()).Sample([]graph.VID{1, 2})
	coo, _ := ReindexCOO(res.ForLayer(1), res.Table)

	if ld := BuildLayer(coo, FormatCOO); ld.COO == nil || ld.CSR != nil {
		t.Error("FormatCOO should populate only COO")
	}
	if ld := BuildLayer(coo, FormatCSR); ld.CSR == nil || ld.CSC != nil {
		t.Error("FormatCSR should populate only CSR")
	}
	if ld := BuildLayer(coo, FormatCSRCSC); ld.CSR == nil || ld.CSC == nil {
		t.Error("FormatCSRCSC should populate both CSR and CSC")
	}
}

func TestSerialPreparesCompleteBatch(t *testing.T) {
	full := ring(120, 5)
	feats := patternTable(120, 8)
	sampler := sampling.New(full, sampling.DefaultConfig())
	labels := make([]int32, 120)
	b, err := Serial(sampler, feats, labels, []graph.VID{4, 8, 12}, Config{Format: FormatCSRCSC})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if b.Embed.NumVertices() != b.Sample.NumVertices() {
		t.Errorf("embedding rows %d != sampled vertices %d", b.Embed.NumVertices(), b.Sample.NumVertices())
	}
	if len(b.Layers) != 2 {
		t.Errorf("expected 2 layers, got %d", len(b.Layers))
	}
	if len(b.Labels) != 3 {
		t.Errorf("expected 3 batch labels, got %d", len(b.Labels))
	}
	// Breakdown should record all four tasks (T's host half may round to
	// zero on a coarse clock; only S/R/K are required).
	for _, task := range []metrics.Stage{metrics.StageSample, metrics.StageReindex, metrics.StageLookup} {
		if b.Breakdown[task] == 0 {
			t.Errorf("task %q not recorded", task)
		}
	}
}

// TestSerialLinkAccounting: a prepared batch carries its host→device payload
// as one value fixed at prepare time — graphs plus the embedding rows that
// have to cross (cache-resident rows are device-held) — and on-demand format
// translations that later grow Layers do not move it. That the payload is
// paid once, at the device, is frameworks.TestStagingPaysTOnce.
func TestSerialLinkAccounting(t *testing.T) {
	full := ring(120, 5)
	feats := patternTable(120, 8)
	dsts := []graph.VID{4, 8, 12}
	prepare := func(cfg Config) *Batch {
		t.Helper()
		b, err := Serial(sampling.New(full, sampling.DefaultConfig()), feats, nil, dsts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Release)
		return b
	}

	plain := prepare(Config{Format: FormatCOO})
	want := GraphBytes(plain.Layers) + plain.Embed.Bytes()
	if plain.HostBytes != want {
		t.Errorf("payload %d, want graphs+table %d", plain.HostBytes, want)
	}
	plain.Layers[0].CSR, _ = graph.BCOOToBCSR(plain.Layers[0].COO)
	if GraphBytes(plain.Layers) == want-plain.Embed.Bytes() {
		t.Fatal("the translated format did not grow the layer's bytes; the test needs it to")
	}
	if plain.HostBytes != want {
		t.Errorf("payload moved to %d after a translation", plain.HostBytes)
	}

	cached := prepare(Config{Format: FormatCOO, Cache: cache.New(40, cache.Degree, full)})
	if cached.CacheHits == 0 {
		t.Fatal("cache produced no hits; the test needs some resident rows")
	}
	if saved := int64(cached.CacheHits) * int64(feats.Dim) * 4; cached.HostBytes != want-saved {
		t.Errorf("cached payload %d, want %d - %d hit bytes", cached.HostBytes, want, saved)
	}
}
