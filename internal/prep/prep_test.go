package prep

import (
	"testing"

	"graphtensor/internal/cache"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
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
	dev := gpusim.NewDevice(gpusim.DefaultConfig())
	sampler := sampling.New(full, sampling.DefaultConfig())
	labels := make([]int32, 120)
	b, err := Serial(sampler, feats, labels, dev, []graph.VID{4, 8, 12}, Config{Format: FormatCSRCSC, Pinned: true})
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
	// Breakdown should record all four tasks.
	for _, task := range []string{"sample", "reindex", "lookup", "transfer"} {
		if b.Breakdown.Get(task) == 0 {
			// transfer may round to zero on fast links; only require S/R/K.
			if task != "transfer" {
				t.Errorf("task %q not recorded", task)
			}
		}
	}
}

func TestSerialOOM(t *testing.T) {
	full := ring(120, 5)
	feats := patternTable(120, 64)
	cfg := gpusim.DefaultConfig()
	cfg.MemoryBytes = 32
	dev := gpusim.NewDevice(cfg)
	sampler := sampling.New(full, sampling.DefaultConfig())
	_, err := Serial(sampler, feats, nil, dev, []graph.VID{1, 2, 3}, Config{Format: FormatCSR})
	if _, ok := err.(*gpusim.OOMError); !ok {
		t.Fatalf("expected OOM, got %v", err)
	}
}

// TestSerialLinkAccounting: the T task's modeled link traffic stays readable
// on the device's own engine after the prepare — graphs plus the embedding
// rows that actually cross (cache-resident rows are device-held) — and a
// host-only prepare never touches the link.
func TestSerialLinkAccounting(t *testing.T) {
	full := ring(120, 5)
	feats := patternTable(120, 8)
	dsts := []graph.VID{4, 8, 12}
	prepare := func(cfg Config) (*gpusim.Device, *Batch) {
		t.Helper()
		dev := gpusim.NewDevice(gpusim.DefaultConfig())
		cfg.Format, cfg.Pinned = FormatCSRCSC, true
		b, err := Serial(sampling.New(full, sampling.DefaultConfig()), feats, nil, dev, dsts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Release)
		return dev, b
	}

	dev, plain := prepare(Config{})
	want := GraphBytes(plain.Layers) + MissBytes(plain)
	if got := dev.PCIe().BytesMoved(); got != want {
		t.Errorf("link bytes %d, want graphs+misses %d", got, want)
	}
	if dev.PCIe().ModeledTime() <= 0 {
		t.Error("a device prepare accrued no modeled link time")
	}

	dev, _ = prepare(Config{HostOnly: true})
	if dev.PCIe().BytesMoved() != 0 || dev.PCIe().ModeledTime() != 0 {
		t.Errorf("host-only prepare touched the link: %d bytes, %v",
			dev.PCIe().BytesMoved(), dev.PCIe().ModeledTime())
	}

	dev, cached := prepare(Config{Cache: cache.New(40, cache.Degree, full)})
	if cached.CacheHits == 0 {
		t.Fatal("cache produced no hits; the test needs some resident rows")
	}
	if got, saved := dev.PCIe().BytesMoved(), int64(cached.CacheHits)*int64(feats.Dim)*4; got != want-saved {
		t.Errorf("cached link bytes %d, want %d - %d hit bytes", got, want, saved)
	}
}
