package kernels

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

// napaTraceCase is one NAPA layer on the 8-SM test device (512 lines of
// 32 B per SM) with the counters each of its passes adds: the fused forward,
// the backward, and the unfused NeighborApplyKernel (nothing for GCN, which
// weighs no edge) and PullKernel.
type napaTraceCase struct {
	modes                 string
	width                 int
	fwd, bwd, apply, pull gpusim.Counters
}

// cnt spells a golden: the bytes brought into the caches are the loads' lines.
func cnt(flops, loads, stores, hits, launches int64) gpusim.Counters {
	return gpusim.Counters{FLOPs: flops, GlobalLoads: loads, GlobalStores: stores, CacheHits: hits,
		CacheBytes: 32 * loads, Launches: launches}
}

var napaModes = map[string]Modes{"gcn": GCNModes(), "ngcf": NGCFModes(), "attention": AttentionModes()}

// napaTraceGolden was captured at commit 144e2be, when every NAPA kernel
// issued its Read/AddFLOPs/Write stream from inside its float loops. The
// widths are a row that straddles lines (12 → 48 B, 100 → 400 B), a row of
// whole lines that divide the cache (16 → 2 lines) and one of whole lines
// that do not (544 → 68 lines: seven rows fit, and 36 lines of an eighth).
var napaTraceGolden = []napaTraceCase{
	{"gcn", 12, cnt(13680, 797, 240, 343, 1), cnt(13680, 1650, 300, 930, 1), cnt(0, 0, 0, 0, 0), cnt(13680, 797, 240, 343, 1)},
	{"gcn", 16, cnt(18240, 880, 240, 260, 1), cnt(18240, 1914, 300, 666, 1), cnt(0, 0, 0, 0, 0), cnt(18240, 880, 240, 260, 1)},
	{"gcn", 100, cnt(114000, 5814, 1560, 1596, 1), cnt(114000, 14284, 1950, 2486, 1), cnt(0, 0, 0, 0, 0), cnt(114000, 5814, 1560, 1596, 1)},
	{"gcn", 544, cnt(620160, 36448, 8160, 2312, 1), cnt(620160, 84932, 10200, 2788, 1), cnt(0, 0, 0, 0, 0), cnt(620160, 36448, 8160, 2312, 1)},
	{"ngcf", 12, cnt(27360, 897, 240, 483, 1), cnt(42480, 2731, 540, 1469, 2), cnt(6840, 897, 1140, 483, 1), cnt(20520, 1657, 240, 623, 1)},
	{"ngcf", 16, cnt(36480, 1028, 240, 352, 1), cnt(56640, 3182, 540, 1018, 2), cnt(9120, 1028, 1140, 352, 1), cnt(27360, 2020, 240, 260, 1)},
	{"ngcf", 100, cnt(228000, 6900, 1560, 2070, 1), cnt(354000, 22860, 3510, 4440, 2), cnt(57000, 6900, 7410, 2070, 1), cnt(171000, 13447, 1560, 1373, 1)},
	{"ngcf", 544, cnt(1240320, 44200, 8160, 2720, 1), cnt(1925760, 137564, 18360, 5236, 2), cnt(310080, 44200, 38760, 2720, 1), cnt(930240, 76024, 8160, 1496, 1)},
	{"attention", 12, cnt(34770, 897, 240, 483, 1), cnt(104040, 2731, 540, 1469, 2), cnt(14250, 897, 570, 483, 1), cnt(20520, 875, 240, 835, 1)},
	{"attention", 16, cnt(46170, 1028, 240, 352, 1), cnt(138720, 3182, 540, 1018, 2), cnt(18810, 1028, 570, 352, 1), cnt(27360, 958, 240, 752, 1)},
	{"attention", 100, cnt(285570, 6900, 1560, 2070, 1), cnt(867000, 22860, 3510, 4440, 2), cnt(114570, 6900, 570, 2070, 1), cnt(171000, 5893, 1560, 2087, 1)},
	{"attention", 544, cnt(1550970, 44200, 8160, 2720, 1), cnt(4716480, 137564, 18360, 5236, 2), cnt(620730, 44200, 570, 2720, 1), cnt(930240, 36526, 8160, 2804, 1)},
}

// run executes c's four passes on a fresh test device over one random
// 120 → 150 layer and returns the counters each added.
func (c napaTraceCase) run(t *testing.T, simulate bool) (fwd, bwd, apply, pull gpusim.Counters) {
	t.Helper()
	rng := tensor.NewRNG(2209)
	csr := randomBipartite(120, 150, 8, rng)
	x := tensor.Random(150, c.width, 1, rng)
	dOut := tensor.Random(120, c.width, 1, rng)
	m := napaModes[c.modes]

	dev := testDevice()
	ctx := NewCtx(dev)
	ctx.simulate = simulate
	g := &Graphs{CSR: csr, CSC: graph.BCSRToBCSC(csr)}
	xd, _ := WrapDeviceMatrix(ctx, x, 0, "x")
	dOutD, _ := WrapDeviceMatrix(ctx, dOut, 0, "dout")
	added := func(fn func() error) gpusim.Counters {
		t.Helper()
		before := dev.Snapshot()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return dev.Snapshot().Sub(before)
	}
	fwd = added(func() error { _, err := NAPA{}.Forward(ctx, g, xd, m); return err })
	bwd = added(func() error { _, err := NAPA{}.Backward(ctx, g, xd, dOutD, m); return err })
	var wMat *DeviceMatrix
	apply = added(func() (err error) { wMat, err = NeighborApplyKernel(ctx, csr, xd, m); return err })
	pull = added(func() error { _, err := PullKernel(ctx, csr, xd, wMat, m); return err })
	return fwd, bwd, apply, pull
}

// TestNAPATraceUnchanged pins the access trace of the NAPA kernels — the
// sparse half of every modeled counter, dkp.Calibrate fit and modeled step
// time — the way TestDenseTraceUnchanged pins the dense half. The trace is a
// pass of its own that reads no value; whichever unit its cache model
// probes in (whole rows where that is exact, lines otherwise and always
// under Ctx.simulate), it must reproduce these counters.
func TestNAPATraceUnchanged(t *testing.T) {
	for _, c := range napaTraceGolden {
		for _, simulate := range []bool{false, true} {
			fwd, bwd, apply, pull := c.run(t, simulate)
			for _, p := range []struct {
				pass      string
				got, want gpusim.Counters
			}{{"Forward", fwd, c.fwd}, {"Backward", bwd, c.bwd}, {"NeighborApplyKernel", apply, c.apply}, {"PullKernel", pull, c.pull}} {
				if p.got != p.want {
					t.Errorf("%s width %d %s (simulate=%v):\n got %+v\nwant %+v", c.modes, c.width, p.pass, simulate, p.got, p.want)
				}
			}
		}
	}
}

// BenchmarkNAPATrace times NAPA.Forward's trace pass alone at train-heavy's
// layer-1 shape (NGCF over 544-wide rows of 68 lines, 2 816 sampled srcs) on
// the default 82-SM device: probing once per row, as the launch's geometry
// allows, and forced line by line. The counters are the same; the difference
// is 68 probes per row read.
func BenchmarkNAPATrace(b *testing.B) {
	csr := randomBipartite(704, 2816, 8, tensor.NewRNG(1))
	for _, simulate := range []bool{false, true} {
		name := "rows"
		if simulate {
			name = "lines"
		}
		b.Run(name, func(b *testing.B) {
			ctx := NewCtx(gpusim.NewDevice(gpusim.DefaultConfig()))
			ctx.simulate = simulate
			x, _ := AllocGeom(ctx, 2816, 544, "x")
			out, _ := AllocGeom(ctx, 704, 544, "out")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NAPA{}.TraceForward(ctx, csr, x, out, NGCFModes())
			}
		})
	}
}
