package kernels

import (
	"math"
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/tensor"
)

// Naive references for the dense kernels: the textbook triple loops, one
// accumulator per output element in ascending inner index. They share no
// code with tensor.*Into, so comparing against them is not comparing the
// implementation with itself.

// naiveMatMul returns a·b.
func naiveMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// naiveMatMulT returns a·bᵀ.
func naiveMatMulT(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// naiveTMatMulOnto accumulates aᵀ·b term by term onto dst (the association
// LinearBackward had when it updated dW in place: dst + t₀ + t₁ + …).
func naiveTMatMulOnto(dst, a, b *tensor.Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := dst.At(i, j)
			for k := 0; k < a.Rows; k++ {
				acc += a.At(k, i) * b.At(k, j)
			}
			dst.Set(i, j, acc)
		}
	}
}

// reluSparse returns a rows×cols matrix with roughly half its entries zero,
// the shape of a post-ReLU activation.
func reluSparse(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	m := tensor.Random(rows, cols, 1, rng)
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func requireBitwise(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g (%#x), want %g (%#x)", name, i,
				v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// denseCase is one Linear/LinearBackward problem on a fresh test device.
type denseCase struct {
	name     string
	x, w, dy *tensor.Matrix
	fwd, bwd gpusim.Counters // golden access trace (see TestDenseTraceUnchanged)

	// Set by run.
	ctx            *Ctx
	xd, dyd        *DeviceMatrix
	gotFwd, gotBwd gpusim.Counters
}

func denseCases() []*denseCase {
	rng := tensor.NewRNG(101)
	cases := []*denseCase{
		{ // x, y and dx rows are whole cache lines (64 B / 32 B lines)
			name: "aligned", x: tensor.Random(70, 16, 1, rng), w: tensor.Random(16, 8, 1, rng),
			fwd: gpusim.Counters{FLOPs: 17920, GlobalLoads: 268, GlobalStores: 70, CacheHits: 0},
			bwd: gpusim.Counters{FLOPs: 35840, GlobalLoads: 758, GlobalStores: 140, CacheHits: 560},
		},
		{ // 52 B and 28 B rows straddle line boundaries
			name: "unaligned", x: tensor.Random(37, 13, 1, rng), w: tensor.Random(13, 7, 1, rng),
			fwd: gpusim.Counters{FLOPs: 6734, GlobalLoads: 164, GlobalStores: 65, CacheHits: 25},
			bwd: gpusim.Counters{FLOPs: 13468, GlobalLoads: 367, GlobalStores: 93, CacheHits: 639},
		},
		{ // post-ReLU x: dW's trace skips the dy rows of zero activations
			name: "relu-sparse", x: reluSparse(90, 24, rng), w: tensor.Random(24, 10, 1, rng),
			fwd: gpusim.Counters{FLOPs: 43200, GlobalLoads: 510, GlobalStores: 180, CacheHits: 0},
			bwd: gpusim.Counters{FLOPs: 86400, GlobalLoads: 1201, GlobalStores: 270, CacheHits: 1469},
		},
	}
	for _, c := range cases {
		c.dy = tensor.Random(c.x.Rows, c.w.Cols, 1, rng)
	}
	return cases
}

// run executes Linear then LinearBackward (onto dw) on a fresh test device
// and records the counters each added.
func (c *denseCase) run(t *testing.T, dw *tensor.Matrix) (y, dx *DeviceMatrix) {
	t.Helper()
	return c.runOn(t, NewCtx(testDevice()), dw)
}

// runOn is run on the device and in the trace mode of ctx.
func (c *denseCase) runOn(t *testing.T, ctx *Ctx, dw *tensor.Matrix) (y, dx *DeviceMatrix) {
	t.Helper()
	dev := ctx.Dev
	c.ctx = ctx
	c.xd, _ = WrapDeviceMatrix(c.ctx, c.x, 0, "x")
	c.dyd, _ = WrapDeviceMatrix(c.ctx, c.dy, 0, "dy")
	s0 := dev.Snapshot()
	y, err := Linear(c.ctx, c.xd, c.w, "y")
	if err != nil {
		t.Fatal(err)
	}
	s1 := dev.Snapshot()
	dx, err = LinearBackward(c.ctx, c.xd, c.dyd, c.w, dw, "dx")
	if err != nil {
		t.Fatal(err)
	}
	c.gotFwd, c.gotBwd = s1.Sub(s0), dev.Snapshot().Sub(s1)
	return y, dx
}

// TestDenseTraceUnchanged pins the access trace of the dense kernels — the
// per-SM Read/AddFLOPs/Write stream that feeds every modeled counter,
// dkp.Calibrate fit and modeled step time — to the values the kernels
// produced when numerics and trace shared one loop (golden, captured at
// commit eda0b54). The trace is a pass of its own now; it must not drift
// when the numeric pass changes.
func TestDenseTraceUnchanged(t *testing.T) {
	for _, c := range denseCases() {
		c.run(t, tensor.New(c.w.Rows, c.w.Cols))
		for _, p := range []struct {
			pass      string
			got, want gpusim.Counters
		}{{"Linear", c.gotFwd, c.fwd}, {"LinearBackward", c.gotBwd, c.bwd}} {
			g, w := p.got, p.want
			if g.FLOPs != w.FLOPs || g.GlobalLoads != w.GlobalLoads ||
				g.GlobalStores != w.GlobalStores || g.CacheHits != w.CacheHits {
				t.Errorf("%s %s: FLOPs/loads/stores/hits = %d/%d/%d/%d, golden %d/%d/%d/%d", c.name, p.pass,
					g.FLOPs, g.GlobalLoads, g.GlobalStores, g.CacheHits,
					w.FLOPs, w.GlobalLoads, w.GlobalStores, w.CacheHits)
			}
		}
	}
}

// TestLinearBitwiseVsNaive: Y, dX and dW (onto a zero dW) equal the naive
// triple loops bit for bit, zeros in x included — the blocked GEMM
// accumulates each element in the same ascending order, and adding a ±0
// product never changes a sum that started at +0. Run at -cpu 1,4: rows
// split across workers, elements never do.
func TestLinearBitwiseVsNaive(t *testing.T) {
	for _, c := range denseCases() {
		dw := tensor.New(c.w.Rows, c.w.Cols)
		y, dx := c.run(t, dw)
		requireBitwise(t, c.name+" Y", y.M, naiveMatMul(c.x, c.w))
		requireBitwise(t, c.name+" dX", dx.M, naiveMatMulT(c.dy, c.w))
		wantDW := tensor.New(c.w.Rows, c.w.Cols)
		naiveTMatMulOnto(wantDW, c.x, c.dy)
		requireBitwise(t, c.name+" dW", dw, wantDW)

		// Accumulating onto a non-zero dW (the NGCF combination-first
		// backward's second call) adds the finished product in one step
		// instead of term by term: same value up to rounding of the sum.
		dw2 := tensor.Random(c.w.Rows, c.w.Cols, 1, tensor.NewRNG(7))
		want2 := dw2.Clone()
		naiveTMatMulOnto(want2, c.x, c.dy)
		c.run(t, dw2)
		for i, v := range dw2.Data {
			tol := 8 * float64(c.x.Rows) * (math.Abs(float64(want2.Data[i])) + 1) * (1.0 / (1 << 24))
			if d := math.Abs(float64(v - want2.Data[i])); d > tol {
				t.Fatalf("%s dW+=: element %d = %g, want %g (|diff| %g > %g)", c.name, i, v, want2.Data[i], d, tol)
			}
		}
	}
}

// TestLinearBackwardAllocFloor: the dW scratch is retained on the Ctx and
// dx borrows its storage from the tensor pool, so a call allocates headers
// and closures only — dx's wrapper and buffer, the launch's Kernel and the
// kernel and tracking closures (12 per call before the pool backed dx and a
// launch reused its SM set, 13 at commit eda0b54).
func TestLinearBackwardAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c := denseCases()[2]
	dw := tensor.New(c.w.Rows, c.w.Cols)
	c.run(t, dw)
	allocs := testing.AllocsPerRun(50, func() {
		dx, err := LinearBackward(c.ctx, c.xd, c.dyd, c.w, dw, "dx")
		if err != nil {
			t.Fatal(err)
		}
		dx.Free()
	})
	const floor = 8
	if allocs > floor {
		t.Errorf("LinearBackward allocates %.0f per call, want <= %d", allocs, floor)
	}
}

// TestLinearWeightTileUnreachable: the weight tile's reserved address is one
// no allocation can reach. Device addresses come from a bump pointer that
// never rewinds (about 15 MB per train-heavy batch), and the tile used to
// sit at 0x7f000000 — passed between batch 100 and 200 of a process, when
// for one batch an operand's rows shared cache lines with the tile (spurious
// hits: the counters stopped being a function of the launch). Linear and
// LinearBackward with x allocated across that address must count what they
// count on a fresh device.
func TestLinearWeightTileUnreachable(t *testing.T) {
	const oldWeightsAddr = 0x7f000000
	for _, c := range denseCases() {
		c.run(t, tensor.New(c.w.Rows, c.w.Cols))
		wantFwd, wantBwd := c.gotFwd, c.gotBwd

		dev := testDevice()
		next := func() int64 { return mustAlloc(t, dev, 0).Addr(0) }
		// Burn address space up to two lines short of the old tile: x,
		// the first buffer runOn allocates, then straddles it.
		const target = oldWeightsAddr - 64
		for at := next(); at < target; at = next() {
			mustAlloc(t, dev, min(target-at, 256<<20)).Free()
		}
		c.runOn(t, NewCtx(dev), tensor.New(c.w.Rows, c.w.Cols))
		if lo, hi := c.xd.RowAddr(0), c.xd.RowAddr(c.x.Rows-1); lo >= oldWeightsAddr || hi <= oldWeightsAddr {
			t.Fatalf("%s: x spans [%#x, %#x], not across %#x", c.name, lo, hi, oldWeightsAddr)
		}
		if c.gotFwd != wantFwd || c.gotBwd != wantBwd {
			t.Errorf("%s: with x across %#x Linear/LinearBackward count\n%+v\n%+v\non a fresh device\n%+v\n%+v",
				c.name, oldWeightsAddr, c.gotFwd, c.gotBwd, wantFwd, wantBwd)
		}
	}
}

func mustAlloc(t *testing.T, dev *gpusim.Device, size int64) *gpusim.Buffer {
	t.Helper()
	b, err := dev.Alloc(size, "filler")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLinearTraceClosedFormVsSimulated holds the dense traces' closed form to
// the simulated loops at the kernel level: Linear, LinearBackward, BiasReLU
// and BiasReLUBackward on random shapes — row widths that are and are not
// whole lines, fewer and more rows than SMs, weight tiles smaller and larger
// than an SM's cache, zero-free and post-ReLU x — run on a default Ctx and
// on one forced down the simulated path, on fresh devices of the same
// geometry. Every launch must add the same counters, and the numbers
// computed must be the same bits.
func TestLinearTraceClosedFormVsSimulated(t *testing.T) {
	rng := tensor.NewRNG(18)
	for trial := 0; trial < 60; trial++ {
		rows, in, out := 1+rng.Intn(400), 1+rng.Intn(70), 1+rng.Intn(24)
		if trial%10 == 0 {
			rows, in = 1500+rng.Intn(1500), 300+rng.Intn(250) // a weight tile past the cache
		}
		x := tensor.Random(rows, in, 1, rng)
		if trial%3 == 0 {
			x = reluSparse(rows, in, rng)
		}
		w, dy := tensor.Random(in, out, 1, rng), tensor.Random(rows, out, 1, rng)
		bias := tensor.Random(1, out, 1, rng).Data
		if zeroFree(x) == (trial%3 == 0) {
			t.Fatalf("trial %d: x zero-free = %v; the dW trace would not take the intended route", trial, zeroFree(x))
		}

		type pass struct {
			counters []gpusim.Counters
			results  []*tensor.Matrix
		}
		run := func(simulate bool) (p pass) {
			cfg := gpusim.DefaultConfig()
			cfg.NumSMs = 1 + trial%9
			if trial%4 == 1 {
				cfg.CacheLineBytes, cfg.CacheBytesPerSM = 128, 7*128
			}
			dev := gpusim.NewDevice(cfg)
			ctx := NewCtx(dev)
			ctx.simulate = simulate
			last := dev.Snapshot()
			step := func(err error, ms ...*tensor.Matrix) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				now := dev.Snapshot()
				p.counters = append(p.counters, now.Sub(last))
				p.results = append(p.results, ms...)
				last = now
			}
			xd, err := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
			step(err)
			dyd, err := WrapDeviceMatrix(ctx, dy.Clone(), 0, "dy")
			step(err)
			y, err := Linear(ctx, xd, w, "y")
			step(err, y.M)
			pre, err := BiasReLU(ctx, y, bias)
			step(err, pre, y.M)
			dBias := make([]float32, out)
			step(BiasReLUBackward(ctx, dyd, pre, dBias), dyd.M, &tensor.Matrix{Rows: 1, Cols: out, Data: dBias})
			dw := tensor.New(in, out)
			dx, err := LinearBackward(ctx, xd, dyd, w, dw, "dx")
			step(err, dx.M, dw)
			return p
		}
		fast, ref := run(false), run(true)
		for i, want := range ref.counters {
			if fast.counters[i] != want {
				t.Fatalf("trial %d (%d×%d → %d) step %d: closed form counts %+v, simulated %+v", trial, rows, in, out, i, fast.counters[i], want)
			}
		}
		for i, want := range ref.results {
			requireBitwise(t, "result", fast.results[i], want)
		}
	}
}

// BenchmarkLinearBackwardTrace times LinearBackward at train-heavy's layer-1
// shape (2 816 sampled rows × 544 features → 8 hidden) on the default
// 82-SM device, with its trace passes taking the closed form and forced line
// by line. The numeric passes (two GEMMs) are the same in both; the
// difference is the dX trace and the 544 × 2 816 single-line touches of the
// dW trace.
func BenchmarkLinearBackwardTrace(b *testing.B) {
	rng := tensor.NewRNG(1)
	x, dy, w := tensor.Random(2816, 544, 1, rng), tensor.Random(2816, 8, 1, rng), tensor.Random(544, 8, 1, rng)
	dw := tensor.New(544, 8)
	for _, simulate := range []bool{false, true} {
		name := "closed-form"
		if simulate {
			name = "simulated"
		}
		b.Run(name, func(b *testing.B) {
			ctx := NewCtx(gpusim.NewDevice(gpusim.DefaultConfig()))
			ctx.simulate = simulate
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xd, _ := WrapDeviceMatrix(ctx, x, 0, "x")
				dyd, _ := WrapDeviceMatrix(ctx, dy, 0, "dy")
				if _, err := LinearBackward(ctx, xd, dyd, w, dw, "dx"); err != nil {
					b.Fatal(err)
				}
				ctx.EndBatch()
			}
		})
	}
}

// BenchmarkAllocDeviceMatrix times what a kernel pays for an output matrix
// at train-heavy's widest shape (2 816 × 544, 6.1 MB): a warm pool checkout
// — zeroing included, as tensor.New's was — plus the device accounting, and
// the return at Free. The wrapper and the buffer are its two allocations.
func BenchmarkAllocDeviceMatrix(b *testing.B) {
	ctx := NewCtx(gpusim.NewDevice(gpusim.DefaultConfig()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dm, err := AllocDeviceMatrix(ctx, 2816, 544, "out")
		if err != nil {
			b.Fatal(err)
		}
		dm.Free()
		ctx.EndBatch()
	}
}
