package kernels

import (
	"math"
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

// everyStrategy is every schedule around the one numeric pass, GNNAdvisor at
// its default group of 16 and at 4.
var everyStrategy = []Strategy{NAPA{}, Unfused{}, DLApproach{}, GraphApproach{}, Advisor{}, Advisor{GroupSize: 4}}

// wrapped registers a private copy of m on ctx's device.
func wrapped(t testing.TB, ctx *Ctx, m *tensor.Matrix, label string) *DeviceMatrix {
	t.Helper()
	dm, err := WrapDeviceMatrix(ctx, m.Clone(), 0, label)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// TestStrategiesBitwiseNAPA: a strategy is a schedule, so every strategy's
// Forward and Backward return NAPA's values bit for bit — on a layer graph
// with degrees past GNNAdvisor's 16-neighbour groups and the Graph-approach's
// 4-edge blocks, handed over as CSR, as the dst-sorted COO of a prepared batch
// and as a COO in scrambled edge order. NAPA is run over the structures the
// strategy's batch ends up with or, for a format nobody translated, the host
// view derives (CSR from the COO, CSC from the CSR): values depend on the
// graph, never on which formats a schedule happens to hold.
func TestStrategiesBitwiseNAPA(t *testing.T) {
	rng := tensor.NewRNG(24)
	csr := randomBipartite(90, 130, 40, rng)
	shuffled := BCSRToBCOOShuffled(csr, rng)
	x, dOut := tensor.Random(130, 10, 1, rng), tensor.Random(90, 10, 1, rng)
	for _, m := range allModes {
		for _, form := range traceInputs {
			for _, s := range everyStrategy {
				ctx := NewCtx(testDevice())
				g := traceGraphs(form, csr, shuffled)
				xd, dOutD := wrapped(t, ctx, x, "x"), wrapped(t, ctx, dOut, "dout")
				out, err := s.Forward(ctx, g, xd, m)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := s.Backward(ctx, g, xd, dOutD, m)
				if err != nil {
					t.Fatal(err)
				}

				ref := NewCtx(testDevice())
				rg := &Graphs{CSR: ref.hostCSR(g)}
				rg.CSC = g.CSC
				if rg.CSC == nil {
					rg.CSC = graph.BCSRToBCSC(rg.CSR)
				}
				rx, rdOut := wrapped(t, ref, x, "x"), wrapped(t, ref, dOut, "dout")
				want, err := NAPA{}.Forward(ref, rg, rx, m)
				if err != nil {
					t.Fatal(err)
				}
				wantDx, err := NAPA{}.Backward(ref, rg, rx, rdOut, m)
				if err != nil {
					t.Fatal(err)
				}
				name := s.Name() + " " + form + " g=" + m.G.String()
				requireBitwise(t, name+" forward", out.M, want.M)
				requireBitwise(t, name+" backward", dx.M, wantDx.M)
			}
		}
	}
}

// aggregateCase is one point of the property FuzzAggregateVsReference fuzzes
// and TestQuickStrategyEquivalence samples: a random layer graph — up to 40
// dsts of degree 0 to maxDeg ≤ 200, isolated dsts and parallel edges on
// request — under one mode set at width 1 to 20, handed over as CSR or as a
// shuffled COO.
type aggregateCase struct {
	seed                         uint64
	nDst, nSrcExtra, maxDeg, dim uint8
	flags                        uint8 // bits 0-1 mode set, 2 isolated dsts, 3 parallel edges, 4 shuffled COO input
}

// check holds the one numeric pass to the serial reference — forward bit for
// bit (both fold a dst's edges in CSR order), backward within rounding (the
// reference folds a src's gradient dst-major) — and every strategy to itself
// with its trace forced line by line: same counters, same bits.
func (c aggregateCase) check(t *testing.T) {
	t.Helper()
	nDst := 1 + int(c.nDst)%40
	nSrc := nDst + int(c.nSrcExtra)%40
	maxDeg, dim := int(c.maxDeg)%201, 1+int(c.dim)%20
	m := allModes[int(c.flags&3)%len(allModes)]
	rng := tensor.NewRNG(c.seed)
	coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
	for d := 0; d < nDst; d++ {
		if c.flags&4 != 0 && d%3 == 1 {
			continue
		}
		for i, deg := 0, rng.Intn(maxDeg+1); i < deg; i++ {
			s := graph.VID(rng.Intn(nSrc))
			coo.Src, coo.Dst = append(coo.Src, s), append(coo.Dst, graph.VID(d))
			if c.flags&8 != 0 && i%2 == 0 {
				coo.Src, coo.Dst = append(coo.Src, s), append(coo.Dst, graph.VID(d))
			}
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	shuffled, form := BCSRToBCOOShuffled(csr, rng), "csr"
	if c.flags&16 != 0 {
		// The stable sort of the scrambled edge list is the layer's CSR.
		form = "shuffled"
		csr, _ = graph.BCOOToBCSR(shuffled)
	}
	x, dOut := tensor.Random(nSrc, dim, 1, rng), tensor.Random(nDst, dim, 1, rng)

	ctx := NewCtx(testDevice())
	out, dx := tensor.New(nDst, dim), tensor.New(nSrc, dim)
	ctx.aggregate(csr, x, out, m)
	ctx.aggregateBackward(csr, graph.BCSRToBCSC(csr), x, dOut, dx, m)
	requireBitwise(t, "aggregate vs refForward", out, refForward(csr, x, m))
	want := refBackward(csr, x, dOut, m)
	var scale float64
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(float64(v)))
	}
	if diff := dx.MaxAbsDiff(want); float64(diff) > 1e-4*(1+scale) {
		t.Fatalf("aggregateBackward vs refBackward: diff %g at gradient scale %g", diff, scale)
	}

	for _, s := range everyStrategy {
		type result struct {
			out, dx  *tensor.Matrix
			counters gpusim.Counters
		}
		run := func(simulate bool) result {
			ctx := NewCtx(testDevice())
			ctx.simulate = simulate
			g := traceGraphs(form, csr, shuffled)
			xd, dOutD := wrapped(t, ctx, x, "x"), wrapped(t, ctx, dOut, "dout")
			out, err := s.Forward(ctx, g, xd, m)
			if err != nil {
				t.Fatal(err)
			}
			dx, err := s.Backward(ctx, g, xd, dOutD, m)
			if err != nil {
				t.Fatal(err)
			}
			return result{out.M, dx.M, ctx.Dev.Snapshot()}
		}
		fast, ref := run(false), run(true)
		if fast.counters != ref.counters {
			t.Fatalf("%s: counters %+v, simulated line by line %+v", s.Name(), fast.counters, ref.counters)
		}
		requireBitwise(t, s.Name()+" forward", fast.out, out)
		requireBitwise(t, s.Name()+" forward, simulated", ref.out, out)
		requireBitwise(t, s.Name()+" backward, simulated", ref.dx, fast.dx)
	}
}

// FuzzAggregateVsReference fuzzes aggregateCase.check from the committed
// corpus (testdata/fuzz): a hub dst of degree 200, isolated dsts, parallel
// edges, width 1, shuffled COO input, each mode set.
func FuzzAggregateVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, nDst, nSrcExtra, maxDeg, dim, flags uint8) {
		aggregateCase{seed, nDst, nSrcExtra, maxDeg, dim, flags}.check(t)
	})
}
