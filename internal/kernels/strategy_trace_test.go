package kernels

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// strategyTraceGolden holds one line per (kernel, modes, width, input form,
// pass): the counters the pass added, the device's MemPeak and MemInUse after
// it and the Ctx's cumulative per-stage work record. It was captured at commit
// e52bacb, when the DL-approach, the Graph-approach, GNNAdvisor, max-pooling
// and BiasReLU issued their Read/AddFLOPs/Write stream from inside their float
// loops; combination-first still does, and its lines are the guard its own
// split starts from.
const strategyTraceGolden = "testdata/strategy_trace.golden"

// traceRecorder runs passes on one fresh 8-SM test device and renders what
// each left behind as a golden line.
type traceRecorder struct {
	t    *testing.T
	dev  *gpusim.Device
	ctx  *Ctx
	last gpusim.Counters
	out  *strings.Builder
	name string
}

func newTraceRecorder(t *testing.T, out *strings.Builder, simulate bool, name string) *traceRecorder {
	dev := testDevice()
	ctx := NewCtx(dev)
	ctx.simulate = simulate
	return &traceRecorder{t: t, dev: dev, ctx: ctx, out: out, name: name}
}

func fmtCounters(c gpusim.Counters) string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d", c.FLOPs, c.GlobalLoads, c.GlobalStores, c.CacheHits, c.CacheBytes, c.Launches)
}

// pass books one golden line for what fn did since the previous pass.
func (r *traceRecorder) pass(pass string, err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("%s %s: %v", r.name, pass, err)
	}
	now := r.dev.Snapshot()
	fmt.Fprintf(r.out, "%s %s counters=%s peak=%d inuse=%d work=", r.name, pass, fmtCounters(now.Sub(r.last)), r.dev.MemPeak(), r.dev.MemInUse())
	r.last = now
	sep := ""
	for s := metrics.Stage(0); s < metrics.NumStages; s++ {
		if w := r.ctx.Work[s]; w != (gpusim.Counters{}) {
			fmt.Fprintf(r.out, "%s%s:%s", sep, s, fmtCounters(w))
			sep = ";"
		}
	}
	r.out.WriteString("\n")
}

// traceInputs are the three forms a layer graph reaches a strategy in: its
// CSR, the dst-sorted COO of a prepared batch, and a COO in scrambled edge
// order (a dst's edges in several runs).
var traceInputs = []string{"csr", "coo", "shuffled"}

func traceGraphs(form string, csr *graph.BCSR, shuffled *graph.BCOO) *Graphs {
	switch form {
	case "csr":
		return &Graphs{CSR: csr}
	case "coo":
		return &Graphs{COO: graph.BCSRToBCOO(csr)}
	}
	return &Graphs{COO: &graph.BCOO{NumDst: shuffled.NumDst, NumSrc: shuffled.NumSrc,
		Src: append([]graph.VID(nil), shuffled.Src...), Dst: append([]graph.VID(nil), shuffled.Dst...)}}
}

// renderStrategyTrace replays every pinned pass and returns the golden text.
func renderStrategyTrace(t *testing.T, simulate bool) string {
	t.Helper()
	var out strings.Builder
	rng := tensor.NewRNG(2410)
	csr := randomBipartite(120, 150, 24, rng) // degrees up to 24: past a 16-neighbour group
	shuffled := BCSRToBCOOShuffled(csr, rng)
	modeNames := []string{"gcn", "ngcf", "attention"}
	widths := []int{12, 16, 100}
	xs, dOuts := map[int]*tensor.Matrix{}, map[int]*tensor.Matrix{}
	for _, w := range widths {
		xs[w], dOuts[w] = tensor.Random(150, w, 1, rng), tensor.Random(120, w, 1, rng)
	}

	strategies := []struct {
		name string
		s    Strategy
	}{{"dl", DLApproach{}}, {"graph", GraphApproach{}}, {"advisor", Advisor{}}, {"advisor4", Advisor{GroupSize: 4}}}
	for _, st := range strategies {
		for _, mn := range modeNames {
			m := napaModes[mn]
			for _, w := range widths {
				for _, form := range traceInputs {
					name := fmt.Sprintf("%s/%s/%d/%s", st.name, mn, w, form)
					// A training step: forward, then backward over the formats
					// the forward left on the batch.
					r := newTraceRecorder(t, &out, simulate, name)
					g := traceGraphs(form, csr, shuffled)
					x, dOut := wrapped(t, r.ctx, xs[w], "x"), wrapped(t, r.ctx, dOuts[w], "dout")
					_, err := st.s.Forward(r.ctx, g, x, m)
					r.pass("fwd", err)
					_, err = st.s.Backward(r.ctx, g, x, dOut, m)
					r.pass("bwd", err)
					// Backward alone, on a batch no forward has translated.
					r = newTraceRecorder(t, &out, simulate, name)
					x, dOut = wrapped(t, r.ctx, xs[w], "x"), wrapped(t, r.ctx, dOuts[w], "dout")
					_, err = st.s.Backward(r.ctx, traceGraphs(form, csr, shuffled), x, dOut, m)
					r.pass("bwd-fresh", err)
				}
			}
		}
	}

	// The Graph-approach's SDDMM alone (Fig 6b).
	for _, mn := range modeNames[1:] {
		for _, w := range widths {
			for _, form := range traceInputs {
				r := newTraceRecorder(t, &out, simulate, fmt.Sprintf("sddmm/%s/%d/%s", mn, w, form))
				wMat, err := GraphApproach{}.SDDMM(r.ctx, traceGraphs(form, csr, shuffled), wrapped(t, r.ctx, xs[w], "x"), napaModes[mn])
				r.pass("fwd", err)
				wMat.Free()
				r.pass("freed", nil)
			}
		}
	}

	// Max-pooling.
	for _, w := range widths {
		for _, form := range traceInputs {
			r := newTraceRecorder(t, &out, simulate, fmt.Sprintf("sagepool/%d/%s", w, form))
			g := traceGraphs(form, csr, shuffled)
			x, dOut := wrapped(t, r.ctx, xs[w], "x"), wrapped(t, r.ctx, dOuts[w], "dout")
			_, argmax, err := SAGEPoolForward(r.ctx, g, x)
			r.pass("fwd", err)
			_, err = SAGEPoolBackward(r.ctx, g, x, dOut, argmax)
			r.pass("bwd", err)
		}
	}

	// BiasReLU and its backward: fewer rows than SMs, rows that straddle
	// lines, rows of whole lines.
	for _, shape := range [][2]int{{5, 7}, {120, 12}, {150, 16}, {333, 100}} {
		r := newTraceRecorder(t, &out, simulate, fmt.Sprintf("biasrelu/%dx%d", shape[0], shape[1]))
		y := wrapped(t, r.ctx, tensor.Random(shape[0], shape[1], 1, rng), "y")
		dy := wrapped(t, r.ctx, tensor.Random(shape[0], shape[1], 1, rng), "dy")
		pre, err := BiasReLU(r.ctx, y, tensor.Random(1, shape[1], 1, rng).Data)
		r.pass("fwd", err)
		r.pass("bwd", BiasReLUBackward(r.ctx, dy, pre, make([]float32, shape[1])))
	}

	// Combination-first — pinned, not moved.
	for _, mn := range modeNames[1:] {
		m := napaModes[mn]
		for _, w := range widths {
			for _, form := range traceInputs {
				r := newTraceRecorder(t, &out, simulate, fmt.Sprintf("combfirst/%s/%d/%s", mn, w, form))
				g := traceGraphs(form, csr, shuffled)
				x := wrapped(t, r.ctx, xs[w], "x")
				wgt := tensor.Random(w, 8, 1, tensor.NewRNG(uint64(w)))
				dPre := wrapped(t, r.ctx, tensor.Random(120, 8, 1, tensor.NewRNG(uint64(w)+1)), "dpre")
				res, err := CombFirstForward(r.ctx, g, x, wgt, m)
				r.pass("fwd", err)
				_, err = CombFirstBackward(r.ctx, g, x, res, dPre, wgt, tensor.New(w, 8), m)
				r.pass("bwd", err)
			}
		}
	}
	return out.String()
}

// TestStrategyTraceUnchanged pins the device-side behaviour of every sparse
// kernel that is not NAPA, of max-pooling and of BiasReLU — counters, memory
// peak, memory in use and the per-stage work record, on CSR, COO-only and
// shuffled-COO input — the way TestDenseTraceUnchanged and
// TestNAPATraceUnchanged pin theirs. However a kernel's trace is produced, and
// whether or not its cache model may take a closed form (Ctx.simulate forbids
// it), it must reproduce the golden file. Regenerate with -update only for a
// change that names its re-baseline.
func TestStrategyTraceUnchanged(t *testing.T) {
	got := renderStrategyTrace(t, false)
	if *update {
		if err := os.MkdirAll(filepath.Dir(strategyTraceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(strategyTraceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(strategyTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for _, simulate := range []bool{false, true} {
		if simulate {
			got = renderStrategyTrace(t, true)
		}
		lines := strings.Split(got, "\n")
		if len(lines) != len(want) {
			t.Fatalf("simulate=%v: %d golden lines, rendered %d", simulate, len(want), len(lines))
		}
		bad := 0
		for i, l := range lines {
			if l != want[i] {
				if bad++; bad <= 10 {
					t.Errorf("simulate=%v line %d:\n got %s\nwant %s", simulate, i+1, l, want[i])
				}
			}
		}
		if bad > 10 {
			t.Errorf("simulate=%v: %d more lines differ", simulate, bad-10)
		}
	}
}
