package kernels

import (
	"runtime"
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

func workspaceGraph(t *testing.T) (*Graphs, *tensor.Matrix) {
	t.Helper()
	rng := tensor.NewRNG(7)
	coo := &graph.BCOO{NumDst: 60, NumSrc: 110}
	for d := 0; d < 60; d++ {
		coo.Src = append(coo.Src, graph.VID(d))
		coo.Dst = append(coo.Dst, graph.VID(d))
		for i := 0; i < 5; i++ {
			coo.Src = append(coo.Src, graph.VID(rng.Intn(110)))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	return &Graphs{CSR: csr, CSC: graph.BCSRToBCSC(csr)}, tensor.Random(110, 24, 1, rng)
}

// TestCtxWorkspaceReuseDeterministic checks that reusing one Ctx (whose
// per-SM scratch rows and invDeg memo are then warm) across repeated
// forward/backward passes — and across strategies — changes nothing about
// the results, under both serial and parallel execution.
func TestCtxWorkspaceReuseDeterministic(t *testing.T) {
	g, x := workspaceGraph(t)
	for _, modes := range []Modes{GCNModes(), NGCFModes()} {
		dev := gpusim.NewDevice(gpusim.DefaultConfig())
		ctx := NewCtx(dev)
		var ref *tensor.Matrix
		for pass := 0; pass < 3; pass++ {
			prev := runtime.GOMAXPROCS(1 + pass*3) // 1, 4, 7 workers
			for _, s := range []Strategy{NAPA{}, Unfused{}, DLApproach{}, GraphApproach{}} {
				gg := &Graphs{CSR: g.CSR, CSC: g.CSC}
				xd, err := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
				if err != nil {
					t.Fatal(err)
				}
				out, err := s.Forward(ctx, gg, xd, modes)
				if err != nil {
					t.Fatalf("%s forward: %v", s.Name(), err)
				}
				if ref == nil {
					ref = out.M.Clone()
				} else if d := out.M.MaxAbsDiff(ref); d > 2e-5 {
					t.Fatalf("%s pass %d diverges from first result by %v", s.Name(), pass, d)
				}
				out.Free()
				xd.Free()
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestInvDegMemo checks the memoization contract: one computation per CSR
// identity, shared across calls.
func TestInvDegMemo(t *testing.T) {
	g, _ := workspaceGraph(t)
	ctx := NewCtx(gpusim.NewDevice(gpusim.DefaultConfig()))
	a := ctx.InvDeg(g.CSR)
	b := ctx.InvDeg(g.CSR)
	if &a[0] != &b[0] {
		t.Error("InvDeg recomputed for the same CSR")
	}
	want := invDegFromCSR(g.CSR)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("memoized invDeg[%d] = %v, want %v", i, a[i], want[i])
		}
	}
	// A different CSR gets its own entry.
	csr2, _ := graph.BCOOToBCSR(&graph.BCOO{NumDst: 3, NumSrc: 3,
		Src: []graph.VID{0, 1, 2}, Dst: []graph.VID{0, 0, 2}})
	c := ctx.InvDeg(csr2)
	if len(c) != 3 || c[0] != 0.5 || c[1] != 0 || c[2] != 1 {
		t.Fatalf("invDeg for second CSR = %v", c)
	}
	// EndBatch releases the memos: the next call recomputes.
	ctx.EndBatch()
	d := ctx.InvDeg(g.CSR)
	if &d[0] == &a[0] {
		t.Error("InvDeg still memoized after EndBatch")
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("recomputed invDeg[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

// TestScratchRowsDisjoint guards the workspace layout: per-SM scratch rows
// must never overlap (a worker writing its row cannot corrupt another's).
func TestScratchRowsDisjoint(t *testing.T) {
	ctx := NewCtx(gpusim.NewDevice(gpusim.DefaultConfig()))
	rows := ctx.msgScratch(8, 16)
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = float32(i)
		}
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != float32(i) {
				t.Fatalf("scratch row %d corrupted at %d", i, j)
			}
		}
	}
	// Growing re-slices but keeps rows disjoint.
	rows = ctx.msgScratch(12, 40)
	if len(rows) != 12 || len(rows[0]) != 40 {
		t.Fatalf("grown scratch shape %dx%d", len(rows), len(rows[0]))
	}
	// msg and w scratch must be independent buffers.
	msg := ctx.msgScratch(4, 8)
	w := ctx.wScratch(4, 8)
	msg[0][0] = 1
	w[0][0] = 2
	if msg[0][0] != 1 {
		t.Error("msgScratch aliases wScratch")
	}
}
