package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// Shorthands: the Into kernels over a fresh destination.
func matMul(a, b *Matrix) *Matrix  { return MatMulInto(New(a.Rows, b.Cols), a, b) }
func matMulT(a, b *Matrix) *Matrix { return MatMulTInto(New(a.Rows, b.Rows), a, b) }
func tMatMul(a, b *Matrix) *Matrix { return TMatMulInto(New(a.Cols, b.Cols), a, b) }

// transposed returns mᵀ element by element.
func transposed(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := Random(8, 5, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	got := matMul(a, id)
	if got.MaxAbsDiff(a) > 1e-6 {
		t.Error("A·I != A")
	}
}

func TestMatMulAssociativeShape(t *testing.T) {
	rng := NewRNG(2)
	a := Random(4, 6, 1, rng)
	b := Random(6, 3, 1, rng)
	c := Random(3, 7, 1, rng)
	ab_c := matMul(matMul(a, b), c)
	a_bc := matMul(a, matMul(b, c))
	if diff := ab_c.MaxAbsDiff(a_bc); diff > 1e-4 {
		t.Errorf("(AB)C != A(BC): %g", diff)
	}
}

func TestMatMulTEqualsMatMulTranspose(t *testing.T) {
	rng := NewRNG(4)
	a := Random(5, 7, 1, rng)
	b := Random(4, 7, 1, rng)
	got := matMulT(a, b)
	want := matMul(a, transposed(b))
	if diff := got.MaxAbsDiff(want); diff > 1e-4 {
		t.Errorf("MatMulT != MatMul∘Transpose: %g", diff)
	}
}

func TestTMatMulEqualsTransposeMatMul(t *testing.T) {
	rng := NewRNG(5)
	a := Random(7, 5, 1, rng)
	b := Random(7, 4, 1, rng)
	got := tMatMul(a, b)
	want := matMul(transposed(a), b)
	if diff := got.MaxAbsDiff(want); diff > 1e-4 {
		t.Errorf("TMatMul != Transpose∘MatMul: %g", diff)
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMulInto(New(2, 5), New(2, 3), New(4, 5))
}

// Property: MatMul result dimensions and a single-entry dot check.
func TestQuickMatMulColumn(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		a := Random(n, k, 1, rng)
		b := Random(k, m, 1, rng)
		c := matMul(a, b)
		if c.Rows != n || c.Cols != m {
			return false
		}
		// Verify one random entry by explicit dot product.
		i, j := rng.Intn(n), rng.Intn(m)
		var acc float32
		for kk := 0; kk < k; kk++ {
			acc += a.At(i, kk) * b.At(kk, j)
		}
		return math.Abs(float64(acc-c.At(i, j))) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10)=%d out of range", v)
		}
	}
}

func TestRNGFloat32Range(t *testing.T) {
	rng := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := rng.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32()=%g out of [0,1)", v)
		}
	}
}

func TestGlorotUniformScale(t *testing.T) {
	rng := NewRNG(9)
	m := GlorotUniform(100, 100, rng)
	limit := float32(math.Sqrt(6.0 / 200))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("glorot value %g outside ±%g", v, limit)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := NewRNG(10)
	a := Random(3, 3, 1, rng)
	c := a.Clone()
	c.Data[0] = 999
	if a.Data[0] == 999 {
		t.Error("clone aliases original")
	}
}
