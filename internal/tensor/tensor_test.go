package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := Random(8, 5, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(a, id)
	if !got.Equal(a, 1e-6) {
		t.Error("A·I != A")
	}
}

func TestMatMulAssociativeShape(t *testing.T) {
	rng := NewRNG(2)
	a := Random(4, 6, 1, rng)
	b := Random(6, 3, 1, rng)
	c := Random(3, 7, 1, rng)
	ab_c := MatMul(MatMul(a, b), c)
	a_bc := MatMul(a, MatMul(b, c))
	if diff := ab_c.MaxAbsDiff(a_bc); diff > 1e-4 {
		t.Errorf("(AB)C != A(BC): %g", diff)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(3)
	a := Random(5, 9, 1, rng)
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Error("Tᵀᵀ != T")
	}
}

func TestMatMulTEqualsMatMulTranspose(t *testing.T) {
	rng := NewRNG(4)
	a := Random(5, 7, 1, rng)
	b := Random(4, 7, 1, rng)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	if diff := got.MaxAbsDiff(want); diff > 1e-4 {
		t.Errorf("MatMulT != MatMul∘Transpose: %g", diff)
	}
}

func TestTMatMulEqualsTransposeMatMul(t *testing.T) {
	rng := NewRNG(5)
	a := Random(7, 5, 1, rng)
	b := Random(7, 4, 1, rng)
	got := TMatMul(a, b)
	want := MatMul(Transpose(a), b)
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
	MatMul(New(2, 3), New(4, 5))
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
		c := MatMul(a, b)
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
