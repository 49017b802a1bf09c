package mat32

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// naiveMatMul is the reference ijk product the unrolled kernels must match
// bit for bit (ascending-k sequential adds — the same order the kernels
// keep).
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float32
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	data := m.Data()
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if v != bd[i] {
			return false
		}
	}
	return true
}

// TestMatMulMatchesNaive pins the float32 kernel behind the shim's Matrix to
// the scalar reference at shapes that exercise the 8-wide body, the
// remainder loop, and both.
func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 8, 5}, {7, 16, 9}, {5, 13, 11}, {32, 24, 2}, {17, 33, 65}} {
		a := randMatrix(rng, shape[0], shape[1])
		b := randMatrix(rng, shape[1], shape[2])
		want := naiveMatMul(a, b)
		got := New(shape[0], shape[2])
		if err := mat.MatMulInto(got, a, b); err != nil {
			t.Fatalf("MatMulInto %v: %v", shape, err)
		}
		if !matricesEqual(got, want) {
			t.Fatalf("MatMulInto %v diverges from naive product", shape)
		}
	}
}

// TestMatMulTMatchesTranspose checks a × bᵀ against MatMul with an explicit
// transpose at shapes covering the unrolled body and remainder.
func TestMatMulTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][3]int{{1, 3, 1}, {4, 8, 9}, {6, 17, 13}, {20, 5, 8}} {
		a := randMatrix(rng, shape[0], shape[1])
		b := randMatrix(rng, shape[2], shape[1]) // b is (bn × ac); product is a × bᵀ
		bt := New(shape[1], shape[2])
		for i := 0; i < b.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		got := New(shape[0], shape[2])
		if err := mat.MatMulTInto(got, a, b); err != nil {
			t.Fatalf("MatMulTInto %v: %v", shape, err)
		}
		want := naiveMatMul(a, bt)
		for i := 0; i < got.Rows(); i++ {
			for j := 0; j < got.Cols(); j++ {
				g, w := got.At(i, j), want.At(i, j)
				d := g - w
				if d < -1e-4 || d > 1e-4 {
					t.Fatalf("MatMulT %v at (%d,%d): got %v want %v", shape, i, j, g, w)
				}
			}
		}
	}
}
