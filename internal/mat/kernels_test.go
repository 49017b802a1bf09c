package mat

import (
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

// Naive reference kernels with the exact rounding order of the tiled ones:
// one += per k-contribution in ascending k. The float64 kernels skip zero
// multipliers (skipZero); the float32 kernels have no zero-skip.

func naiveMatMul[T Float](a, b *Dense[T], skipZero bool) *Dense[T] {
	out := NewDense[T](a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if skipZero && av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func naiveMatMulT[T Float](a, b *Dense[T]) *Dense[T] {
	out := NewDense[T](a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var sum T
			for k, av := range arow {
				sum += av * brow[k]
			}
			out.data[i*out.cols+j] = sum
		}
	}
	return out
}

func naiveTMatMul(a, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// randDense returns a rows×cols matrix of N(0, 1) entries of T.
func randDense[T Float](rng *rand.Rand, rows, cols int) *Dense[T] {
	m := NewDense[T](rows, cols)
	for i := range m.data {
		m.data[i] = T(rng.NormFloat64())
	}
	return m
}

// TestTiledKernelsBitIdenticalToNaive pins the "tiling is bit-invisible"
// contract for both element types: the unrolled kernels must reproduce the
// naive one-add-per-k rounding sequence exactly, including on ReLU-like
// sparse inputs that exercise the float64 zero-skip fallback paths, at
// shapes that hit both the unrolled body (4-wide f64, 8-wide f32) and the
// tail loops.
func TestTiledKernelsBitIdenticalToNaive(t *testing.T) {
	t.Run("f64", testTiledKernels[float64])
	t.Run("f32", testTiledKernels[float32])
}

func testTiledKernels[T Float](t *testing.T) {
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	_, f64 := any(T(0)).(float64)
	rng := rand.New(rand.NewSource(3))
	sparsify := func(m *Dense[T], frac float64) {
		for i := range m.data {
			if rng.Float64() < frac {
				m.data[i] = 0
			}
		}
	}
	shapes := [][3]int{
		{7, 13, 11}, {8, 16, 4}, {1, 5, 9}, {32, 39, 64}, {3, 4, 4},
		{1, 1, 1}, {3, 8, 5}, {7, 16, 9}, {5, 13, 11}, {32, 24, 2}, {17, 33, 65},
		{1, 3, 1}, {4, 8, 9}, {6, 17, 13}, {20, 5, 8},
	}
	for _, sparse := range []float64{0, 0.5} {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randDense[T](rng, m, k)
			b := randDense[T](rng, k, n)
			bt := randDense[T](rng, n, k)
			sparsify(a, sparse)

			got, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, naiveMatMul(a, b, f64), 0) {
				t.Fatalf("MatMul %v sparse=%v: tiled kernel not bit-identical to naive", s, sparse)
			}
			into := randDense[T](rng, m, n) // stale contents must be overwritten
			if err := MatMulInto(into, a, b); err != nil {
				t.Fatal(err)
			}
			if !Equal(into, got, 0) {
				t.Fatalf("MatMulInto %v sparse=%v differs from MatMul", s, sparse)
			}
			gotT, err := MatMulT(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(gotT, naiveMatMulT(a, bt), 0) {
				t.Fatalf("MatMulT %v sparse=%v: tiled kernel not bit-identical to naive", s, sparse)
			}
			if !f64 {
				continue
			}
			// TMatMul is float64-only: it serves the gradient path.
			at := randDense[T](rng, k, m)
			sparsify(at, sparse)
			at64, b64 := any(at).(*Matrix), any(b).(*Matrix)
			gotTM, err := TMatMul(at64, b64)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(gotTM, naiveTMatMul(at64, b64), 0) {
				t.Fatalf("TMatMul %v sparse=%v: tiled kernel not bit-identical to naive", s, sparse)
			}
		}
	}
}
