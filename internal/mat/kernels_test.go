package mat

import (
	"fmt"
	"math"
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

// naiveTMatMul returns base + aᵀ × b (base nil: aᵀ × b).
func naiveTMatMul(a, base, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	if base != nil {
		out = base.Clone()
	}
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

// sameBits reports whether x and y are the same float, bit for bit: +0 and
// −0 differ, and a NaN equals only a NaN. NaN payloads are not compared.
// When two NaNs meet in one add or multiply, x86 returns the payload of the
// instruction's first source operand, and gc's register allocator picks
// that operand line by line, so a NaN's payload is not a property of the
// Go source. The float32→float64 conversion is exact, so comparing float64
// bits compares float32 bits too.
func sameBits[T Float](x, y T) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

// assertSameBits fails the test at the first element where got and want
// differ in sameBits' sense.
func assertSameBits[T Float](t *testing.T, what string, got, want *Dense[T]) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, v := range got.data {
		if !sameBits(v, want.data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", what, i/got.cols, i%got.cols,
				v, math.Float64bits(float64(v)), want.data[i], math.Float64bits(float64(want.data[i])))
		}
	}
}

// specials are the values that tolerance comparisons cannot see: signed
// zeros, which make the zero-skip visible (−0 + 0·b is +0 for b > 0), and the
// non-finite values that poison a skipped product (0·±Inf is NaN).
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// modelShapes are the (m, k, n) block shapes of the models' layers: a
// 32-row training block times an input or hidden width k times n outputs
// (four gates for the LSTMs). The first five are the bench-scale LSTM and
// MLP layers, the last the paper's 128-unit LSTM gates.
var modelShapes = [][3]int{{32, 6, 96}, {32, 24, 96}, {32, 24, 48}, {32, 12, 48}, {32, 9, 48}, {32, 128, 512}}

// kernelShapes are the (m, k, n) products the kernel tests cover: the
// model shapes, row and column counts that are not a multiple of 4, tiny
// products, and a k longer than any unrolled or blocked loop.
var kernelShapes = append(modelShapes[:len(modelShapes):len(modelShapes)], [][3]int{
	{7, 13, 11}, {8, 16, 4}, {1, 5, 9}, {32, 39, 64}, {3, 4, 4},
	{1, 1, 1}, {3, 8, 5}, {7, 16, 9}, {5, 13, 11}, {32, 24, 2}, {17, 33, 65},
	{1, 3, 1}, {4, 8, 9}, {6, 17, 13}, {20, 5, 8}, {30, 7, 22}, {9, 515, 10}, {13, 1027, 6},
}...)

// kernelFills are the input patterns of the kernel tests: dense normals,
// ReLU-like sparse inputs that exercise the float64 zero-skip fallbacks,
// and sparse inputs salted with specials.
var kernelFills = []struct {
	name            string
	zeros, specials float64
}{{"dense", 0, 0}, {"sparse", 0.5, 0}, {"special", 0.3, 0.03}}

// fillKernelInput overwrites a fraction of m's entries with zeros and a
// fraction with specials.
func fillKernelInput[T Float](rng *rand.Rand, m *Dense[T], zeros, special float64) {
	for i := range m.data {
		switch u := rng.Float64(); {
		case u < special:
			m.data[i] = T(specials[rng.Intn(len(specials))])
		case u < special+zeros:
			m.data[i] = 0
		}
	}
}

// TestTiledKernelsBitIdenticalToNaive pins the "tiling is bit-invisible"
// contract for both element types: whichever kernels the host dispatches
// to (the AVX2 assembly or the Go loops) must reproduce the naive
// one-add-per-k rounding sequence exactly, bit for bit, including on
// ReLU-like sparse inputs that exercise the float64 zero-skip fallback
// paths and on signed zeros and non-finite values, at the models' block
// shapes and at shapes that hit both the unrolled bodies (4-wide f64,
// 8-wide f32) and the tail loops.
func TestTiledKernelsBitIdenticalToNaive(t *testing.T) {
	t.Run("f64", testTiledKernels[float64])
	t.Run("f32", testTiledKernels[float32])
}

func testTiledKernels[T Float](t *testing.T) {
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	_, f64 := any(T(0)).(float64)
	rng := rand.New(rand.NewSource(3))
	for _, fill := range kernelFills {
		for _, s := range kernelShapes {
			m, k, n := s[0], s[1], s[2]
			what := func(op string) string { return fmt.Sprintf("%s %v %s", op, s, fill.name) }
			a := randDense[T](rng, m, k)
			b := randDense[T](rng, k, n)
			bt := randDense[T](rng, n, k)
			fillKernelInput(rng, a, fill.zeros, fill.specials)
			fillKernelInput(rng, b, 0, fill.specials)
			fillKernelInput(rng, bt, 0, fill.specials)

			got, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, what("MatMul"), got, naiveMatMul(a, b, f64))
			into := randDense[T](rng, m, n) // stale contents must be overwritten
			if err := MatMulInto(into, a, b); err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, what("MatMulInto"), into, got)
			gotT, err := mulT(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, what("MatMulT"), gotT, naiveMatMulT(a, bt))
			if !f64 {
				continue
			}
			// TMatMul is float64-only: it serves the gradient path.
			at := randDense[T](rng, k, m)
			fillKernelInput(rng, at, fill.zeros, fill.specials)
			at64, b64 := any(at).(*Matrix), any(b).(*Matrix)
			gotTM, err := tMul(at64, b64)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, what("TMatMul"), gotTM, naiveTMatMul(at64, nil, b64))
			// TMatMulAddInto accumulates into a base that holds −0 entries,
			// where a skipped zero product and an added one differ.
			base := RandNormal(rng, m, n, 1)
			fillKernelInput(rng, base, 0.3, 0)
			for i := range base.data {
				if base.data[i] == 0 && i%2 == 0 {
					base.data[i] = math.Copysign(0, -1)
				}
			}
			acc := base.Clone()
			if err := TMatMulAddInto(acc, at64, b64); err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, what("TMatMulAddInto"), acc, naiveTMatMul(at64, base, b64))
		}
	}
}

// kernelArms run a function on what this host dispatches to, on the
// four-lane assembly alone (the AVX-512 arms off), and on the Go loops and
// scalar math alone.
var kernelArms = []struct {
	name string
	wrap func(func())
}{{"dispatch", func(f func()) { f() }}, {"avx2", avx2Kernels}, {"go", goKernels}}

// BenchmarkKernels64 times the three float64 training products at the
// models' block shapes, each as the forward/backward trio of one layer:
// ab is y = x·W (m×k · k×n), abt is dx = dy·Wᵀ (m×n · (k×n)ᵀ) and atb is
// dW += xᵀ·dy ((m×k)ᵀ · m×n). The dispatch arm runs what this host
// selects, the avx2 arm the four-lane assembly alone, and the go arm the
// Go loops.
func BenchmarkKernels64(b *testing.B) {
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(7))
	for _, s := range modelShapes {
		m, k, n := s[0], s[1], s[2]
		x, w, dy := RandNormal(rng, m, k, 1), RandNormal(rng, k, n, 1), RandNormal(rng, m, n, 1)
		y, dx, dw := New(m, n), New(m, k), New(k, n)
		ops := []struct {
			name string
			run  func() error
		}{
			{"ab", func() error { return MatMulInto(y, x, w) }},
			{"abt", func() error { return MatMulTInto(dx, dy, w) }},
			{"atb", func() error { return TMatMulAddInto(dw, x, dy) }},
		}
		for _, op := range ops {
			for _, arm := range kernelArms {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", op.name, m, k, n, arm.name), func(b *testing.B) {
					b.ReportAllocs()
					arm.wrap(func() {
						for i := 0; i < b.N; i++ {
							if err := op.run(); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		}
	}
}
