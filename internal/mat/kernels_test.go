package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

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
			sums := base.Clone()
			sums.rows, sums.data = 1, sums.data[:n]
			want := sums.Clone()
			if err := AddSumRows(sums, b64); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < k; r++ {
				for j, v := range b64.Row(r) {
					want.data[j] += v
				}
			}
			assertSameBits(t, what("AddSumRows"), sums, want)
		}
		testLSTMKernels[T](t, rng, fill.name, fill.zeros, fill.specials)
	}
}

// nanPayloads are NaNs whose payloads and signs differ, a signaling one
// among them: where two meet in an add, the result's payload shows which
// was the first source.
var nanPayloads = []float64{
	math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF8000000000001),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000456), math.NaN(),
}

// TestAddSumRowsMatchesLoop pins AddSumRows on the assembly arms to the
// plain loop dst[j] += v bit for bit, NaN payloads included: the rows and
// the accumulator hold NaNs of several payloads (signaling ones too), ±0
// and ±Inf, so two NaNs meet in many adds. The go arm is held to sameBits
// only: in axpy4Go gc makes the running sum, not the product, the first
// source of the second add.
func TestAddSumRowsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	odd := append([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}, nanPayloads...)
	for _, rows := range []int{1, 3, 4, 5, 8, 9, 32, 33} {
		for _, cols := range []int{1, 3, 7, 8, 12, 17, 48, 96, 100} {
			m, acc := randDense[float64](rng, rows, cols), randDense[float64](rng, 1, cols)
			for _, x := range []*Matrix{m, acc} {
				for i := range x.data {
					if rng.Float64() < 0.3 {
						x.data[i] = odd[rng.Intn(len(odd))]
					}
				}
			}
			want := acc.Clone()
			for r := 0; r < rows; r++ {
				for j, v := range m.Row(r) {
					want.data[j] += v
				}
			}
			for _, arm := range kernelArms {
				got := acc.Clone()
				arm.wrap(func() {
					if err := AddSumRows(got, m); err != nil {
						t.Fatal(err)
					}
				})
				if arm.name == "go" {
					assertSameBits(t, fmt.Sprintf("arm=go %dx%d", rows, cols), got, want)
					continue
				}
				for j, v := range got.data {
					if math.Float64bits(v) != math.Float64bits(want.data[j]) {
						t.Fatalf("arm=%s %dx%d: column %d = %#x, want %#x", arm.name, rows, cols, j,
							math.Float64bits(v), math.Float64bits(want.data[j]))
					}
				}
			}
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

// BenchmarkKernels64 times the float64 training kernels at the models'
// shapes: the three products at each block shape, as the forward/backward
// trio of one layer (ab is y = x·W (m×k · k×n), abt is dx = dy·Wᵀ (m×n ·
// (k×n)ᵀ) and atb is dW += xᵀ·dy ((m×k)ᵀ · m×n)), and the LSTM step's
// gate sum, backward elementwise step and bias-gradient sum over a 32-row
// block of H units (sumrows over its 4·H gate gradients). Each shape runs
// its arms in turn inside one timed loop, kernelBenchChunk calls at a
// time, and reports each arm's time per call as <arm>-ns/op, so the arms
// share whatever the machine was doing meanwhile: dispatch runs what this
// host selects, avx2 the four-lane assembly alone (the LSTM step kernels
// have no four-lane arm: there it is their Go loop) and go the Go loops.
// ns/op is the three arms together.
func BenchmarkKernels64(b *testing.B) {
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(7))
	type op struct {
		name string
		run  func() error
	}
	var ops []op
	for _, s := range modelShapes {
		m, k, n := s[0], s[1], s[2]
		x, w, dy := RandNormal(rng, m, k, 1), RandNormal(rng, k, n, 1), RandNormal(rng, m, n, 1)
		y, dx, dw := New(m, n), New(m, k), New(k, n)
		shape := fmt.Sprintf("%dx%dx%d", m, k, n)
		ops = append(ops,
			op{"ab/" + shape, func() error { return MatMulInto(y, x, w) }},
			op{"abt/" + shape, func() error { return MatMulTInto(dx, dy, w) }},
			op{"atb/" + shape, func() error { return TMatMulAddInto(dw, x, dy) }})
	}
	for _, H := range []int{12, 24, 64, 128} {
		const rows = 32
		z, zh, bias := RandNormal(rng, rows, 4*H, 1), RandNormal(rng, rows, 4*H, 1), RandNormal(rng, 1, 4*H, 1)
		gates := New(4*rows, H)
		g, tc, cPrev, dhNext, dcNext, up := lstmStepInputs(rng, rows, H, 0, 0)
		dz, dcPrev, db := New(rows, 4*H), New(rows, H), New(1, 4*H)
		shape := fmt.Sprintf("%dx%d", rows, H)
		ops = append(ops,
			op{"gatesum/" + shape, func() error { LSTMGateSum(gates.data, z.data, zh.data, bias.data); return nil }},
			op{"stepgrad/" + shape, func() error { return LSTMStepGrad(dz, dcPrev, g, tc, cPrev, dhNext, dcNext, up, 2) }},
			op{"sumrows/" + shape, func() error { return AddSumRows(db, dz) }})
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			ns := make([]time.Duration, len(kernelArms))
			for done := 0; done < b.N; done += kernelBenchChunk {
				calls := min(kernelBenchChunk, b.N-done)
				for a, arm := range kernelArms {
					arm.wrap(func() {
						start := time.Now()
						for i := 0; i < calls; i++ {
							if err := o.run(); err != nil {
								b.Fatal(err)
							}
						}
						ns[a] += time.Since(start)
					})
				}
			}
			for a, arm := range kernelArms {
				b.ReportMetric(float64(ns[a].Nanoseconds())/float64(b.N), arm.name+"-ns/op")
			}
		})
	}
}

// kernelBenchChunk is how many calls BenchmarkKernels64 times on one arm
// before it turns to the next.
const kernelBenchChunk = 10

// lstmShapes are the (rows, H) blocks the LSTM step kernel tests cover:
// the models' widths (12 and 24 at bench scale, 64 and 128 in the paper)
// at a 32-row training block, widths that leave a masked tail of every
// length, and row counts at tile and chunk edges.
var lstmShapes = [][2]int{
	{32, 12}, {32, 24}, {32, 64}, {32, 128}, {1, 1}, {1, 7}, {3, 8}, {7, 9},
	{17, 13}, {2, 15}, {5, 17}, {63, 12}, {64, 13}, {65, 24}, {4, 3},
}

// naiveGateSum returns LSTMGateSum's gates one element at a time.
func naiveGateSum[T Float](z, zh, b []T, rows int) []T {
	H4 := len(b)
	H, n := H4/4, rows*H4/4
	gates := make([]T, 4*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < H4; c++ {
			gates[(c/H)*n+r*H+c%H] = (z[r*H4+c] + zh[r*H4+c]) + b[c]
		}
	}
	return gates
}

// naiveStepGrad returns LSTMStepGrad's dz and dcPrev, one element at a
// time; up is nil or rows × ldu with the upstream gradient at column off.
func naiveStepGrad(gates, tc, cPrev, dhNext, dcNext, up []float64, ldu, off, rows, H int) (dz, dcPrev []float64) {
	n := rows * H
	dz, dcPrev = make([]float64, 4*n), make([]float64, n)
	for m := 0; m < n; m++ {
		r, j := m/H, m%H
		i, f, g, o := gates[m], gates[n+m], gates[2*n+m], gates[3*n+m]
		dh := dhNext[m]
		if up != nil {
			dh = up[r*ldu+off+j] + dhNext[m]
		}
		dc := dcNext[m] + dh*o*(1-tc[m]*tc[m])
		d := dz[r*4*H+j:]
		d[0] = dc * g * i * (1 - i)
		d[H] = dc * cPrev[m] * f * (1 - f)
		d[2*H] = dc * i * (1 - g*g)
		d[3*H] = dh * tc[m] * o * (1 - o)
		dcPrev[m] = dc * f
	}
	return dz, dcPrev
}

// lstmStepInputs returns the operands of one LSTMStepGrad call: gates in
// (0, 1) (g in (−1, 1)), states and gradients N(0, 1), each salted by
// fillKernelInput, and an upstream gradient rows × (H+3) read at column 2.
func lstmStepInputs(rng *rand.Rand, rows, H int, zeros, special float64) (gates, tc, cPrev, dhNext, dcNext, up *Matrix) {
	gates = New(4*rows, H)
	for i := range gates.data {
		gates.data[i] = rng.Float64()
		if i/(rows*H) == 2 {
			gates.data[i] = 2*gates.data[i] - 1
		}
	}
	tc, cPrev = randDense[float64](rng, rows, H), randDense[float64](rng, rows, H)
	dhNext, dcNext = randDense[float64](rng, rows, H), randDense[float64](rng, rows, H)
	up = randDense[float64](rng, rows, H+3)
	for _, m := range []*Matrix{gates, tc, cPrev, dhNext, dcNext, up} {
		fillKernelInput(rng, m, zeros, special)
	}
	return gates, tc, cPrev, dhNext, dcNext, up
}

// testLSTMKernels pins LSTMGateSum (both element types) and LSTMStepGrad
// (float64, with and without an upstream gradient) to their one element
// at a time references, on whatever arm the caller selected.
func testLSTMKernels[T Float](t *testing.T, rng *rand.Rand, fill string, zeros, special float64) {
	_, f64 := any(T(0)).(float64)
	for _, s := range lstmShapes {
		rows, H := s[0], s[1]
		what := func(op string) string { return fmt.Sprintf("%s rows=%d H=%d %s", op, rows, H, fill) }
		z, zh, b := randDense[T](rng, rows, 4*H), randDense[T](rng, rows, 4*H), randDense[T](rng, 1, 4*H)
		for _, m := range []*Dense[T]{z, zh, b} {
			fillKernelInput(rng, m, zeros, special)
		}
		gates := randDense[T](rng, 4*rows+1, H) // one spare row that must stay untouched
		spare := append([]T(nil), gates.data[4*rows*H:]...)
		LSTMGateSum(gates.data[:4*rows*H], z.data, zh.data, b.data)
		want := naiveGateSum(z.data, zh.data, b.data, rows)
		for i, w := range want {
			if !sameBits(gates.data[i], w) {
				t.Fatalf("%s: element %d = %v, want %v", what("LSTMGateSum"), i, gates.data[i], w)
			}
		}
		for i, v := range spare {
			if !sameBits(gates.data[4*rows*H+i], v) {
				t.Fatalf("%s wrote past its gates", what("LSTMGateSum"))
			}
		}
		if !f64 {
			continue
		}
		g, tc, cPrev, dhNext, dcNext, up := lstmStepInputs(rng, rows, H, zeros, special)
		for _, withUp := range []bool{false, true} {
			dz, dcPrev := randDense[float64](rng, rows, 4*H), randDense[float64](rng, rows, H)
			var u *Matrix
			var ud []float64
			if withUp {
				u, ud = up, up.data
			}
			if err := LSTMStepGrad(dz, dcPrev, g, tc, cPrev, dhNext, dcNext, u, 2); err != nil {
				t.Fatal(err)
			}
			wdz, wdc := naiveStepGrad(g.data, tc.data, cPrev.data, dhNext.data, dcNext.data, ud, H+3, 2, rows, H)
			op := fmt.Sprintf("LSTMStepGrad up=%v", withUp)
			assertSameBits(t, what(op+" dz"), dz, &Dense[float64]{rows: rows, cols: 4 * H, data: wdz})
			assertSameBits(t, what(op+" dcPrev"), dcPrev, &Dense[float64]{rows: rows, cols: H, data: wdc})
		}
	}
}
