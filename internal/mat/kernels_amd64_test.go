package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

// withAVX2 runs f with the assembly inner loops switched on or off, so an
// AVX2 host still covers the Go path that every other host runs. Off
// switches the eight-lane arms off too; on leaves them as they are.
func withAVX2(on bool, f func()) {
	defer func(was, was512 bool) { useAVX2, useAVX512 = was, was512 }(useAVX2, useAVX512)
	useAVX2, useAVX512 = on, on && useAVX512
	f()
}

// withAVX512 runs f with the eight-lane arms switched on or off. Switching
// them on is only for hosts that have them (see useAVX512).
func withAVX512(on bool, f func()) {
	defer func(was bool) { useAVX512 = was }(useAVX512)
	useAVX512 = on
	f()
}

// goKernels runs f on the Go loops.
func goKernels(f func()) { withAVX2(false, f) }

// avx2Kernels runs f on the four-lane assembly, with the eight-lane arms
// off: what an AVX2 host without AVX-512 runs.
func avx2Kernels(f func()) { withAVX512(false, f) }

// TestGoKernelsBitIdenticalToNaive runs the naive-reference test with the
// assembly switched off: the Go loops are the reference and the fallback,
// and on an AVX2 host nothing else would exercise them.
func TestGoKernelsBitIdenticalToNaive(t *testing.T) {
	withAVX2(false, func() {
		t.Run("f64", testTiledKernels[float64])
	})
}

// TestAVX2KernelsMatchGo calls the four-lane assembly entry points and
// their Go loops directly against each other, bit for bit, then the three
// products on the four-lane assembly and on the Go loops.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: only the Go kernels run")
	}
	rng := rand.New(rand.NewSource(11))
	row := func(n int) []float64 {
		m := randDense[float64](rng, 1, n)
		fillKernelInput(rng, m, 0.1, 0.05)
		return m.data
	}
	scalar := func() float64 {
		if rng.Float64() < 0.2 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s: element %d = %v, want %v", what, j, got[j], want[j])
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 48, 96, 512} {
		for rep := 0; rep < 20; rep++ {
			o, b := row(n), row(4*n)
			a0, a1, a2, a3 := scalar(), scalar(), scalar(), scalar()
			want := append([]float64(nil), o...)
			axpy4Go(want, b, a0, a1, a2, a3)
			got := append([]float64(nil), o...)
			axpy4AVX2(&got[0], &b[0], n, a0, a1, a2, a3)
			same(fmt.Sprintf("axpy4 n=%d", n), got, want)

			want = append(want[:0], o...)
			axpy1Go(want, b, a0)
			got = append(got[:0], o...)
			axpy1AVX2(&got[0], &b[0], n, a0)
			same(fmt.Sprintf("axpy1 n=%d", n), got, want)
		}
	}
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 24, 96, 515} {
		for _, nb := range []int{1, 2, 3} {
			a := randDense[float64](rng, 4, k)
			b := randDense[float64](rng, 4*nb, k)
			fillKernelInput(rng, a, 0.1, 0.05)
			fillKernelInput(rng, b, 0.1, 0.05)
			var abt *Matrix
			goKernels(func() { abt, _ = mulT(a, b) })
			// Three spare columns per output row must stay untouched.
			ldo := 4*nb + 3
			want := randDense[float64](rng, 4, ldo)
			got := want.Clone()
			for r := 0; r < 4; r++ {
				copy(want.Row(r), abt.Row(r))
			}
			dotT4AVX2(&got.data[0], ldo, &a.data[0], &b.data[0], k, nb)
			same(fmt.Sprintf("dotT4 k=%d nb=%d", k, nb), got.data, want.data)
		}
	}

	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	for _, s := range kernelShapes {
		m, k, n := s[0], s[1], s[2]
		a := randDense[float64](rng, m, k)
		b := randDense[float64](rng, k, n)
		bt := randDense[float64](rng, n, k)
		at := randDense[float64](rng, k, m)
		base := randDense[float64](rng, m, n)
		for _, x := range []*Matrix{a, b, bt, at, base} {
			fillKernelInput(rng, x, 0.3, 0.03)
		}
		products := func() [3]*Matrix {
			ab, _ := MatMul(a, b)
			abt, _ := mulT(a, bt)
			atb := base.Clone()
			if err := TMatMulAddInto(atb, at, b); err != nil {
				t.Fatal(err)
			}
			return [3]*Matrix{ab, abt, atb}
		}
		var goOut, asmOut [3]*Matrix
		goKernels(func() { goOut = products() })
		avx2Kernels(func() { asmOut = products() })
		for p, name := range []string{"ab", "abt", "atb"} {
			assertSameBits(t, fmt.Sprintf("%s %v", name, s), asmOut[p], goOut[p])
		}
	}
}

// TestActivationAssemblyRuns pins that the activation kernels reach their
// assembly on a host that selects it, so the match-math test compares the
// assembly and not the scalar fallback twice.
func TestActivationAssemblyRuns(t *testing.T) {
	if !useAVX2 || !hasFMA {
		t.Skip("CPU without AVX2 and FMA: only the scalar activations run")
	}
	src := []float64{-1, 0.5, 3, -0.25, 9, 700.5, 2, 1}
	dst := make([]float64, len(src))
	if n := sigmoidVec(dst, src); n != 4 {
		t.Errorf("sigmoidVec wrote %d elements, want 4 (stop before 700.5's group)", n)
	}
	src[5] = 44.5
	if n := tanhVec(dst, src); n != 4 {
		t.Errorf("tanhVec wrote %d elements, want 4 (stop before 44.5's group)", n)
	}
	if n := tanhVec(dst, src[:4]); n != 4 {
		t.Errorf("tanhVec wrote %d of 4 in-range elements", n)
	}
}

// TestKernelDispatch logs which arm this host runs, so a run on a host
// without AVX-512 says that the eight-lane tests were skipped for it.
func TestKernelDispatch(t *testing.T) {
	switch {
	case useAVX512:
		t.Log("kernel arm: avx512 (eight-lane a·b rows, axpys and activations; four-lane a·bᵀ blocks)")
	case useAVX2 && hasFMA:
		t.Log("kernel arm: avx2 (four-lane products and activations)")
	case useAVX2:
		t.Log("kernel arm: avx2 products, scalar activations (no FMA)")
	default:
		t.Log("kernel arm: go")
	}
	if useAVX512 && !(useAVX2 && hasFMA) {
		t.Fatal("useAVX512 set without AVX2 and FMA")
	}
}

// avx512Edges are the activation inputs where the eight-lane kernels' range
// checks and blends decide: signed zeros, subnormals, the sigmoid limit
// ±700, tanh's ±44 limit and its ±0.625 split, each with a neighbour past
// it, NaNs with several payloads and signs, and ±Inf.
var avx512Edges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308,
	700, -700, 700.5, -700.5, 44, -44, 44.5, -44.5,
	0.625, -0.625, math.Nextafter(0.625, 0), math.Nextafter(-0.625, 0),
	math.NaN(), math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF8000000000001),
	math.Float64frombits(0x7FF0000000000001), math.Inf(1), math.Inf(-1),
}

// TestAVX512KernelsMatchAVX2 calls every eight-lane entry point against its
// four-lane twin and the Go loop or math expression, bit for bit: the
// activations on edge inputs and at every slice length from 1 to 40 (the
// 8 → 4 → scalar hand-off), rowMulAVX512 on rows with zero and −0
// multipliers whose b rows hold NaN and ±Inf (which must stay skipped), and
// the eight-lane axpys.
func TestAVX512KernelsMatchAVX2(t *testing.T) {
	if !useAVX512 {
		t.Skip("CPU or OS without AVX-512F and ZMM state: only the AVX2 and Go arms run")
	}
	rng := rand.New(rand.NewSource(17))
	pick := func(edgeFrac, scale float64) float64 {
		if rng.Float64() < edgeFrac {
			return avx512Edges[rng.Intn(len(avx512Edges))]
		}
		return scale * rng.NormFloat64()
	}

	t.Run("activations", func(t *testing.T) {
		kernels := []struct {
			name       string
			slice      func(dst, src []float64)
			ref        func(float64) float64
			wide, four func(dst, src *float64, n int) int
			limit      float64
		}{
			{"sigmoid", Sigmoid64, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }, sigmoidAVX512, sigmoidAVX2, 700},
			{"tanh", Tanh64, math.Tanh, tanhAVX512, tanhAVX2, 44},
		}
		for _, k := range kernels {
			// The entry points alone: each must write exactly the in-range
			// groups before the first lane it declines, the eight-lane one
			// at a multiple of 8, the four-lane one at a multiple of 4.
			for rep := 0; rep < 2000; rep++ {
				src := make([]float64, 8*(1+rng.Intn(4)))
				for i := range src {
					src[i] = pick(0.04, 2)
				}
				first := len(src)
				for i, v := range src {
					if !(math.Abs(v) <= k.limit) {
						first = i
						break
					}
				}
				wide, four := make([]float64, len(src)), make([]float64, len(src))
				for i := range wide {
					wide[i], four[i] = 42, 42
				}
				nw := k.wide(&wide[0], &src[0], len(src))
				nf := k.four(&four[0], &src[0], len(src))
				if nw != first&^7 || nf != first&^3 {
					t.Fatalf("%s %v: eight-lane wrote %d, four-lane %d, want %d and %d", k.name, src, nw, nf, first&^7, first&^3)
				}
				for i, v := range src {
					want := k.ref(v)
					if i < nw && !sameBits(wide[i], want) {
						t.Fatalf("%s(%v) eight-lane = %v, want %v", k.name, v, wide[i], want)
					}
					if i < nf && !sameBits(four[i], want) {
						t.Fatalf("%s(%v) four-lane = %v, want %v", k.name, v, four[i], want)
					}
					if i >= nw && wide[i] != 42 {
						t.Fatalf("%s: eight-lane wrote element %d past its count %d", k.name, i, nw)
					}
				}
			}
			// The slice kernel on every arm and length.
			for n := 1; n <= 40; n++ {
				for rep := 0; rep < 20; rep++ {
					src := make([]float64, n)
					for i := range src {
						src[i] = pick(0.05, 3)
					}
					var out [3][]float64
					for a, arm := range kernelArms {
						out[a] = make([]float64, n)
						arm.wrap(func() { k.slice(out[a], src) })
					}
					for i, v := range src {
						want := k.ref(v)
						for a, arm := range kernelArms {
							if !sameBits(out[a][i], want) {
								t.Fatalf("%s arm=%s n=%d: element %d = %s(%v) = %v, want %v", k.name, arm.name, n, i, k.name, v, out[a][i], want)
							}
						}
					}
				}
			}
		}
	})

	t.Run("rowMul", func(t *testing.T) {
		for _, n := range []int{8, 12, 48, 96, 100} {
			for _, k := range []int{1, 6, 12, 24, 128} {
				for rep := 0; rep < 10; rep++ {
					const m = 3
					a := randDense[float64](rng, m, k)
					b := randDense[float64](rng, k, n)
					for q := range a.data {
						switch u := rng.Float64(); {
						case u < 0.2:
							a.data[q] = 0
						case u < 0.3:
							a.data[q] = math.Copysign(0, -1)
						case u < 0.33:
							a.data[q] = specials[2+rng.Intn(3)]
						}
					}
					// Under a zero multiplier of row 0 a b row holds NaN
					// and ±Inf, which a product would spread to the whole
					// output row: the skip must keep them out.
					for q := 0; q < k; q++ {
						if a.data[q] == 0 {
							row := b.Row(q)
							for j := range row {
								row[j] = specials[2+(j+q)%3]
							}
						}
					}
					base := randDense[float64](rng, m, n)
					fillKernelInput(rng, base, 0.3, 0.05)
					var out [3]*Matrix
					for i, arm := range kernelArms {
						out[i] = base.Clone()
						arm.wrap(func() { matMulRows64(out[i], a, b, 0, m) })
					}
					what := fmt.Sprintf("n=%d k=%d", n, k)
					assertSameBits(t, "rowMul dispatch vs go "+what, out[0], out[2])
					assertSameBits(t, "rowMul avx2 vs go "+what, out[1], out[2])
					// The entry point alone, on a row with spare columns
					// past n that it must not touch.
					o := append(append([]float64(nil), base.Row(0)...), 42, 43, 44)
					rowMulAVX512(&o[0], &a.data[0], &b.data[0], k, n)
					for j := range out[2].Row(0) {
						if !sameBits(o[j], out[2].At(0, j)) {
							t.Fatalf("rowMulAVX512 %s: column %d = %v, want %v", what, j, o[j], out[2].At(0, j))
						}
					}
					if o[n] != 42 || o[n+1] != 43 || o[n+2] != 44 {
						t.Fatalf("rowMulAVX512 %s wrote past column %d: %v", what, n, o[n:])
					}
				}
			}
		}
	})

	t.Run("axpy", func(t *testing.T) {
		row := func(n int) []float64 {
			m := randDense[float64](rng, 1, n)
			fillKernelInput(rng, m, 0.1, 0.05)
			return m.data
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("%s: element %d = %v, want %v", what, j, got[j], want[j])
				}
			}
			if got[len(want)] != 42 {
				t.Fatalf("%s: wrote past element %d", what, len(want))
			}
		}
		lengths := []int{48, 96, 100, 512}
		for n := 1; n <= 40; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for rep := 0; rep < 10; rep++ {
				o, b := row(n), row(4*n)
				a0, a1, a2, a3 := pick(0.2, 1), pick(0.2, 1), pick(0.2, 1), pick(0.2, 1)
				want := append([]float64(nil), o...)
				axpy4Go(want, b, a0, a1, a2, a3)
				four := append(append([]float64(nil), o...), 42)
				axpy4AVX2(&four[0], &b[0], n, a0, a1, a2, a3)
				wide := append(append([]float64(nil), o...), 42)
				axpy4AVX512(&wide[0], &b[0], n, a0, a1, a2, a3)
				same(fmt.Sprintf("axpy4AVX2 n=%d", n), four, want)
				same(fmt.Sprintf("axpy4AVX512 n=%d", n), wide, want)

				want = append(want[:0], o...)
				axpy1Go(want, b, a0)
				four = append(append(four[:0], o...), 42)
				axpy1AVX2(&four[0], &b[0], n, a0)
				wide = append(append(wide[:0], o...), 42)
				axpy1AVX512(&wide[0], &b[0], n, a0)
				same(fmt.Sprintf("axpy1AVX2 n=%d", n), four, want)
				same(fmt.Sprintf("axpy1AVX512 n=%d", n), wide, want)
			}
		}
	})
}
