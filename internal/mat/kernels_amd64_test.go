package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

// withAVX2 runs f with the assembly inner loops switched on or off, so an
// AVX2 host still covers the Go path that every other host runs.
func withAVX2(on bool, f func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = on
	f()
}

// goKernels runs f on the Go loops.
func goKernels(f func()) { withAVX2(false, f) }

// TestGoKernelsBitIdenticalToNaive runs the naive-reference test with the
// assembly switched off: the Go loops are the reference and the fallback,
// and on an AVX2 host nothing else would exercise them.
func TestGoKernelsBitIdenticalToNaive(t *testing.T) {
	withAVX2(false, func() {
		t.Run("f64", testTiledKernels[float64])
	})
}

// TestAVX2KernelsMatchGo calls the assembly entry points and their Go
// loops directly against each other, bit for bit, then the three products
// with the assembly on and off.
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
		withAVX2(false, func() { goOut = products() })
		withAVX2(true, func() { asmOut = products() })
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
