package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// activationEdges are the inputs where the assembly's range checks and
// math's branches meet: tanh's 0.625 split and its ±44 limit, the sigmoid
// limit ±700, exp's overflow and underflow edges, the smallest subnormal
// and −0.
var activationEdges = []float64{
	0.625, -0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
	44, -44, math.Nextafter(44, 45), 700, -700, math.Nextafter(700, 701),
	708, -708, 709.8, -709.8, 5e-324, -5e-324, math.Copysign(0, -1),
}

// TestActivationKernelsMatchMath holds Sigmoid64 and Tanh64 to the scalar
// expressions as this toolchain's math package computes them, bit for bit,
// with the assembly on and off. A Go release that changes math.Exp or
// math.Tanh therefore fails here instead of silently moving trained
// weights.
func TestActivationKernelsMatchMath(t *testing.T) {
	sigmoid := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	kernels := []struct {
		name   string
		kernel func(dst, src []float64)
		ref    func(float64) float64
	}{{"sigmoid", Sigmoid64, sigmoid}, {"tanh", Tanh64, math.Tanh}}
	rng := rand.New(rand.NewSource(5))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33, 256, 512}
	scales := []float64{0.1, 0.5, 1, 3, 10, 30, 100, 800}
	for _, arm := range kernelArms {
		arm.wrap(func() {
			for _, k := range kernels {
				check := func(what string, src []float64) {
					t.Helper()
					dst := make([]float64, len(src)+1)
					dst[len(src)] = 42
					k.kernel(dst, src)
					for i, v := range src {
						if want := k.ref(v); !sameBits(dst[i], want) {
							t.Fatalf("%s arm=%s %s: %s(%v) = %v (%#x), want %v (%#x)", k.name, arm.name, what,
								k.name, v, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
						}
					}
					if dst[len(src)] != 42 {
						t.Fatalf("%s arm=%s %s: wrote past len(src)", k.name, arm.name, what)
					}
					// In place, as lstmCell's callers may run it.
					in := append([]float64(nil), src...)
					k.kernel(in, in)
					for i := range in {
						if !sameBits(in[i], dst[i]) {
							t.Fatalf("%s arm=%s %s in place: element %d = %v, want %v", k.name, arm.name, what, i, in[i], dst[i])
						}
					}
				}
				for _, n := range lengths {
					for _, scale := range scales {
						src := make([]float64, n)
						for i := range src {
							src[i] = scale * rng.NormFloat64()
						}
						check(fmt.Sprintf("n=%d scale=%v", n, scale), src)
						for i := range src {
							switch u := rng.Float64(); {
							case u < 0.05:
								src[i] = specials[rng.Intn(len(specials))]
							case u < 0.1:
								src[i] = activationEdges[rng.Intn(len(activationEdges))]
							}
						}
						check(fmt.Sprintf("n=%d scale=%v salted", n, scale), src)
					}
				}
				// A dense sweep: a rounding change deep in exp's polynomial
				// moves about one result in 3000.
				sweep := make([]float64, 1<<16)
				for i := range sweep {
					sweep[i] = 100*rng.Float64() - 50
				}
				check("sweep", sweep)
				edges := append(append([]float64(nil), specials...), activationEdges...)
				check("edges", edges)
				for _, v := range edges {
					check(fmt.Sprintf("group of %v", v), []float64{v, v, v, v, 0.3, -0.3, v, 1.5})
				}
			}
		})
	}
}

// activationShapes are the gate blocks the activations run over, as rows ×
// length: a 32-row block times 4·H for the 64- and 128-unit layers one row
// at a time, and one call over a whole gate of a 64-row tile, as
// LSTM.Forward's lstmCell makes on the input-gradient tiles (64·12 = 768
// and 64·24 = 1536 elements for the bench-scale layers).
var activationShapes = [][2]int{{32, 256}, {32, 512}, {1, 768}, {1, 1536}}

// BenchmarkActivations64 times Sigmoid64 and Tanh64 over those blocks, one
// call per row, on Gaussian pre-activations of unit scale. The dispatch arm
// runs what this host selects, the avx2 arm the four-lane assembly alone,
// and the go arm the scalar math expressions.
func BenchmarkActivations64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range activationShapes {
		rows, n := s[0], s[1]
		src, dst := RandNormal(rng, rows, n, 1), New(rows, n)
		for _, op := range []struct {
			name   string
			kernel func(dst, src []float64)
		}{{"sigmoid", Sigmoid64}, {"tanh", Tanh64}} {
			for _, arm := range kernelArms {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", op.name, rows, n, arm.name), func(b *testing.B) {
					b.ReportAllocs()
					arm.wrap(func() {
						for i := 0; i < b.N; i++ {
							for r := 0; r < rows; r++ {
								op.kernel(dst.Row(r), src.Row(r))
							}
						}
					})
				})
			}
		}
	}
}
