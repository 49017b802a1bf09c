package mat

import "math"

// The elementwise transcendental activations of the LSTM step, over float64
// slices. Each element gets exactly the bits of the scalar expression in the
// doc comment, as the running toolchain's math package computes it: on amd64
// CPUs with AVX2 and FMA, the assembly of activations_amd64.s evaluates
// eight lanes at a time where the CPU has AVX-512 and four lanes at a time
// otherwise, with math.Exp's own instruction sequence (the one math picks
// on such a CPU); everywhere else, and for any four-element group the
// assembly declines (an input outside its range, NaN included), the scalar
// expression itself runs. The eight-lane arm hands an eight-element group
// it declines to the four-lane arm, so the scalar expression runs for
// exactly the same groups on either CPU.

// Sigmoid64 sets dst[i] = 1/(1+math.Exp(-src[i])) for every i in src. dst
// must be at least as long as src; dst and src may be the same slice.
func Sigmoid64(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		i += sigmoidVec(dst[i:], src[i:])
		// The four-element group at i, if any, is one the assembly
		// declined, or the tail of fewer than four elements.
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = 1 / (1 + math.Exp(-src[i]))
		}
	}
}

// Tanh64 sets dst[i] = math.Tanh(src[i]) for every i in src. dst must be at
// least as long as src; dst and src may be the same slice.
func Tanh64(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		i += tanhVec(dst[i:], src[i:])
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = math.Tanh(src[i])
		}
	}
}
