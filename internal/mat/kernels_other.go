//go:build !amd64

package mat

// On architectures without the assembly kernels every product runs the Go
// loops in kernels.go, every activation the scalar math expression in
// activations.go, and the LSTM step kernels the Go loops in lstm.go.

func axpy4(o, b []float64, a0, a1, a2, a3 float64) { axpy4Go(o, b, a0, a1, a2, a3) }

func axpy1(o, b []float64, a float64) { axpy1Go(o, b, a) }

func matMulTBlocks(out, a, b *Matrix, lo, hi int) bool { return false }

func matMulRowsWide(out, a, b *Matrix, lo, hi int) bool { return false }

func sigmoidVec(dst, src []float64) int { return 0 }

func tanhVec(dst, src []float64) int { return 0 }

func tMatMulWide(out, a, b *Matrix) bool { return false }

func gateSumWide(gates, z, zh, b []float64, rows int) bool { return false }

func stepGradWide(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up []float64, ldu, rows, H int) bool {
	return false
}
