//go:build !amd64

package mat

// On architectures without the assembly kernels every product runs the Go
// loops in kernels.go, and every activation the scalar math expression in
// activations.go.

func axpy4(o, b []float64, a0, a1, a2, a3 float64) { axpy4Go(o, b, a0, a1, a2, a3) }

func axpy1(o, b []float64, a float64) { axpy1Go(o, b, a) }

func matMulTBlocks(out, a, b *Matrix, lo, hi int) bool { return false }

func matMulRowsWide(out, a, b *Matrix, lo, hi int) bool { return false }

func sigmoidVec(dst, src []float64) int { return 0 }

func tanhVec(dst, src []float64) int { return 0 }
