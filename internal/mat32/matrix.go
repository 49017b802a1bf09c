// Package mat32 is a shim: the float32 matrix is mat.Dense[float32], and
// its kernels live in internal/mat beside the float64 ones. The end-to-end
// benchmark still compiles against New, so this file survives until the
// next change that may edit the benchmark deletes it.
package mat32

import "repro/internal/mat"

// Matrix is the float32 matrix of the frozen-inference path.
type Matrix = mat.Dense[float32]

// New returns a zeroed rows×cols float32 matrix.
func New(rows, cols int) *Matrix { return mat.NewDense[float32](rows, cols) }
