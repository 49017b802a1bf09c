//go:build !amd64

package mat

// goKernels runs f on the Go loops, the only kernels on this architecture.
func goKernels(f func()) { f() }
