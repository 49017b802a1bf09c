//go:build !amd64

package mat

import "testing"

// goKernels runs f on the Go loops, the only kernels on this architecture.
func goKernels(f func()) { f() }

// avx2Kernels runs f on the Go loops too: there is no assembly to switch.
func avx2Kernels(f func()) { f() }

// TestKernelDispatch logs the arm this host runs: the Go loops alone.
func TestKernelDispatch(t *testing.T) { t.Log("kernel arm: go") }
