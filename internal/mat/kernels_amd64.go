package mat

// useAVX2 selects the assembly inner loops in kernels_amd64.s. It is set
// once, here, from CPUID: AVX2 present, and the OS saving the YMM state
// (OSXSAVE set and XCR0 enabling the SSE and AVX state components). The Go
// loops stay the path on CPUs without AVX2 and the reference the tests hold
// the assembly to.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv0()&xmmYMMState != xmmYMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func axpy4AVX2(o, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX2(o, b *float64, n int, a float64)

//go:noescape
func dotT4AVX2(o *float64, ldo int, a, b *float64, k, nb int)

// axpy4 applies the rank-4 row update o[j] = (((o[j] + a0·b0[j]) + a1·b1[j])
// + a2·b2[j]) + a3·b3[j], where b holds the four rows b0..b3 of len(o)
// each, back to back.
func axpy4(o, b []float64, a0, a1, a2, a3 float64) {
	if n := len(o); useAVX2 && n > 0 {
		axpy4AVX2(&o[0], &b[:4*n][0], n, a0, a1, a2, a3)
		return
	}
	axpy4Go(o, b, a0, a1, a2, a3)
}

// axpy1 applies the rank-1 row update o[j] += a·b[j].
func axpy1(o, b []float64, a float64) {
	if n := len(o); useAVX2 && n > 0 {
		axpy1AVX2(&o[0], &b[:n][0], n, a)
		return
	}
	axpy1Go(o, b, a)
}

// matMulTBlocks computes rows [lo, hi) of out = a × bᵀ in 4×4 assembly
// blocks and reports whether it did; it declines when the assembly is off
// or either extent is below 4. Row and column counts that are not a
// multiple of 4 end in one more block that overlaps the previous one: every
// output element is its own ascending-k sum from +0, so computing a column
// or row twice writes the same bits twice.
func matMulTBlocks(out, a, b *Matrix, lo, hi int) bool {
	k, bn, oc := a.cols, b.rows, out.cols
	if !useAVX2 || bn < 4 || hi-lo < 4 || k == 0 {
		return false
	}
	bd := b.data[:bn*k]
	nb := bn / 4
	for i := lo; i < hi; i += 4 {
		if i+4 > hi {
			i = hi - 4
		}
		ablk := a.data[i*k : (i+4)*k]
		oblk := out.data[i*oc : (i+3)*oc+bn]
		dotT4AVX2(&oblk[0], oc, &ablk[0], &bd[0], k, nb)
		if bn%4 != 0 {
			dotT4AVX2(&oblk[bn-4], oc, &ablk[0], &bd[(bn-4)*k], k, 1)
		}
	}
	return true
}
