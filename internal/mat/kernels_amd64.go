package mat

// useAVX2 selects the four-lane assembly inner loops in kernels_amd64.s
// (and, with hasFMA, activations_amd64.s), and is the precondition of the
// eight-lane ones (useAVX512). It is set once, here, from CPUID: AVX2
// present, and the OS saving the YMM state (OSXSAVE set and XCR0 enabling
// the SSE and AVX state components). The Go loops stay the path on CPUs
// without AVX2 and the reference the tests hold the assembly to.
var useAVX2 = hasAVX2()

// useAVX512 selects the eight-lane arms: rowMulAVX512 for a × b, the
// eight-lane axpys and the eight-lane sigmoid and tanh; a × bᵀ stays on
// dotT4AVX2. It requires everything the four-lane arms do (useAVX2 and,
// for the activations, hasFMA), AVX-512F (CPUID leaf 7, EBX bit 16: every
// eight-lane instruction is in the foundation set, and masks move through
// KMOVW) and the OS saving the opmask and full ZMM state (XCR0 bits 5, 6
// and 7). It only ever moves work from a four-lane loop to an eight-lane
// one that computes the same bits.
var useAVX512 = useAVX2 && hasFMA && hasAVX512()

func hasAVX512() bool {
	const opmaskZMMState = 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&opmaskZMMState != opmaskZMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

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

//go:noescape
func axpy4AVX512(o, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX512(o, b *float64, n int, a float64)

//go:noescape
func rowMulAVX512(o, a, b *float64, k, n int)

// axpy4 applies the rank-4 row update o[j] = (((o[j] + a0·b0[j]) + a1·b1[j])
// + a2·b2[j]) + a3·b3[j], where b holds the four rows b0..b3 of len(o)
// each, back to back.
func axpy4(o, b []float64, a0, a1, a2, a3 float64) {
	switch n := len(o); {
	case useAVX512 && n >= 8:
		axpy4AVX512(&o[0], &b[:4*n][0], n, a0, a1, a2, a3)
		return
	case useAVX2 && n > 0:
		axpy4AVX2(&o[0], &b[:4*n][0], n, a0, a1, a2, a3)
		return
	}
	axpy4Go(o, b, a0, a1, a2, a3)
}

// axpy1 applies the rank-1 row update o[j] += a·b[j].
func axpy1(o, b []float64, a float64) {
	switch n := len(o); {
	case useAVX512 && n >= 8:
		axpy1AVX512(&o[0], &b[:n][0], n, a)
		return
	case useAVX2 && n > 0:
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

// matMulRowsWide computes rows [lo, hi) of out += a × b one whole row at a
// time in rowMulAVX512 and reports whether it did; it declines when the
// eight-lane arm is off. Each output row sees the same ascending-k,
// zero-skipping sequence of rounded products and sums as matMulRows64's Go
// and four-lane paths.
func matMulRowsWide(out, a, b *Matrix, lo, hi int) bool {
	k, n := a.cols, b.cols
	if !useAVX512 || k == 0 || n == 0 {
		return false
	}
	bd := b.data[:k*n]
	for i := lo; i < hi; i++ {
		rowMulAVX512(&out.data[i*n : (i+1)*n][0], &a.data[i*k : (i+1)*k][0], &bd[0], k, n)
	}
	return true
}
