package mat

// Cache-blocked/tiled float64 inner kernels for the three matrix products
// (the float32 set is in kernels32.go). Every kernel preserves the exact
// floating-point semantics of the naive loops it replaced: for each output
// element the contributions are added in the same order (ascending k), Go
// never reassociates floating-point expressions, and the zero-skip of the
// scalar paths (which matters for ReLU-sparse activations) is preserved by
// falling back to the scalar loop whenever a tile contains a zero
// multiplier. Results are therefore byte-identical to
// the pre-tiling kernels at any blocking and any worker count — the
// determinism contract the parallel row-block dispatch and the training
// pipeline rely on.
//
// The row updates axpy4 and axpy1 and the 4×4 blocks of matMulTBlocks run
// AVX2 assembly on amd64 CPUs that have it (kernels_amd64.go), and the Go
// loops below everywhere else. On CPUs with AVX-512 the axpys run eight
// lanes wide, and a × b and aᵀ × b run whole output rows in rowMulAVX512
// (matMulRowsWide, tMatMulWide), which does its zero checks itself; elsewhere the zero
// checks stay here in Go, shared by the Go and AVX2 paths. The assembly
// vectorizes across output columns only: each lane does one multiply, then
// one add, per k, in ascending k, exactly like the Go loop, so every arm
// agrees bit for bit.

// matMulRows64 computes rows [lo, hi) of out = a × b: whole rows in
// registers where matMulRowsWide takes the product, else with an ikj loop
// order, unrolling k by 4: each pass streams four b rows against one output
// row, so the output row is loaded and stored once per four rank-1 updates
// instead of once per update. out must be zeroed (or hold the accumulation
// base).
func matMulRows64(out, a, b *Matrix, lo, hi int) {
	if matMulRowsWide(out, a, b, lo, hi) {
		return
	}
	ac, bc := a.cols, b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := out.data[i*bc : (i+1)*bc]
		k := 0
		for ; k+4 <= ac; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(orow, b.data[k*bc:(k+4)*bc], a0, a1, a2, a3)
				continue
			}
			// A zero multiplier in the tile: take the scalar path so zero
			// rows are skipped outright, exactly like the untiled kernel.
			matMulScalarK(orow, arow, b, k, k+4)
		}
		matMulScalarK(orow, arow, b, k, ac)
	}
}

// matMulScalarK applies rank-1 updates orow += arow[k]·b[k,:] for k in
// [from, to), skipping zero multipliers.
func matMulScalarK(orow, arow []float64, b *Matrix, from, to int) {
	bc := b.cols
	for k := from; k < to; k++ {
		if av := arow[k]; av != 0 {
			axpy1(orow, b.data[k*bc:(k+1)*bc], av)
		}
	}
}

// axpy4Go is the Go rank-4 row update behind axpy4: b holds four rows of
// len(o) back to back.
func axpy4Go(o, b []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	for j := range o {
		// Four SEQUENTIAL adds into a local (not a fused four-term sum):
		// each add rounds exactly like one iteration of the scalar k-loop,
		// which is what keeps the tile bit-identical to the untiled kernel.
		v := o[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		o[j] = v
	}
}

// axpy1Go is the Go rank-1 row update behind axpy1: o[j] += a·b[j].
func axpy1Go(o, b []float64, a float64) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += a * bv
	}
}

// matMulTRows64 computes rows [lo, hi) of out = a × bᵀ: in 4×4 blocks
// where matMulTBlocks takes the product, else row by row, unrolling the
// output column (b row) axis by 4: one streaming pass over the a row feeds
// four independent dot-product accumulators, quartering the a-row traffic.
func matMulTRows64(out, a, b *Matrix, lo, hi int) {
	if matMulTBlocks(out, a, b, lo, hi) {
		return
	}
	ac, bc, bn := a.cols, b.cols, b.rows
	for i := lo; i < hi; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		j := 0
		for ; j+4 <= bn; j += 4 {
			b0 := b.data[j*bc : (j+1)*bc]
			b1 := b.data[(j+1)*bc : (j+2)*bc]
			b2 := b.data[(j+2)*bc : (j+3)*bc]
			b3 := b.data[(j+3)*bc : (j+4)*bc]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < bn; j++ {
			brow := b.data[j*bc : (j+1)*bc]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
}

// tMatMulAccum accumulates out += aᵀ × b, unrolling k (the shared row axis)
// by 4 so each output row is loaded and stored once per four row-pair
// contributions. out is NOT zeroed: callers accumulate into gradient
// buffers directly (the trainer's per-block buffers start zeroed, which
// keeps the sum bitwise identical to materializing the product first).
// Where tMatMulWide takes the product, whole output rows stay in registers
// across all k.
func tMatMulAccum(out, a, b *Matrix) {
	if tMatMulWide(out, a, b) {
		return
	}
	ac, bc := a.cols, b.cols
	k := 0
	for ; k+4 <= a.rows; k += 4 {
		a0r := a.data[k*ac : (k+1)*ac]
		a1r := a.data[(k+1)*ac : (k+2)*ac]
		a2r := a.data[(k+2)*ac : (k+3)*ac]
		a3r := a.data[(k+3)*ac : (k+4)*ac]
		b4 := b.data[k*bc : (k+4)*bc]
		for i := 0; i < ac; i++ {
			a0, a1, a2, a3 := a0r[i], a1r[i], a2r[i], a3r[i]
			orow := out.data[i*bc : (i+1)*bc]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(orow, b4, a0, a1, a2, a3)
				continue
			}
			// A zero in the tile: per-contribution rank-1 updates keep the
			// zero-skip semantics of the untiled kernel.
			for r, av := range [4]float64{a0, a1, a2, a3} {
				if av != 0 {
					axpy1(orow, b4[r*bc:(r+1)*bc], av)
				}
			}
		}
	}
	for ; k < a.rows; k++ {
		arow := a.data[k*ac : (k+1)*ac]
		brow := b.data[k*bc : (k+1)*bc]
		for i, av := range arow {
			if av != 0 {
				axpy1(out.data[i*bc:(i+1)*bc], brow, av)
			}
		}
	}
}
