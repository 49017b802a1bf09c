package mat

import "fmt"

// The elementwise halves of an LSTM step that are not activations: the
// gate pre-activation sum of the forward pass and the gate gradients of
// the backward pass, over a block of rows with gate layout [i|f|g|o]. On
// amd64 CPUs with AVX-512 (useAVX512) float64 blocks run the eight-lane
// kernels of lstm_amd64.s, which keep every operation of the Go loops
// below, in the same order and unfused, so both arms agree bit for bit;
// everywhere else, and for float32, the Go loops run.

// LSTMGateSum writes the gate pre-activations (z + zh) + b gate-major into
// gates: z (input) and zh (recurrent) are the row-major rows × 4·H
// products, b the 1 × 4·H bias (H = len(b)/4), and gates receives the four
// rows×H blocks i|f|g|o back to back, rows = len(gates)/len(b).
func LSTMGateSum[T Float](gates, z, zh, b []T) {
	H4 := len(b)
	if H4 == 0 {
		return
	}
	rows, H := len(gates)/H4, H4/4
	if g, ok := any(gates).([]float64); ok && gateSumWide(g, any(z).([]float64), any(zh).([]float64), any(b).([]float64), rows) {
		return
	}
	n := rows * H
	// The sum's operand order decides which NaN survives when two meet
	// (x86 keeps the first source's payload and sign, and gc makes the
	// left operand the first source).
	for r := 0; r < rows; r++ {
		zr, zhr := z[r*H4:][:H4], zh[r*H4:][:H4]
		for q := 0; q < 4; q++ {
			dst := gates[q*n+r*H:][:H]
			zq, zhq, bq := zr[q*H:][:H], zhr[q*H:][:H], b[q*H:][:H]
			for j := range dst {
				dst[j] = (zq[j] + zhq[j]) + bq[j]
			}
		}
	}
}

// LSTMStepGrad is the elementwise half of one LSTM step's backward pass
// over rows×H blocks. From the step's forward state, its gate activations
// (gates: the 4·rows × H gate-major blocks i|f|g|o), tanh(c) and the
// previous cell state cPrev, and from the gradients flowing into the step,
// the recurrent hidden-state gradient dhNext, the cell-state gradient
// dcNext and, unless up is nil, the upstream output gradient held in
// columns [upOff, upOff+H) of up, it writes the gate pre-activation
// gradients dz (rows × 4·H, row-major [i|f|g|o]) and the cell-state
// gradient dcPrev handed to the step before.
func LSTMStepGrad(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up *Matrix, upOff int) error {
	rows, H := dcPrev.rows, dcPrev.cols
	for _, m := range []*Matrix{tc, cPrev, dhNext, dcNext} {
		if m.rows != rows || m.cols != H {
			return fmt.Errorf("%w: LSTMStepGrad state %dx%d, want %dx%d", ErrShape, m.rows, m.cols, rows, H)
		}
	}
	if dz.rows != rows || dz.cols != 4*H || gates.rows != 4*rows || gates.cols != H {
		return fmt.Errorf("%w: LSTMStepGrad dz %dx%d, gates %dx%d for %dx%d states", ErrShape,
			dz.rows, dz.cols, gates.rows, gates.cols, rows, H)
	}
	var upd []float64
	ldu := 0
	if up != nil {
		if up.rows != rows || upOff < 0 || upOff+H > up.cols {
			return fmt.Errorf("%w: LSTMStepGrad upstream %dx%d at column %d, want %d rows and %d columns", ErrShape,
				up.rows, up.cols, upOff, rows, H)
		}
		upd, ldu = up.data[upOff:], up.cols
	}
	if rows == 0 || H == 0 {
		return nil
	}
	if !stepGradWide(dz.data, dcPrev.data, gates.data, tc.data, cPrev.data, dhNext.data, dcNext.data, upd, ldu, rows, H) {
		stepGradGo(dz.data, dcPrev.data, gates.data, tc.data, cPrev.data, dhNext.data, dcNext.data, upd, ldu, rows, H)
	}
	return nil
}

// stepGradGo is LSTMStepGrad's Go loop, one row at a time; up, when not
// nil, holds row r's upstream gradient at up[r·ldu:][:H].
func stepGradGo(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up []float64, ldu, rows, H int) {
	n := rows * H
	for i := 0; i < rows; i++ {
		row := func(s []float64) []float64 { return s[i*H:][:H] }
		dnr, dcr := row(dhNext), row(dcNext)
		var upr []float64
		if up != nil {
			upr = up[i*ldu:][:H]
		}
		ir, fr, gr, or := row(gates), row(gates[n:]), row(gates[2*n:]), row(gates[3*n:])
		tcr, cpr := row(tc), row(cPrev)
		dzr := dz[i*4*H:][:4*H]
		dcpr := row(dcPrev)
		for j := 0; j < H; j++ {
			dh := dnr[j]
			if upr != nil {
				dh = upr[j] + dnr[j]
			}
			// Total cell gradient: from h gate and from future cell.
			dc := dcr[j] + dh*or[j]*(1-tcr[j]*tcr[j])
			do := dh * tcr[j]
			di := dc * gr[j]
			df := dc * cpr[j]
			dg := dc * ir[j]
			// Pre-activation gradients.
			dzr[0*H+j] = di * ir[j] * (1 - ir[j])
			dzr[1*H+j] = df * fr[j] * (1 - fr[j])
			dzr[2*H+j] = dg * (1 - gr[j]*gr[j])
			dzr[3*H+j] = do * or[j] * (1 - or[j])
			dcpr[j] = dc * fr[j]
		}
	}
}
