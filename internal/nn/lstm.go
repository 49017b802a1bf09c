package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// LSTM is a single recurrent layer unrolled over a fixed number of steps.
//
// Inputs and outputs are flattened over time: the input is a
// (batch × steps·inputSize) matrix whose columns are grouped step-major
// ([x_1 | x_2 | … | x_T]); the output is (batch × steps·hidden) when
// ReturnSequences is set (for stacking) or (batch × hidden) holding the final
// hidden state otherwise.
//
// Gate layout inside the packed weight matrices is [i | f | g | o].
type LSTM struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *Param // inputSize × 4·hidden
	wh *Param // hidden × 4·hidden
	b  *Param // 1 × 4·hidden

	// ws is the training workspace: every per-step activation and backward
	// temporary, grow-only (see growScratch) so batches of any mix of sizes
	// reuse it without allocating. The concurrency-safe Model.Infer path
	// never touches it.
	ws lstmScratch
}

// lstmScratch holds the unrolled activations Backward consumes plus all
// backward temporaries. Forward points every view at its batch; Backward
// reads the forward views as Forward left them and sizes its own
// temporaries to the recorded batch.
type lstmScratch struct {
	// ready marks a completed forward pass of batch rows.
	ready bool
	batch int

	steps  []lstmStep
	z, zh  growScratch[float64] // pre-activation temporaries (batch × 4·hidden)
	h0, c0 growScratch[float64] // step-0 previous states; always zero, never written
	seqOut growScratch[float64] // stacked hidden states when returnSeqs

	// Backward temporaries.
	dz       growScratch[float64] // gate pre-activation grads (batch × 4·hidden)
	dhNext   growScratch[float64] // recurrent hidden-state grad
	dcA, dcB growScratch[float64] // cell-state grads (ping-pong)
	dxt      growScratch[float64] // per-step input grad
	gradX    growScratch[float64] // full input grad (batch × steps·inputSize)
}

// lstmStep is the forward state of one step: its input (batch × inputSize),
// gate activations (gate-major: the four batch × hidden blocks i|f|g|o of
// gates, which i, f, g and o view), cell state c_t, hidden state and
// tanh(c_t) (batch × hidden each).
type lstmStep struct {
	x, gates, c, h, tc growScratch[float64]
	i, f, g, o         mat.Matrix
}

var _ Layer = (*LSTM)(nil)

// NewLSTM constructs an LSTM layer. Forget-gate biases start at 1, the
// standard trick that keeps early training gradients alive.
func NewLSTM(rng *rand.Rand, inputSize, hidden, steps int, returnSeqs bool) *LSTM {
	l := &LSTM{
		inputSize:  inputSize,
		hidden:     hidden,
		steps:      steps,
		returnSeqs: returnSeqs,
		wx:         newParam("Wx", mat.GlorotUniform(rng, inputSize, 4*hidden, inputSize, hidden)),
		wh:         newParam("Wh", mat.RecurrentUniform(rng, hidden, 4*hidden)),
		b:          newParam("b", mat.New(1, 4*hidden)),
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate block
		l.b.W.Set(0, j, 1)
	}
	return l
}

// Name implements Layer.
func (l *LSTM) Name() string { return "lstm" }

// OutputSize implements Layer.
func (l *LSTM) OutputSize(inputSize int) (int, error) {
	if inputSize != l.steps*l.inputSize {
		return 0, fmt.Errorf("nn: lstm expects %d (=%d steps × %d features) inputs, got %d",
			l.steps*l.inputSize, l.steps, l.inputSize, inputSize)
	}
	if l.returnSeqs {
		return l.steps * l.hidden, nil
	}
	return l.hidden, nil
}

// Forward implements Layer: the unrolled recurrence, recording the per-step
// activations Backward consumes in the reusable workspace. The returned
// matrix is layer-owned scratch, valid until the next Forward on this layer.
func (l *LSTM) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm forward: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	ws := &l.ws
	ws.ready = false
	if ws.steps == nil {
		ws.steps = make([]lstmStep, l.steps)
	}
	H := l.hidden
	h, cell := ws.h0.get(batch, H), ws.c0.get(batch, H)
	z, zh := ws.z.get(batch, 4*H), ws.zh.get(batch, 4*H)
	var seqOut *mat.Matrix
	if l.returnSeqs {
		seqOut = ws.seqOut.get(batch, l.steps*H)
	}
	b := l.b.W.Data()
	for t := range ws.steps {
		st := &ws.steps[t]
		xt := st.x.get(batch, l.inputSize)
		if err := mat.SliceColsInto(xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm forward step %d: %w", t, err)
		}
		if err := mat.MatMulInto(z, xt, l.wx.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(zh, h, l.wh.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wh step %d: %w", t, err)
		}

		gates := st.gates.get(4*batch, H)
		ct, ht, tc := st.c.get(batch, H), st.h.get(batch, H), st.tc.get(batch, H)
		lstmCell(gates.Data(), z.Data(), zh.Data(), b, cell.Data(), ct.Data(), tc.Data(), ht.Data())
		for q, v := range [4]*mat.Matrix{&st.i, &st.f, &st.g, &st.o} {
			_ = gates.RowsViewInto(v, q*batch, (q+1)*batch) // within 4·batch rows
		}
		cell, h = ct, ht

		if l.returnSeqs {
			if err := seqOut.SetCols(t*H, h); err != nil {
				return nil, err
			}
		}
	}
	ws.ready, ws.batch = true, batch
	if l.returnSeqs {
		return seqOut, nil
	}
	return h, nil
}

// Replicate implements Layer: shared weights, private workspace and
// gradients.
func (l *LSTM) Replicate() Layer {
	return &LSTM{
		inputSize:  l.inputSize,
		hidden:     l.hidden,
		steps:      l.steps,
		returnSeqs: l.returnSeqs,
		wx:         shareParam(l.wx),
		wh:         shareParam(l.wh),
		b:          shareParam(l.b),
	}
}

// lstmCell is the elementwise half of one LSTM step over a block of rows,
// with gate layout [i|f|g|o] in the row-major pre-activation products z
// (input) and zh (recurrent), rows × 4·H each, and b the 1 × 4·H bias. It
// writes the pre-activations (z + zh) + b gate-major into gates, as the
// four rows×H blocks i|f|g|o, and activates them in place: one sigmoid
// over i‖f, one tanh over g and one sigmoid over o, each a single call
// over every row, long enough for mat's eight-lane kernels to pay. Then,
// over the rows×H block, c = f⊙cPrev + i⊙g, tc = tanh(c) and h = o⊙tc.
// Forward runs it over the whole batch and keeps gates, c, tc and h for
// Backward; the frozen stack runs it lstmCellRows rows at a time, with c
// aliasing cPrev and tc aliasing h. Both run this one function, so they
// agree bit for bit — down to which NaN a non-finite input turns into —
// and every element is computed exactly as a row at a time would compute
// it.
func lstmCell[T mat.Float](gates, z, zh, b, cPrev, c, tc, h []T) {
	H4, n := len(b), len(c)
	H := H4 / 4
	gates = gates[:4*n]
	// The sum's operand order decides which NaN survives when two meet
	// (x86 keeps the first source's payload and sign, and gc makes the
	// left operand the first source), and so do the products' below.
	for r := 0; r*H < n; r++ {
		zr, zhr := z[r*H4:][:H4], zh[r*H4:][:H4]
		for q := 0; q < 4; q++ {
			dst := gates[q*n+r*H:][:H]
			zq, zhq, bq := zr[q*H:][:H], zhr[q*H:][:H], b[q*H:][:H]
			for j := range dst {
				dst[j] = (zq[j] + zhq[j]) + bq[j]
			}
		}
	}
	sigmoidSlice(gates[:2*n], gates[:2*n])
	tanhSlice(gates[2*n:3*n], gates[2*n:3*n])
	sigmoidSlice(gates[3*n:], gates[3*n:])
	ig, fg, gg, og := gates[:n], gates[n:2*n], gates[2*n:3*n], gates[3*n:]
	cPrev, fg, gg, ig = cPrev[:n], fg[:n], gg[:n], ig[:n]
	tc, og, h = tc[:n], og[:n], h[:n]
	for j := range c {
		c[j] = cPrev[j]*fg[j] + gg[j]*ig[j]
	}
	tanhSlice(tc, c)
	for j := range h {
		h[j] = tc[j] * og[j]
	}
}

// sigmoidSlice and tanhSlice set dst[j] = sigmoidT(src[j]) and
// tanhT(src[j]). At float64 they run mat's slice kernels, which return the
// same bits eight or four lanes at a time; float32 stays on the scalar
// functions.
func sigmoidSlice[T mat.Float](dst, src []T) {
	if d, ok := any(dst).([]float64); ok {
		mat.Sigmoid64(d, any(src).([]float64))
		return
	}
	for j, v := range src {
		dst[j] = sigmoidT(v)
	}
}

func tanhSlice[T mat.Float](dst, src []T) {
	if d, ok := any(dst).([]float64); ok {
		mat.Tanh64(d, any(src).([]float64))
		return
	}
	for j, v := range src {
		dst[j] = tanhT(v)
	}
}

// Backward implements Layer. The returned gradient is layer-owned scratch,
// valid until the next Forward/Backward on this layer.
func (l *LSTM) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	return l.backward(gradOut, true, true)
}

// backward runs backpropagation through time. It returns the input
// gradient when inputGrad is set, else nil, and accumulates the parameter
// gradients when params is set (see partialBackwarder).
func (l *LSTM) backward(gradOut *mat.Matrix, inputGrad, params bool) (*mat.Matrix, error) {
	ws := &l.ws
	if !ws.ready {
		return nil, ErrNotReady
	}
	H, batch := l.hidden, ws.batch

	wantCols := H
	if l.returnSeqs {
		wantCols = l.steps * H
	}
	if gradOut.Rows() != batch || gradOut.Cols() != wantCols {
		return nil, fmt.Errorf("nn: lstm backward: grad %dx%d, want %dx%d",
			gradOut.Rows(), gradOut.Cols(), batch, wantCols)
	}

	dhNext := ws.dhNext.get(batch, H)
	dcNext, dcPrev := ws.dcA.get(batch, H), ws.dcB.get(batch, H)
	dhNext.Zero()
	dcNext.Zero()
	dz := ws.dz.get(batch, 4*H)
	var dxt, gradX *mat.Matrix
	if inputGrad {
		dxt, gradX = ws.dxt.get(batch, l.inputSize), ws.gradX.get(batch, l.steps*l.inputSize)
	}

	for t := l.steps - 1; t >= 0; t-- {
		// dh = upstream output grad at step t (if any) + recurrent grad:
		// the return-sequences layer takes its step-t column block, the
		// last-step layer all of gradOut at the final step only.
		upOff := -1
		if l.returnSeqs {
			upOff = t * H
		} else if t == l.steps-1 {
			upOff = 0
		}

		// The forward views of step t and of the states it started from.
		st := &ws.steps[t]
		cPrev, hPrev := &ws.c0.view, &ws.h0.view
		if t > 0 {
			cPrev, hPrev = &ws.steps[t-1].c.view, &ws.steps[t-1].h.view
		}

		for i := 0; i < batch; i++ {
			dnr, dcr := dhNext.Row(i), dcNext.Row(i)
			var upr []float64
			if upOff >= 0 {
				upr = gradOut.Row(i)[upOff : upOff+H]
			}
			ir, fr, gr, or := st.i.Row(i), st.f.Row(i), st.g.Row(i), st.o.Row(i)
			tcr, cpr := st.tc.view.Row(i), cPrev.Row(i)
			dzr := dz.Row(i)
			dcpr := dcPrev.Row(i)
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

		// Parameter gradients, accumulated straight into the shared buffers.
		// The bias gradient sums dz's rows in row order, as a per-element
		// sum in the loop above would.
		if params {
			if err := mat.TMatMulAddInto(l.wx.G, &st.x.view, dz); err != nil {
				return nil, err
			}
			if err := mat.TMatMulAddInto(l.wh.G, hPrev, dz); err != nil {
				return nil, err
			}
			if err := mat.AddSumRows(l.b.G, dz); err != nil {
				return nil, err
			}
		}

		// Input and recurrent gradients.
		if inputGrad {
			if err := mat.MatMulTInto(dxt, dz, l.wx.W); err != nil {
				return nil, err
			}
			if err := gradX.SetCols(t*l.inputSize, dxt); err != nil {
				return nil, err
			}
		}
		// The recurrent gradient feeds step t−1 only; at t = 0 nothing
		// reads it.
		if t > 0 {
			if err := mat.MatMulTInto(dhNext, dz, l.wh.W); err != nil {
				return nil, err
			}
		}
		dcNext, dcPrev = dcPrev, dcNext
	}
	return gradX, nil
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
