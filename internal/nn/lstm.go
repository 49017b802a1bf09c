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
	// temporary, allocated once per batch size and reused across batches
	// (the per-model workspace that kills the per-batch allocations). wss
	// retains one workspace per recent batch size so an epoch alternating
	// between full and short final blocks doesn't rebuild the whole set on
	// every flip. The concurrency-safe Model.Infer path never touches them.
	ws  *lstmScratch
	wss []*lstmScratch
	// cache marks the workspace as holding a recorded forward pass.
	cache *lstmScratch
}

// lstmScratch holds the unrolled activations Backward consumes plus all
// backward temporaries, sized for one batch shape.
type lstmScratch struct {
	batch int

	// Forward state, per step.
	xs  []*mat.Matrix // inputs (batch × inputSize)
	is  []*mat.Matrix // gate activations (batch × hidden) each
	fs  []*mat.Matrix
	gs  []*mat.Matrix
	os  []*mat.Matrix
	cs  []*mat.Matrix // cell states, cs[t] is c_t (t from 0)
	hs  []*mat.Matrix // hidden states
	tcs []*mat.Matrix // tanh(c_t)

	z, zh  *mat.Matrix // pre-activation temporaries (batch × 4·hidden)
	h0, c0 *mat.Matrix // step-0 previous states; always zero, never written
	seqOut *mat.Matrix // stacked hidden states when returnSeqs

	// Backward temporaries.
	dz       *mat.Matrix // gate pre-activation grads (batch × 4·hidden)
	dhNext   *mat.Matrix // recurrent hidden-state grad
	dcA, dcB *mat.Matrix // cell-state grads (ping-pong)
	dxt      *mat.Matrix // per-step input grad
	gradX    *mat.Matrix // full input grad (batch × steps·inputSize)
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

// newLSTMZero builds an LSTM layer with zero-valued parameters (no forget-
// gate bias either), for callers that overwrite every weight immediately
// (deserialization). Unlike NewLSTM it draws no random numbers.
func newLSTMZero(inputSize, hidden, steps int, returnSeqs bool) *LSTM {
	return &LSTM{
		inputSize:  inputSize,
		hidden:     hidden,
		steps:      steps,
		returnSeqs: returnSeqs,
		wx:         newParam("Wx", mat.New(inputSize, 4*hidden)),
		wh:         newParam("Wh", mat.New(hidden, 4*hidden)),
		b:          newParam("b", mat.New(1, 4*hidden)),
	}
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

func newLSTMScratch(l *LSTM, batch int) *lstmScratch {
	H, T := l.hidden, l.steps
	perStep := func(cols int) []*mat.Matrix {
		ms := make([]*mat.Matrix, T)
		for t := range ms {
			ms[t] = mat.New(batch, cols)
		}
		return ms
	}
	ws := &lstmScratch{
		batch:  batch,
		xs:     perStep(l.inputSize),
		is:     perStep(H),
		fs:     perStep(H),
		gs:     perStep(H),
		os:     perStep(H),
		cs:     perStep(H),
		hs:     perStep(H),
		tcs:    perStep(H),
		z:      mat.New(batch, 4*H),
		zh:     mat.New(batch, 4*H),
		h0:     mat.New(batch, H),
		c0:     mat.New(batch, H),
		dz:     mat.New(batch, 4*H),
		dhNext: mat.New(batch, H),
		dcA:    mat.New(batch, H),
		dcB:    mat.New(batch, H),
		dxt:    mat.New(batch, l.inputSize),
		gradX:  mat.New(batch, T*l.inputSize),
	}
	if l.returnSeqs {
		ws.seqOut = mat.New(batch, T*H)
	}
	return ws
}

// scratchFor returns the retained workspace for batch, building (and
// retaining, evicting the oldest beyond scratchShapes) on a miss.
func (l *LSTM) scratchFor(batch int) *lstmScratch {
	for _, ws := range l.wss {
		if ws.batch == batch {
			return ws
		}
	}
	ws := newLSTMScratch(l, batch)
	if len(l.wss) >= scratchShapes {
		copy(l.wss, l.wss[1:])
		l.wss[len(l.wss)-1] = ws
	} else {
		l.wss = append(l.wss, ws)
	}
	return ws
}

// Forward implements Layer: the unrolled recurrence, recording the per-step
// activations Backward consumes in the reusable workspace. The returned
// matrix is layer-owned scratch, valid until the next Forward on this layer.
func (l *LSTM) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm forward: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	ws := l.ws
	if ws == nil || ws.batch != batch {
		ws = l.scratchFor(batch)
		l.ws = ws
	}
	H := l.hidden
	h, cell := ws.h0, ws.c0
	for t := 0; t < l.steps; t++ {
		xt := ws.xs[t]
		if err := mat.SliceColsInto(xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm forward step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.z, xt, l.wx.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.zh, h, l.wh.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wh step %d: %w", t, err)
		}

		for i := 0; i < batch; i++ {
			addPreact(ws.z.Row(i), ws.zh.Row(i), l.b.W.Data())
			lstmCell(ws.z.Row(i), cell.Row(i), ws.cs[t].Row(i), ws.hs[t].Row(i),
				ws.is[t].Row(i), ws.fs[t].Row(i), ws.gs[t].Row(i), ws.os[t].Row(i), ws.tcs[t].Row(i))
		}
		cell, h = ws.cs[t], ws.hs[t]

		if l.returnSeqs {
			if err := ws.seqOut.SetCols(t*H, h); err != nil {
				return nil, err
			}
		}
	}
	l.cache = ws
	if l.returnSeqs {
		return ws.seqOut, nil
	}
	return ws.hs[l.steps-1], nil
}

// CloneLayer implements Layer.
func (l *LSTM) CloneLayer() Layer {
	return &LSTM{
		inputSize:  l.inputSize,
		hidden:     l.hidden,
		steps:      l.steps,
		returnSeqs: l.returnSeqs,
		wx:         cloneParam(l.wx),
		wh:         cloneParam(l.wh),
		b:          cloneParam(l.b),
	}
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

// addPreact completes one row of a step's gate pre-activations, z = (z +
// zh) + b: the input product plus the recurrent product plus the bias, in
// that operand order (it decides which NaN survives, see lstmCell). Forward
// and the frozen stack both call it just before lstmCell.
func addPreact[T mat.Float](z, zh, b []T) {
	zh, b = zh[:len(z)], b[:len(z)]
	for j := range z {
		z[j] = (z[j] + zh[j]) + b[j]
	}
}

// lstmCell is the elementwise half of one LSTM step for one batch row, with
// gate layout [i|f|g|o] in the pre-activations z: c = f⊙cPrev + i⊙g and
// h = o⊙tanh(c). The gate activations and tanh(c) land in ig, fg, gg, og
// and tc: Forward keeps them for Backward, the frozen stack passes one
// reused scratch row. c may alias cPrev. Forward and the frozen stack both
// run this one function, so they agree bit for bit — down to which NaN a
// non-finite input turns into.
func lstmCell[T mat.Float](z, cPrev, c, h, ig, fg, gg, og, tc []T) {
	H := len(c)
	sigmoidSlice(ig, z[:H])
	sigmoidSlice(fg, z[H:2*H])
	tanhSlice(gg, z[2*H:3*H])
	sigmoidSlice(og, z[3*H:4*H])
	// Operand order decides which NaN survives when two meet (x86 keeps
	// the first source's payload and sign, and gc makes the left operand
	// the first source), so reordering these products changes the NaNs a
	// non-finite input produces.
	for j := range c {
		c[j] = cPrev[j]*fg[j] + gg[j]*ig[j]
	}
	tanhSlice(tc, c)
	for j := range c {
		h[j] = tc[j] * og[j]
	}
}

// sigmoidSlice and tanhSlice set dst[j] = sigmoidT(src[j]) and
// tanhT(src[j]). At float64 they run mat's slice kernels, which return the
// same bits four lanes at a time; float32 stays on the scalar functions.
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
	return l.backward(gradOut, true)
}

// backwardParams accumulates the parameter gradients of Backward without
// the per-step input gradients (see paramBackwarder).
func (l *LSTM) backwardParams(gradOut *mat.Matrix) error {
	_, err := l.backward(gradOut, false)
	return err
}

// backward runs backpropagation through time. It returns the input
// gradient when inputGrad is set, else nil.
func (l *LSTM) backward(gradOut *mat.Matrix, inputGrad bool) (*mat.Matrix, error) {
	ws := l.cache
	if ws == nil {
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

	dhNext := ws.dhNext
	dcNext, dcPrev := ws.dcA, ws.dcB
	dhNext.Zero()
	dcNext.Zero()
	dz := ws.dz
	bg := l.b.G.Data()

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

		cPrev := ws.c0
		if t > 0 {
			cPrev = ws.cs[t-1]
		}

		for i := 0; i < batch; i++ {
			dnr, dcr := dhNext.Row(i), dcNext.Row(i)
			var upr []float64
			if upOff >= 0 {
				upr = gradOut.Row(i)[upOff : upOff+H]
			}
			ir, fr, gr, or := ws.is[t].Row(i), ws.fs[t].Row(i), ws.gs[t].Row(i), ws.os[t].Row(i)
			tcr, cpr := ws.tcs[t].Row(i), cPrev.Row(i)
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
				// Pre-activation gradients, each also summed into the bias
				// gradient row by row in row order.
				dzr[0*H+j] = di * ir[j] * (1 - ir[j])
				dzr[1*H+j] = df * fr[j] * (1 - fr[j])
				dzr[2*H+j] = dg * (1 - gr[j]*gr[j])
				dzr[3*H+j] = do * or[j] * (1 - or[j])
				bg[0*H+j] += dzr[0*H+j]
				bg[1*H+j] += dzr[1*H+j]
				bg[2*H+j] += dzr[2*H+j]
				bg[3*H+j] += dzr[3*H+j]
				dcpr[j] = dc * fr[j]
			}
		}

		// Parameter gradients, accumulated straight into the shared buffers.
		if err := mat.TMatMulAddInto(l.wx.G, ws.xs[t], dz); err != nil {
			return nil, err
		}
		hPrev := ws.h0
		if t > 0 {
			hPrev = ws.hs[t-1]
		}
		if err := mat.TMatMulAddInto(l.wh.G, hPrev, dz); err != nil {
			return nil, err
		}

		// Input and recurrent gradients.
		if inputGrad {
			if err := mat.MatMulTInto(ws.dxt, dz, l.wx.W); err != nil {
				return nil, err
			}
			if err := ws.gradX.SetCols(t*l.inputSize, ws.dxt); err != nil {
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
	if !inputGrad {
		return nil, nil
	}
	return ws.gradX, nil
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
