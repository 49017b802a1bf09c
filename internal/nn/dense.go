package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Dense is a fully-connected layer: y = x·W + b.
type Dense struct {
	in, out int
	w       *Param // in×out
	b       *Param // 1×out

	lastInput *mat.Matrix // cached for backward

	// Training-path scratch, grow-only (see growScratch) so an epoch that
	// alternates full and short final blocks allocates nothing. The
	// concurrency-safe Model.Infer path never touches these.
	y   *mat.Matrix // forward output (current batch)
	gx  *mat.Matrix // backward input-gradient (current batch)
	ys  growScratch[float64]
	gxs growScratch[float64]
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a Dense layer with Glorot-uniform weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		in:  in,
		out: out,
		w:   newParam("W", mat.GlorotUniform(rng, in, out, in, out)),
		b:   newParam("b", mat.New(1, out)),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

// OutputSize implements Layer.
func (d *Dense) OutputSize(inputSize int) (int, error) {
	if inputSize != d.in {
		return 0, fmt.Errorf("nn: dense expects %d inputs, got %d", d.in, inputSize)
	}
	return d.out, nil
}

// Forward implements Layer. The returned matrix is layer-owned scratch,
// valid until the next Forward on this layer.
func (d *Dense) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != d.in {
		return nil, fmt.Errorf("nn: dense forward: %d input cols, want %d", x.Cols(), d.in)
	}
	d.lastInput = x
	d.y = d.ys.get(x.Rows(), d.out)
	d.gx = d.gxs.get(x.Rows(), d.in)
	if err := mat.MatMulInto(d.y, x, d.w.W); err != nil {
		return nil, fmt.Errorf("nn: dense forward: %w", err)
	}
	if err := d.y.AddRowVector(d.b.W); err != nil {
		return nil, fmt.Errorf("nn: dense forward bias: %w", err)
	}
	return d.y, nil
}

// Replicate implements Layer: shared weights, private caches and gradients.
func (d *Dense) Replicate() Layer {
	return &Dense{in: d.in, out: d.out, w: shareParam(d.w), b: shareParam(d.b)}
}

// Backward implements Layer. The returned gradient is layer-owned scratch,
// valid until the next Forward/Backward on this layer.
func (d *Dense) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	return d.backward(gradOut, true, true)
}

// backward computes the halves of Backward that inputGrad and params ask
// for (see partialBackwarder).
func (d *Dense) backward(gradOut *mat.Matrix, inputGrad, params bool) (*mat.Matrix, error) {
	if d.lastInput == nil {
		return nil, ErrNotReady
	}
	if params {
		if err := mat.TMatMulAddInto(d.w.G, d.lastInput, gradOut); err != nil { // dW += xᵀ·gy
			return nil, fmt.Errorf("nn: dense backward dW: %w", err)
		}
		if err := mat.AddSumRows(d.b.G, gradOut); err != nil {
			return nil, fmt.Errorf("nn: dense backward db: %w", err)
		}
	}
	if !inputGrad {
		return nil, nil
	}
	if err := mat.MatMulTInto(d.gx, gradOut, d.w.W); err != nil { // dx = gy·Wᵀ
		return nil, fmt.Errorf("nn: dense backward dx: %w", err)
	}
	return d.gx, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
