package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// ReLU is the rectified-linear activation layer.
type ReLU struct {
	out  *mat.Matrix // forward output, which Backward reads its mask from
	outs growScratch[float64]
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutputSize implements Layer.
func (r *ReLU) OutputSize(inputSize int) (int, error) { return inputSize, nil }

// Forward implements Layer. The returned matrix is layer-owned scratch,
// valid until the next Forward on this layer.
func (r *ReLU) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	r.out = r.outs.get(x.Rows(), x.Cols())
	if err := mat.ReLUInto(r.out, x); err != nil {
		return nil, err
	}
	return r.out, nil
}

// Replicate implements Layer.
func (r *ReLU) Replicate() Layer { return &ReLU{} }

// Backward implements Layer. The gradient is masked in place and returned —
// gradOut is consumed. The mask is out > 0, the inputs Forward passed
// through; it multiplies rather than selects, so a NaN or ±Inf gradient
// under a zero mask still becomes the NaN the product makes.
func (r *ReLU) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if r.out == nil {
		return nil, ErrNotReady
	}
	if gradOut.Rows() != r.out.Rows() || gradOut.Cols() != r.out.Cols() {
		return nil, fmt.Errorf("%w: relu backward %dx%d, want %dx%d",
			mat.ErrShape, gradOut.Rows(), gradOut.Cols(), r.out.Rows(), r.out.Cols())
	}
	gd := gradOut.Data()
	for i, y := range r.out.Data() {
		// The mask's bits are chosen by an integer select, which compiles
		// to a conditional move: a branch on y > 0 mispredicts on about
		// half of the activations and more than doubles the loop's time.
		var m uint64
		if y > 0 {
			m = oneBits
		}
		gd[i] *= math.Float64frombits(m)
	}
	return gradOut, nil
}

// oneBits is math.Float64bits(1).
const oneBits = 0x3FF0000000000000

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Softmax converts a row of logits into a probability distribution. It is
// provided as a standalone function because the losses fuse softmax with
// their gradient for numerical stability.
func Softmax(logits *mat.Matrix) *mat.Matrix {
	out := mat.New(logits.Rows(), logits.Cols())
	for i := 0; i < logits.Rows(); i++ {
		row := logits.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		orow := out.Row(i)
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}
