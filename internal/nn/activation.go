package nn

import (
	"math"

	"repro/internal/mat"
)

// ReLU is the rectified-linear activation layer.
type ReLU struct {
	mask  *mat.Matrix // 1 where input > 0; training scratch (current shape)
	out   *mat.Matrix // training scratch (current shape)
	masks scratchCache
	outs  scratchCache
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
	r.mask = r.masks.get(x.Rows(), x.Cols())
	r.out = r.outs.get(x.Rows(), x.Cols())
	xd, md, od := x.Data(), r.mask.Data(), r.out.Data()
	for i, v := range xd {
		if v > 0 {
			md[i], od[i] = 1, v
		} else {
			md[i], od[i] = 0, 0
		}
	}
	return r.out, nil
}

// CloneLayer implements Layer.
func (r *ReLU) CloneLayer() Layer { return &ReLU{} }

// Replicate implements Layer.
func (r *ReLU) Replicate() Layer { return &ReLU{} }

// Backward implements Layer. The gradient is masked in place and returned —
// gradOut is consumed.
func (r *ReLU) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if r.mask == nil {
		return nil, ErrNotReady
	}
	if err := gradOut.MulInPlace(r.mask); err != nil {
		return nil, err
	}
	return gradOut, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation layer.
type Tanh struct {
	out  *mat.Matrix // training scratch (current shape)
	outs scratchCache
}

var _ Layer = (*Tanh)(nil)

// NewTanh constructs a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// OutputSize implements Layer.
func (t *Tanh) OutputSize(inputSize int) (int, error) { return inputSize, nil }

// Forward implements Layer. The returned matrix is layer-owned scratch,
// valid until the next Forward on this layer.
func (t *Tanh) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	t.out = t.outs.get(x.Rows(), x.Cols())
	if err := mat.ApplyInto(t.out, x, math.Tanh); err != nil {
		return nil, err
	}
	return t.out, nil
}

// CloneLayer implements Layer.
func (t *Tanh) CloneLayer() Layer { return &Tanh{} }

// Replicate implements Layer.
func (t *Tanh) Replicate() Layer { return &Tanh{} }

// Backward implements Layer: gradOut is scaled by 1−y² in place and
// returned.
func (t *Tanh) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if t.out == nil {
		return nil, ErrNotReady
	}
	if gradOut.Rows() != t.out.Rows() || gradOut.Cols() != t.out.Cols() {
		return nil, ErrNotReady
	}
	gd, od := gradOut.Data(), t.out.Data()
	for i, y := range od {
		gd[i] *= 1 - y*y
	}
	return gradOut, nil
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid is the logistic activation layer.
type Sigmoid struct {
	out  *mat.Matrix // training scratch (current shape)
	outs scratchCache
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid constructs a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// OutputSize implements Layer.
func (s *Sigmoid) OutputSize(inputSize int) (int, error) { return inputSize, nil }

// Forward implements Layer. The returned matrix is layer-owned scratch,
// valid until the next Forward on this layer.
func (s *Sigmoid) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	s.out = s.outs.get(x.Rows(), x.Cols())
	if err := mat.ApplyInto(s.out, x, sigmoidT[float64]); err != nil {
		return nil, err
	}
	return s.out, nil
}

// CloneLayer implements Layer.
func (s *Sigmoid) CloneLayer() Layer { return &Sigmoid{} }

// Replicate implements Layer.
func (s *Sigmoid) Replicate() Layer { return &Sigmoid{} }

// Backward implements Layer: gradOut is scaled by y(1−y) in place and
// returned.
func (s *Sigmoid) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if s.out == nil {
		return nil, ErrNotReady
	}
	if gradOut.Rows() != s.out.Rows() || gradOut.Cols() != s.out.Cols() {
		return nil, ErrNotReady
	}
	gd, od := gradOut.Data(), s.out.Data()
	for i, y := range od {
		gd[i] *= y * (1 - y)
	}
	return gradOut, nil
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

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
