// Package nn is a from-scratch neural-network library sufficient to reproduce
// the ML safety monitors of the paper: fully-connected and stacked-LSTM
// classifiers trained with Adam on (sparse categorical) cross-entropy or the
// knowledge-integrating semantic loss, with exact gradients with respect to
// the *inputs* exposed for FGSM adversarial-example crafting.
//
// All data flows through 2-D row-major matrices (batch × features); recurrent
// layers treat the feature axis as time-major flattened windows
// (batch × steps·features).
//
// A model is stored as two sections of an artifact section container:
// integer layer specs, then every weight as a little-endian float64
// (Model.Sections, Model.Save, Load).
package nn

import (
	"errors"

	"repro/internal/mat"
)

// ErrNotReady is returned when Backward is called before Forward.
var ErrNotReady = errors.New("nn: backward called before forward")

// Param is a trainable tensor and its gradient accumulator.
type Param struct {
	Name string
	W    *mat.Matrix // value
	G    *mat.Matrix // gradient, same shape as W
}

func newParam(name string, w *mat.Matrix) *Param {
	return &Param{Name: name, W: w, G: mat.New(w.Rows(), w.Cols())}
}

// Layer is a differentiable module. Forward caches whatever Backward needs;
// Backward consumes the gradient w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
//
// Forward/Backward are single-goroutine training paths. Concurrency-safe
// inference is Model.Infer: it runs the frozen stack built from the layers
// (see InferModel), which computes Forward's output without recording
// backward state, so any number of goroutines may share one trained model —
// the property the parallel experiment sweeps rely on. Gradient work under
// concurrency runs on a Replicate (via Model.Replicate): private caches and
// gradients over the shared weights, which gradient work only reads.
type Layer interface {
	// Name identifies the layer type for serialization.
	Name() string
	// OutputSize reports the number of output features for a given number of
	// input features, used for shape validation when stacking.
	OutputSize(inputSize int) (int, error)
	// Forward computes the layer output for a batch and records the state
	// Backward needs.
	Forward(x *mat.Matrix) (*mat.Matrix, error)
	// Backward propagates gradients; must follow a Forward call.
	Backward(gradOut *mat.Matrix) (*mat.Matrix, error)
	// Replicate returns a layer that SHARES this layer's weight matrices but
	// has private backward caches and a private gradient accumulator — the
	// data-parallel training shard. Replicas may Forward/Backward
	// concurrently with each other (weights are only read), but never
	// concurrently with an optimizer step on the shared weights.
	Replicate() Layer
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
}

// partialBackwarder is a Layer with parameters whose backward pass can skip
// either half of Backward: inputGrad asks for the gradient with respect to
// the layer input (else the result is nil), params accumulates the
// parameter gradients. A training step skips the first layer's input
// gradient, which nothing reads; InputGradient skips every parameter
// gradient. Backward is backward(gradOut, true, true).
type partialBackwarder interface {
	backward(gradOut *mat.Matrix, inputGrad, params bool) (*mat.Matrix, error)
}

// shareParam aliases a parameter's weights with a fresh (zeroed) gradient
// accumulator — the replica form used by data-parallel training shards.
func shareParam(p *Param) *Param {
	return &Param{Name: p.Name, W: p.W, G: mat.New(p.W.Rows(), p.W.Cols())}
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}
