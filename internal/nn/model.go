package nn

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mat"
)

// Model is a feed-forward stack of layers with a classification loss.
// The final layer emits logits; ClassifyInto takes their softmax argmax.
type Model struct {
	layers []Layer
	loss   Loss
	inSize int // expected input feature count

	// infer is the f64 frozen stack behind Stack, built on first use. Its
	// layers alias the live weights, which only ever change in place (the
	// optimizer, Load's CopyFrom), so it always sees the current model.
	inferOnce sync.Once
	infer     *InferModel[float64]
	inferErr  error
}

// NewModel builds a model from layers, validating that the layer shapes chain
// correctly starting from inputSize features.
func NewModel(inputSize int, loss Loss, layers ...Layer) (*Model, error) {
	if len(layers) == 0 {
		return nil, errors.New("nn: model needs at least one layer")
	}
	if loss == nil {
		loss = CrossEntropy{}
	}
	size := inputSize
	for i, l := range layers {
		out, err := l.OutputSize(size)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		size = out
	}
	return &Model{layers: layers, loss: loss, inSize: inputSize}, nil
}

// InputSize returns the expected number of input features.
func (m *Model) InputSize() int { return m.inSize }

// OutputSize returns the number of classes (final logit width).
func (m *Model) OutputSize() int {
	size := m.inSize
	for _, l := range m.layers {
		size, _ = l.OutputSize(size)
	}
	return size
}

// Layers exposes the layer stack (used by serialization and tests).
func (m *Model) Layers() []Layer { return m.layers }

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the stack and returns the logits, recording the per-layer
// state backward passes need. Training-path only: not safe for concurrent
// use on a shared model (use Infer, or Replicate the model first).
func (m *Model) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != m.inSize {
		return nil, fmt.Errorf("nn: model forward: %d input cols, want %d", x.Cols(), m.inSize)
	}
	out := x
	var err error
	for i, l := range m.layers {
		out, err = l.Forward(out)
		if err != nil {
			return nil, fmt.Errorf("nn: forward layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return out, nil
}

// Stack returns the f64 frozen stack over the live weights, built on first
// use. Its own methods, and ClassifyInto below, run tiled on pooled
// workspaces; Infer below runs it on a per-call workspace.
func (m *Model) Stack() (*InferModel[float64], error) {
	m.inferOnce.Do(func() {
		m.infer, m.inferErr = freeze(m, func(w *mat.Matrix) *mat.Matrix { return w })
	})
	return m.infer, m.inferErr
}

// Infer runs the stack without recording backward state, so any number of
// goroutines may share one trained model. It computes Forward's logits bit
// for bit through the f64 instantiation of the frozen stack, on a workspace
// private to the call, so the returned matrix belongs to the caller.
//
//apslint:allow reach reference f64 logits: the nn, attack and monitor tests check Forward and the frozen stacks against it
func (m *Model) Infer(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != m.inSize {
		return nil, fmt.Errorf("nn: model infer: %d input cols, want %d", x.Cols(), m.inSize)
	}
	im, err := m.Stack()
	if err != nil {
		return nil, err
	}
	return im.run(im.newWorkspace(), x)
}

// ClassifyInto is InferModel.ClassifyInto over the live f64 weights: the
// argmax class per row and, when conf is non-nil, its softmax probability,
// computed in tiles on a workspace drawn from the stack's pool. Safe for
// concurrent use on a shared model.
func (m *Model) ClassifyInto(x *mat.Matrix, classes []int, conf []float64) error {
	im, err := m.Stack()
	if err != nil {
		return err
	}
	return im.ClassifyInto(x, classes, conf)
}

// PredictClasses returns the argmax class per row (ClassifyInto without
// confidences). Safe for concurrent use on a shared model.
func (m *Model) PredictClasses(x *mat.Matrix) ([]int, error) {
	classes := make([]int, x.Rows())
	return classes, m.ClassifyInto(x, classes, nil)
}

// backward pushes a logit gradient through the stack. With inputGrad it
// returns the gradient with respect to the model input; without it (a
// training step) the first layer stops short of its input gradient when it
// can, and the result is nil. With params the layers accumulate their
// parameter gradients; without it (InputGradient) they skip them.
func (m *Model) backward(gradLogits *mat.Matrix, inputGrad, params bool) (*mat.Matrix, error) {
	grad := gradLogits
	var err error
	for i := len(m.layers) - 1; i >= 0; i-- {
		if pb, ok := m.layers[i].(partialBackwarder); ok {
			grad, err = pb.backward(grad, i > 0 || inputGrad, params)
		} else {
			grad, err = m.layers[i].Backward(grad)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: backward layer %d (%s): %w", i, m.layers[i].Name(), err)
		}
	}
	return grad, nil
}

// TrainBatch performs one optimization step on a batch and returns the batch
// loss. knowledge may be nil for plain losses.
func (m *Model) TrainBatch(x *mat.Matrix, labels []int, knowledge []float64, opt Optimizer) (float64, error) {
	logits, err := m.Forward(x)
	if err != nil {
		return 0, err
	}
	loss, gradLogits, err := m.loss.Compute(logits, labels, knowledge)
	if err != nil {
		return 0, err
	}
	params := m.Params()
	ZeroGrads(params)
	if _, err := m.backward(gradLogits, false, true); err != nil {
		return 0, err
	}
	if err := opt.Step(params); err != nil {
		return 0, err
	}
	return loss, nil
}

// Clone returns an independent copy of the model: a Replicate whose weights
// are copied as well, so training the clone leaves m untouched. Gradient
// work that only reads the weights (InputGradient, FGSM) needs no copy and
// runs on a Replicate instead.
func (m *Model) Clone() (*Model, error) {
	c, err := m.Replicate()
	if err != nil {
		return nil, err
	}
	for _, p := range c.Params() {
		p.W = p.W.Clone()
	}
	return c, nil
}

// Replicate returns a model that shares this model's weight matrices but has
// private per-layer caches and gradient accumulators — the data-parallel
// training shard, and the private model of each concurrent gradient pass.
// InputGradient mutates backward caches, and TrainBatch gradient
// accumulators too, so they must not run concurrently on one model; replicas
// may run Forward/backward concurrently with each other (weights are only
// read). The Trainer serializes optimizer steps on the shared weights
// against all shard work.
func (m *Model) Replicate() (*Model, error) {
	layers := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		layers[i] = l.Replicate()
	}
	return NewModel(m.inSize, m.loss, layers...)
}

// InputGradient returns d(loss)/d(input) for a batch — the quantity FGSM
// needs (Eq 4: ∆x = ε·sign(∇_x J(x, y))) — as a matrix the caller owns.
//
// The pass runs inferTile rows at a time: Forward, the loss gradient of the
// whole batch's mean (the tile's rows scaled by 1/N for the batch's N rows)
// and a backward pass that computes input gradients only, so the model's
// scratch stays tile-sized however large the batch. Every kernel on this
// path computes each row on its own, and only the 1/N scale (kept global)
// and the parameter gradients (skipped) couple rows, so the result is bit
// for bit that of one untiled Forward → Compute → backward over the batch.
// Parameter gradients are left as they were.
func (m *Model) InputGradient(x *mat.Matrix, labels []int, knowledge []float64) (*mat.Matrix, error) {
	n := x.Rows()
	if x.Cols() != m.inSize {
		return nil, fmt.Errorf("nn: input gradient: %d input cols, want %d", x.Cols(), m.inSize)
	}
	if len(labels) != n {
		return nil, fmt.Errorf("nn: %d labels for %d rows", len(labels), n)
	}
	if knowledge != nil && len(knowledge) != n {
		return nil, fmt.Errorf("nn: %d knowledge indicators for %d rows", len(knowledge), n)
	}
	out := mat.New(n, x.Cols())
	var tile mat.Matrix
	for lo := 0; lo < n; lo += inferTile {
		hi := min(lo+inferTile, n)
		if err := x.RowsViewInto(&tile, lo, hi); err != nil {
			return nil, err
		}
		logits, err := m.Forward(&tile)
		if err != nil {
			return nil, err
		}
		var know []float64
		if knowledge != nil {
			know = knowledge[lo:hi]
		}
		_, gradLogits, err := m.loss.computeN(logits, labels[lo:hi], know, n)
		if err != nil {
			return nil, err
		}
		gradIn, err := m.backward(gradLogits, true, false)
		if err != nil {
			return nil, err
		}
		// The backward chain returns layer-owned scratch; copy the tile's
		// rows out before the next tile overwrites it.
		copy(out.Data()[lo*x.Cols():hi*x.Cols()], gradIn.Data())
	}
	return out, nil
}
