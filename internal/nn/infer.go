package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// InferModel is the frozen, read-only inference stack of a trained Model,
// for either precision. The layers never record backward state and never
// mutate themselves: all intermediate activations live in a workspace, so
// any number of goroutines may share one InferModel concurrently.
//
// Two instantiations exist:
//   - InferModel[float32], built by Freeze: the weights are quantized once,
//     inference runs through the 8-wide float32 kernels, and workspaces are
//     pooled per goroutine, so a steady-state Infer performs zero
//     allocations. It snapshots the weights and is never serialized:
//     monitor.Save persists the canonical f64 model, and the twin is rebuilt
//     lazily after Load.
//   - InferModel[float64], built once inside each Model (Model.Stack): its
//     layers alias the live f64 weights, so it always computes exactly what
//     Forward does. Model.Infer and Model.ClassifyInto run it on a fresh
//     per-call workspace.
type InferModel[T mat.Float] struct {
	inSize, outSize int
	layers          []inferLayer[T]
	pool            sync.Pool // *inferWorkspace[T]
}

// inferWorkspace holds one goroutine's per-layer scratch. Each layer owns
// one slot and re-creates its contents when the batch shape changes, so a
// workspace reused at a steady batch size allocates nothing.
type inferWorkspace[T mat.Float] struct {
	slots []any
	// in1 is the reusable 1×inSize input staging row for Classify1, created
	// on the workspace's first single-row call.
	in1 *mat.Dense[T]
}

// inferLayer is a frozen, read-only layer: infer computes the layer output
// for x into (reused) scratch stored in slot. Implementations never mutate
// the layer itself, only the slot — that is what makes a shared InferModel
// concurrency-safe.
type inferLayer[T mat.Float] interface {
	name() string
	infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error)
}

// Freeze quantizes the model into its float32 inference twin. The model's
// weights are copied (narrowed to f32) once; later training steps on the
// source model do NOT propagate — freeze after training, or re-freeze.
func (m *Model) Freeze() (*InferModel[float32], error) {
	return freeze(m, mat.ToFloat32)
}

// freeze builds the frozen stack of m, passing every weight matrix through
// conv: a narrowing copy for the float32 twin, the identity for the f64
// stack behind Model.Infer.
func freeze[T mat.Float](m *Model, conv func(*mat.Matrix) *mat.Dense[T]) (*InferModel[T], error) {
	im := &InferModel[T]{inSize: m.inSize, outSize: m.OutputSize()}
	for _, l := range m.layers {
		switch v := l.(type) {
		case *Dense:
			im.layers = append(im.layers, &denseInfer[T]{
				in:  v.in,
				out: v.out,
				w:   conv(v.w.W),
				b:   conv(v.b.W),
			})
		case *LSTM:
			im.layers = append(im.layers, &lstmInfer[T]{
				inputSize:  v.inputSize,
				hidden:     v.hidden,
				steps:      v.steps,
				returnSeqs: v.returnSeqs,
				wx:         conv(v.wx.W),
				wh:         conv(v.wh.W),
				b:          conv(v.b.W),
			})
		case *ReLU:
			im.layers = append(im.layers, &actInfer[T]{kind: actReLU})
		case *Tanh:
			im.layers = append(im.layers, &actInfer[T]{kind: actTanh})
		case *Sigmoid:
			im.layers = append(im.layers, &actInfer[T]{kind: actSigmoid})
		default:
			return nil, fmt.Errorf("nn: freeze: unsupported layer type %q", l.Name())
		}
	}
	im.pool.New = func() any { return im.newWorkspace() }
	return im, nil
}

// newWorkspace returns an empty workspace with one slot per layer.
func (im *InferModel[T]) newWorkspace() *inferWorkspace[T] {
	return &inferWorkspace[T]{slots: make([]any, len(im.layers))}
}

// InputSize returns the expected number of input features.
func (im *InferModel[T]) InputSize() int { return im.inSize }

// run pushes x through the frozen stack using ws for scratch; the returned
// matrix is workspace-owned.
func (im *InferModel[T]) run(ws *inferWorkspace[T], x *mat.Dense[T]) (*mat.Dense[T], error) {
	out := x
	var err error
	for i, l := range im.layers {
		out, err = l.infer(&ws.slots[i], out)
		if err != nil {
			return nil, fmt.Errorf("nn: infer layer %d (%s): %w", i, l.name(), err)
		}
	}
	return out, nil
}

// Infer computes logits for a batch into dst (batch × OutputSize). At a
// steady batch size it performs zero allocations; concurrent callers each
// draw a private workspace from the pool.
//
//apslint:allow reach test seam: the nn tests compare frozen against training logits and pin the pooled zero-alloc contract through it
func (im *InferModel[T]) Infer(x, dst *mat.Dense[T]) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: infer: %d input cols, want %d", x.Cols(), im.inSize)
	}
	ws := im.pool.Get().(*inferWorkspace[T])
	defer im.pool.Put(ws)
	out, err := im.run(ws, x)
	if err != nil {
		return err
	}
	return dst.CopyFrom(out)
}

// ClassifyInto computes, per input row, the argmax class and its softmax
// probability, written into classes and conf (conf may be nil). Both slices
// must have x.Rows() entries. The softmax epilogue accumulates in float64
// with a fixed iteration order, so results do not depend on the worker
// count.
func (im *InferModel[T]) ClassifyInto(x *mat.Dense[T], classes []int, conf []float64) error {
	ws := im.pool.Get().(*inferWorkspace[T])
	defer im.pool.Put(ws)
	return im.classifyInto(ws, x, classes, conf)
}

// classifyInto is ClassifyInto on the workspace ws — the one logits→class
// epilogue behind every batch classification, at either precision.
func (im *InferModel[T]) classifyInto(ws *inferWorkspace[T], x *mat.Dense[T], classes []int, conf []float64) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: classify: %d input cols, want %d", x.Cols(), im.inSize)
	}
	if len(classes) != x.Rows() {
		return fmt.Errorf("nn: classify: %d class slots for %d rows", len(classes), x.Rows())
	}
	if conf != nil && len(conf) != x.Rows() {
		return fmt.Errorf("nn: classify: %d confidence slots for %d rows", len(conf), x.Rows())
	}
	logits, err := im.run(ws, x)
	if err != nil {
		return err
	}
	for i := range classes {
		if conf == nil {
			classes[i] = argmax(logits.Row(i))
		} else {
			classes[i], conf[i] = classifyRow(logits.Row(i))
		}
	}
	return nil
}

// Classify1 scores a single feature row: the argmax class and its softmax
// probability. It stages the row through a workspace-owned input buffer, so
// a steady stream of single-row calls performs zero allocations — the
// batcher-bypass serving baseline and one-shot CLI paths want exactly this.
// The arithmetic is identical to a 1-row ClassifyInto (and, because every
// matrix kernel computes each output row independently, to the same row
// scored inside any fused batch).
func (im *InferModel[T]) Classify1(row []T) (class int, conf float64, err error) {
	if len(row) != im.inSize {
		return 0, 0, fmt.Errorf("nn: classify1: %d input cols, want %d", len(row), im.inSize)
	}
	ws := im.pool.Get().(*inferWorkspace[T])
	defer im.pool.Put(ws)
	if ws.in1 == nil {
		ws.in1 = mat.NewDense[T](1, im.inSize)
	}
	copy(ws.in1.Data(), row)
	logits, err := im.run(ws, ws.in1)
	if err != nil {
		return 0, 0, err
	}
	class, conf = classifyRow(logits.Row(0))
	return class, conf, nil
}

// argmax returns the index of the first maximum of row. It is seeded with
// row[0], so a NaN there wins.
func argmax[T mat.Float](row []T) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// classifyRow is the softmax epilogue shared by classifyInto and Classify1:
// the argmax of one logit row (the first maximum wins ties) and its softmax
// probability, 1/Σexp(v−max), accumulated in float64 in index order so the
// confidence does not depend on how the batch was split.
func classifyRow[T mat.Float](row []T) (class int, conf float64) {
	class = argmax(row)
	mx := float64(row[class])
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v) - mx)
	}
	return class, 1 / sum
}

// denseInfer is the frozen fully-connected layer: y = x·W + b.
type denseInfer[T mat.Float] struct {
	in, out int
	w       *mat.Dense[T] // in×out
	b       *mat.Dense[T] // 1×out
}

func (d *denseInfer[T]) name() string { return "dense" }

func (d *denseInfer[T]) infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error) {
	y, ok := (*slot).(*mat.Dense[T])
	if !ok || y.Rows() != x.Rows() {
		y = mat.NewDense[T](x.Rows(), d.out)
		*slot = y
	}
	if err := mat.MatMulInto(y, x, d.w); err != nil {
		return nil, err
	}
	if err := y.AddRowVector(d.b); err != nil {
		return nil, err
	}
	return y, nil
}

// actInfer is a frozen elementwise activation.
type actInfer[T mat.Float] struct {
	kind actKind
}

type actKind int

const (
	actReLU actKind = iota
	actTanh
	actSigmoid
)

func (a *actInfer[T]) name() string {
	switch a.kind {
	case actReLU:
		return "relu"
	case actTanh:
		return "tanh"
	default:
		return "sigmoid"
	}
}

func (a *actInfer[T]) infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error) {
	y, ok := (*slot).(*mat.Dense[T])
	if !ok || y.Rows() != x.Rows() || y.Cols() != x.Cols() {
		y = mat.NewDense[T](x.Rows(), x.Cols())
		*slot = y
	}
	switch a.kind {
	case actReLU:
		return y, mat.ReLUInto(y, x)
	case actTanh:
		return y, mat.ApplyInto(y, x, tanhT[T])
	default:
		return y, mat.ApplyInto(y, x, sigmoidT[T])
	}
}

// tanhT and sigmoidT evaluate in float64 and round once to T; at T =
// float64 they are exactly math.Tanh and the training path's logistic.
func tanhT[T mat.Float](v T) T { return T(math.Tanh(float64(v))) }

func sigmoidT[T mat.Float](v T) T { return T(1 / (1 + math.Exp(-float64(v)))) }

// lstmInfer is the frozen recurrent layer. It runs LSTM.Forward's step,
// including its elementwise half lstmCell, but keeps no per-step state: the
// gate activations go to one scratch row reused by every row and step, and
// the hidden and cell states are updated in place.
type lstmInfer[T mat.Float] struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *mat.Dense[T] // inputSize × 4·hidden
	wh *mat.Dense[T] // hidden × 4·hidden
	b  *mat.Dense[T] // 1 × 4·hidden
}

// lstmInferScratch is the per-workspace recurrence state, sized for one
// batch shape.
type lstmInferScratch[T mat.Float] struct {
	batch  int
	xt     *mat.Dense[T] // per-step input (batch × inputSize)
	z, zh  *mat.Dense[T] // packed pre-activations (batch × 4·hidden)
	h, c   *mat.Dense[T] // hidden / cell state (batch × hidden)
	gates  []T           // lstmCell's discarded activations (5·hidden)
	seqOut *mat.Dense[T] // stacked hidden states when returnSeqs
}

func (l *lstmInfer[T]) name() string { return "lstm" }

func (l *lstmInfer[T]) infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm infer: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	H := l.hidden
	ws, ok := (*slot).(*lstmInferScratch[T])
	if !ok || ws.batch != batch {
		ws = &lstmInferScratch[T]{
			batch: batch,
			xt:    mat.NewDense[T](batch, l.inputSize),
			z:     mat.NewDense[T](batch, 4*H),
			zh:    mat.NewDense[T](batch, 4*H),
			h:     mat.NewDense[T](batch, H),
			c:     mat.NewDense[T](batch, H),
			gates: make([]T, 5*H),
		}
		if l.returnSeqs {
			ws.seqOut = mat.NewDense[T](batch, l.steps*H)
		}
		*slot = ws
	}
	ws.h.Zero()
	ws.c.Zero()
	for t := 0; t < l.steps; t++ {
		if err := mat.SliceColsInto(ws.xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm infer step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.z, ws.xt, l.wx); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.zh, ws.h, l.wh); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wh step %d: %w", t, err)
		}
		if err := ws.z.AddInPlace(ws.zh); err != nil {
			return nil, err
		}
		if err := ws.z.AddRowVector(l.b); err != nil {
			return nil, err
		}
		// zh was computed from the previous h above, so updating h and c in
		// place is safe.
		g := ws.gates
		for i := 0; i < batch; i++ {
			cr := ws.c.Row(i)
			lstmCell(ws.z.Row(i), cr, cr, ws.h.Row(i), g[:H], g[H:2*H], g[2*H:3*H], g[3*H:4*H], g[4*H:])
		}
		if l.returnSeqs {
			if err := ws.seqOut.SetCols(t*H, ws.h); err != nil {
				return nil, err
			}
		}
	}
	if l.returnSeqs {
		return ws.seqOut, nil
	}
	return ws.h, nil
}
