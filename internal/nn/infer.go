package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// InferModel is the read-only float32 twin of a trained Model: weights are
// quantized once at Freeze time, inference runs through the 8-wide float32
// kernels of mat.Dense[float32], and all intermediate activations live in
// per-goroutine pooled workspaces — so a steady-state Infer performs zero
// allocations and any number of goroutines may share one InferModel
// concurrently.
//
// The twin is inference-only by construction (no gradients, no backward
// caches, no optimizer state) and is never serialized: monitor.Save persists
// the canonical f64 model, and the frozen twin is rebuilt lazily after Load.
// Training, and any path that needs bit-deterministic f64 arithmetic, stays
// on Model.
type InferModel struct {
	inSize, outSize int
	layers          []inferLayer
	pool            sync.Pool // *inferWorkspace
}

// inferWorkspace holds one goroutine's per-layer scratch. Each layer owns
// one slot and re-creates its contents when the batch shape changes, so a
// workspace reused at a steady batch size allocates nothing.
type inferWorkspace struct {
	slots []any
	// in1 is the reusable 1×inSize input staging row for Classify1, created
	// on the workspace's first single-row call.
	in1 *mat.Dense[float32]
}

// inferLayer is a frozen, read-only layer: infer computes the layer output
// for x into (reused) scratch stored in slot. Implementations never mutate
// the layer itself, only the slot — that is what makes a shared InferModel
// concurrency-safe.
type inferLayer interface {
	name() string
	infer(slot *any, x *mat.Dense[float32]) (*mat.Dense[float32], error)
}

// Freeze quantizes the model into its float32 inference twin. The model's
// weights are copied (narrowed to f32) once; later training steps on the
// source model do NOT propagate — freeze after training, or re-freeze.
func (m *Model) Freeze() (*InferModel, error) {
	im := &InferModel{inSize: m.inSize, outSize: m.OutputSize()}
	for _, l := range m.layers {
		switch v := l.(type) {
		case *Dense:
			im.layers = append(im.layers, &denseInfer{
				in:  v.in,
				out: v.out,
				w:   mat.ToFloat32(v.w.W),
				b:   mat.ToFloat32(v.b.W),
			})
		case *LSTM:
			im.layers = append(im.layers, &lstmInfer{
				inputSize:  v.inputSize,
				hidden:     v.hidden,
				steps:      v.steps,
				returnSeqs: v.returnSeqs,
				wx:         mat.ToFloat32(v.wx.W),
				wh:         mat.ToFloat32(v.wh.W),
				b:          mat.ToFloat32(v.b.W),
			})
		case *ReLU:
			im.layers = append(im.layers, &actInfer{kind: actReLU})
		case *Tanh:
			im.layers = append(im.layers, &actInfer{kind: actTanh})
		case *Sigmoid:
			im.layers = append(im.layers, &actInfer{kind: actSigmoid})
		default:
			return nil, fmt.Errorf("nn: freeze: unsupported layer type %q", l.Name())
		}
	}
	n := len(im.layers)
	im.pool.New = func() any { return &inferWorkspace{slots: make([]any, n)} }
	return im, nil
}

// InputSize returns the expected number of input features.
func (im *InferModel) InputSize() int { return im.inSize }

// OutputSize returns the number of classes (final logit width).
func (im *InferModel) OutputSize() int { return im.outSize }

// run pushes x through the frozen stack using ws for scratch; the returned
// matrix is workspace-owned.
func (im *InferModel) run(ws *inferWorkspace, x *mat.Dense[float32]) (*mat.Dense[float32], error) {
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
func (im *InferModel) Infer(x, dst *mat.Dense[float32]) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: infer: %d input cols, want %d", x.Cols(), im.inSize)
	}
	ws := im.pool.Get().(*inferWorkspace)
	defer im.pool.Put(ws)
	out, err := im.run(ws, x)
	if err != nil {
		return err
	}
	return dst.CopyFrom(out)
}

// Logits is the allocating convenience form of Infer.
func (im *InferModel) Logits(x *mat.Dense[float32]) (*mat.Dense[float32], error) {
	dst := mat.NewDense[float32](x.Rows(), im.outSize)
	if err := im.Infer(x, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ClassifyInto computes, per input row, the argmax class and its softmax
// probability, written into classes and conf (conf may be nil). Both slices
// must have x.Rows() entries. The softmax epilogue accumulates in float64
// with a fixed iteration order, so results do not depend on the worker
// count.
func (im *InferModel) ClassifyInto(x *mat.Dense[float32], classes []int, conf []float64) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: classify: %d input cols, want %d", x.Cols(), im.inSize)
	}
	if len(classes) != x.Rows() {
		return fmt.Errorf("nn: classify: %d class slots for %d rows", len(classes), x.Rows())
	}
	if conf != nil && len(conf) != x.Rows() {
		return fmt.Errorf("nn: classify: %d confidence slots for %d rows", len(conf), x.Rows())
	}
	ws := im.pool.Get().(*inferWorkspace)
	defer im.pool.Put(ws)
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
// float32 kernel computes each output row independently, to the same row
// scored inside any fused batch).
func (im *InferModel) Classify1(row []float32) (class int, conf float64, err error) {
	if len(row) != im.inSize {
		return 0, 0, fmt.Errorf("nn: classify1: %d input cols, want %d", len(row), im.inSize)
	}
	ws := im.pool.Get().(*inferWorkspace)
	defer im.pool.Put(ws)
	if ws.in1 == nil {
		ws.in1 = mat.NewDense[float32](1, im.inSize)
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
func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// classifyRow is the softmax epilogue shared by ClassifyInto and Classify1:
// the argmax of one logit row (the first maximum wins ties) and its softmax
// probability, 1/Σexp(v−max), accumulated in float64 in index order so the
// confidence does not depend on how the batch was split.
func classifyRow(row []float32) (class int, conf float64) {
	class = argmax(row)
	mx := float64(row[class])
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v) - mx)
	}
	return class, 1 / sum
}

// denseInfer is the frozen fully-connected layer: y = x·W + b.
type denseInfer struct {
	in, out int
	w       *mat.Dense[float32] // in×out
	b       *mat.Dense[float32] // 1×out
}

func (d *denseInfer) name() string { return "dense" }

func (d *denseInfer) infer(slot *any, x *mat.Dense[float32]) (*mat.Dense[float32], error) {
	y, ok := (*slot).(*mat.Dense[float32])
	if !ok || y.Rows() != x.Rows() {
		y = mat.NewDense[float32](x.Rows(), d.out)
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
type actInfer struct {
	kind actKind
}

type actKind int

const (
	actReLU actKind = iota
	actTanh
	actSigmoid
)

func (a *actInfer) name() string {
	switch a.kind {
	case actReLU:
		return "relu"
	case actTanh:
		return "tanh"
	default:
		return "sigmoid"
	}
}

func (a *actInfer) infer(slot *any, x *mat.Dense[float32]) (*mat.Dense[float32], error) {
	y, ok := (*slot).(*mat.Dense[float32])
	if !ok || y.Rows() != x.Rows() || y.Cols() != x.Cols() {
		y = mat.NewDense[float32](x.Rows(), x.Cols())
		*slot = y
	}
	switch a.kind {
	case actReLU:
		return y, mat.ReLUInto(y, x)
	case actTanh:
		return y, mat.ApplyInto(y, x, tanh32)
	default:
		return y, mat.ApplyInto(y, x, sigmoid32)
	}
}

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

func sigmoid32(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

// lstmInfer is the frozen recurrent layer. Instead of materializing the four
// gate matrices like the training path, the gate nonlinearities, the cell
// update and the hidden update are fused into one elementwise pass per step
// over the packed pre-activations — the frozen path needs no per-gate
// backward state.
type lstmInfer struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *mat.Dense[float32] // inputSize × 4·hidden
	wh *mat.Dense[float32] // hidden × 4·hidden
	b  *mat.Dense[float32] // 1 × 4·hidden
}

// lstmInferScratch is the per-workspace recurrence state, sized for one
// batch shape.
type lstmInferScratch struct {
	batch  int
	xt     *mat.Dense[float32] // per-step input (batch × inputSize)
	z, zh  *mat.Dense[float32] // packed pre-activations (batch × 4·hidden)
	h, c   *mat.Dense[float32] // hidden / cell state (batch × hidden)
	seqOut *mat.Dense[float32] // stacked hidden states when returnSeqs
}

func (l *lstmInfer) name() string { return "lstm" }

func (l *lstmInfer) infer(slot *any, x *mat.Dense[float32]) (*mat.Dense[float32], error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm infer: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	H := l.hidden
	ws, ok := (*slot).(*lstmInferScratch)
	if !ok || ws.batch != batch {
		ws = &lstmInferScratch{
			batch: batch,
			xt:    mat.NewDense[float32](batch, l.inputSize),
			z:     mat.NewDense[float32](batch, 4*H),
			zh:    mat.NewDense[float32](batch, 4*H),
			h:     mat.NewDense[float32](batch, H),
			c:     mat.NewDense[float32](batch, H),
		}
		if l.returnSeqs {
			ws.seqOut = mat.NewDense[float32](batch, l.steps*H)
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
		// Fused gate/cell/hidden update (gate layout [i|f|g|o]). zh was
		// computed from the previous h above, so updating h and c in place
		// is safe.
		for i := 0; i < batch; i++ {
			zr := ws.z.Row(i)
			cr := ws.c.Row(i)
			hr := ws.h.Row(i)
			for j := 0; j < H; j++ {
				ig := sigmoid32(zr[j])
				fg := sigmoid32(zr[H+j])
				gg := tanh32(zr[2*H+j])
				og := sigmoid32(zr[3*H+j])
				cv := fg*cr[j] + ig*gg
				cr[j] = cv
				hr[j] = og * tanh32(cv)
			}
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
