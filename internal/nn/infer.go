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
// Infer and ClassifyInto push their input through the stack inferTile rows
// at a time on a workspace drawn from a per-model pool, so the scratch
// stays tile-sized however large the batch, and a steady stream of calls
// performs zero allocations, whatever mix of batch sizes it carries.
//
// Two instantiations exist:
//   - InferModel[float32], built by Freeze: the weights are quantized once
//     and inference runs through the 8-wide float32 kernels. It snapshots
//     the weights and is never serialized: monitor.Save persists the
//     canonical f64 model, and the twin is rebuilt lazily after Load.
//   - InferModel[float64], built once inside each Model (Model.Stack): its
//     layers alias the live f64 weights, so it always computes exactly what
//     Forward does. Model.ClassifyInto runs it on the pool like any other
//     caller; Model.Infer, which hands its logits to the caller, runs it
//     untiled on a workspace of its own.
type InferModel[T mat.Float] struct {
	inSize, outSize int
	layers          []inferLayer[T]
	pool            sync.Pool // *inferWorkspace[T]
}

// inferTile is how many rows Infer and ClassifyInto push through the stack
// at once. Every inference kernel computes each row on its own (the
// per-row products, zero-skip and epilogues), so the tile size cannot move
// a bit; it only bounds the scratch, which at 64 rows stays in cache where
// a whole test set would not.
const inferTile = 64

// inferWorkspace holds one goroutine's per-layer scratch. Each layer owns
// one slot of grow-only scratch (growScratch), so a workspace reused at any
// batch size up to the largest it has seen allocates nothing.
type inferWorkspace[T mat.Float] struct {
	slots []any
	// tile is the header the tiled paths point at each input tile in turn.
	tile mat.Dense[T]
}

// growScratch is one grow-only scratch matrix: it reallocates only when a
// batch needs more rows than it holds (or another width), and a smaller
// batch gets a prefix of it through a header it owns, so switching batch
// sizes allocates nothing. The frozen stack keeps one per workspace slot,
// the training layers theirs in the layer; either way the returned view
// stays valid until the next get on the same growScratch.
type growScratch[T mat.Float] struct {
	buf  *mat.Dense[T]
	view mat.Dense[T]
}

// get returns a rows×cols matrix whose contents are whatever the last use
// left behind; callers overwrite it in full.
func (s *growScratch[T]) get(rows, cols int) *mat.Dense[T] {
	if s.buf == nil || s.buf.Rows() < rows || s.buf.Cols() != cols {
		s.buf = mat.NewDense[T](rows, cols)
	}
	_ = s.buf.RowsViewInto(&s.view, 0, rows) // 0 ≤ rows ≤ buf.Rows()
	return &s.view
}

// scratchIn returns the growScratch kept in a layer's workspace slot,
// creating it on first use.
func scratchIn[T mat.Float](slot *any) *growScratch[T] {
	s, ok := (*slot).(*growScratch[T])
	if !ok {
		s = &growScratch[T]{}
		*slot = s
	}
	return s
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
			im.layers = append(im.layers, reluInfer[T]{})
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

// tiles pushes x through the stack inferTile rows at a time on a pooled
// workspace and hands emit each tile's first row and its workspace-owned
// logits.
func (im *InferModel[T]) tiles(x *mat.Dense[T], emit func(lo int, logits *mat.Dense[T])) error {
	ws := im.pool.Get().(*inferWorkspace[T])
	defer im.pool.Put(ws)
	for lo := 0; lo < x.Rows(); lo += inferTile {
		if err := x.RowsViewInto(&ws.tile, lo, min(lo+inferTile, x.Rows())); err != nil {
			return err
		}
		logits, err := im.run(ws, &ws.tile)
		if err != nil {
			return err
		}
		emit(lo, logits)
	}
	return nil
}

// Infer computes logits for a batch into dst (batch × OutputSize) on a
// pooled workspace, so concurrent callers never share scratch.
//
//apslint:allow reach test seam: the nn tests compare frozen against training logits and pin the pooled zero-alloc contract through it
func (im *InferModel[T]) Infer(x, dst *mat.Dense[T]) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: infer: %d input cols, want %d", x.Cols(), im.inSize)
	}
	if dst.Rows() != x.Rows() || dst.Cols() != im.outSize {
		return fmt.Errorf("%w: infer dst %dx%d, want %dx%d", mat.ErrShape, dst.Rows(), dst.Cols(), x.Rows(), im.outSize)
	}
	return im.tiles(x, func(lo int, logits *mat.Dense[T]) {
		copy(dst.Data()[lo*im.outSize:], logits.Data())
	})
}

// ClassifyInto computes, per input row, the argmax class and its softmax
// probability, written into classes and conf (conf may be nil). Both slices
// must have x.Rows() entries. The softmax epilogue accumulates in float64
// with a fixed iteration order, so results do not depend on the worker
// count or the tiling. This is the one logits→class epilogue behind every
// classification, at either precision, from a single served row to a
// whole test set.
func (im *InferModel[T]) ClassifyInto(x *mat.Dense[T], classes []int, conf []float64) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: classify: %d input cols, want %d", x.Cols(), im.inSize)
	}
	if len(classes) != x.Rows() {
		return fmt.Errorf("nn: classify: %d class slots for %d rows", len(classes), x.Rows())
	}
	if conf != nil && len(conf) != x.Rows() {
		return fmt.Errorf("nn: classify: %d confidence slots for %d rows", len(conf), x.Rows())
	}
	return im.tiles(x, func(lo int, logits *mat.Dense[T]) {
		for i := 0; i < logits.Rows(); i++ {
			if conf == nil {
				classes[lo+i] = argmax(logits.Row(i))
			} else {
				classes[lo+i], conf[lo+i] = classifyRow(logits.Row(i))
			}
		}
	})
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

// classifyRow is ClassifyInto's softmax epilogue: the argmax of one logit
// row (the first maximum wins ties) and its softmax probability,
// 1/Σexp(v−max), accumulated in float64 in index order so the confidence
// does not depend on how the batch was split.
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
	y := scratchIn[T](slot).get(x.Rows(), d.out)
	if err := mat.MatMulInto(y, x, d.w); err != nil {
		return nil, err
	}
	if err := y.AddRowVector(d.b); err != nil {
		return nil, err
	}
	return y, nil
}

// reluInfer is the frozen ReLU.
type reluInfer[T mat.Float] struct{}

func (reluInfer[T]) name() string { return "relu" }

func (reluInfer[T]) infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error) {
	y := scratchIn[T](slot).get(x.Rows(), x.Cols())
	return y, mat.ReLUInto(y, x)
}

// tanhT and sigmoidT evaluate in float64 and round once to T: the scalar
// activations of the float32 LSTM step (float64 runs mat.Tanh64 and
// mat.Sigmoid64, which return math.Tanh's and the logistic's bits).
func tanhT[T mat.Float](v T) T { return T(math.Tanh(float64(v))) }

func sigmoidT[T mat.Float](v T) T { return T(1 / (1 + math.Exp(-float64(v)))) }

// lstmInfer is the frozen recurrent layer. It runs LSTM.Forward's step,
// including its elementwise half lstmCell, but keeps no per-step state: the
// gate activations go to one scratch of lstmCellRows rows reused by every
// chunk and step, and the hidden and cell states are updated in place.
type lstmInfer[T mat.Float] struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *mat.Dense[T] // inputSize × 4·hidden
	wh *mat.Dense[T] // hidden × 4·hidden
	b  *mat.Dense[T] // 1 × 4·hidden
}

// lstmCellRows is how many rows one lstmCell call of the frozen stack
// covers. Its gate blocks (16·hidden elements, 192 or more at the models'
// widths) are long enough for mat's eight-lane activations to run at full
// speed, while the gate scratch stays a quarter of a 64-row tile's: rows
// are independent, so the chunking moves no bit.
const lstmCellRows = 16

// lstmInferScratch is the per-workspace recurrence state.
type lstmInferScratch[T mat.Float] struct {
	xt     growScratch[T] // per-step input (batch × inputSize)
	z, zh  growScratch[T] // packed pre-activations (batch × 4·hidden)
	h, c   growScratch[T] // hidden / cell state (batch × hidden)
	seqOut growScratch[T] // stacked hidden states when returnSeqs
	gates  growScratch[T] // lstmCell's discarded activations (4·lstmCellRows × hidden)
}

func (l *lstmInfer[T]) name() string { return "lstm" }

func (l *lstmInfer[T]) infer(slot *any, x *mat.Dense[T]) (*mat.Dense[T], error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm infer: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	H := l.hidden
	ws, ok := (*slot).(*lstmInferScratch[T])
	if !ok {
		ws = &lstmInferScratch[T]{}
		*slot = ws
	}
	xt := ws.xt.get(batch, l.inputSize)
	z, zh := ws.z.get(batch, 4*H), ws.zh.get(batch, 4*H)
	h, c := ws.h.get(batch, H), ws.c.get(batch, H)
	gates := ws.gates.get(4*lstmCellRows, H).Data()
	var seqOut *mat.Dense[T]
	if l.returnSeqs {
		seqOut = ws.seqOut.get(batch, l.steps*H)
	}
	h.Zero()
	c.Zero()
	b := l.b.Data()
	for t := 0; t < l.steps; t++ {
		if err := mat.SliceColsInto(xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm infer step %d: %w", t, err)
		}
		if err := mat.MatMulInto(z, xt, l.wx); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(zh, h, l.wh); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wh step %d: %w", t, err)
		}
		// zh was computed from the previous h above, so updating h and c in
		// place is safe; tanh(c) goes straight into h.
		for lo := 0; lo < batch; lo += lstmCellRows {
			hi := min(lo+lstmCellRows, batch)
			cr, hr := c.Data()[lo*H:hi*H], h.Data()[lo*H:hi*H]
			lstmCell(gates, z.Data()[lo*4*H:hi*4*H], zh.Data()[lo*4*H:hi*4*H], b, cr, cr, hr, hr)
		}
		if l.returnSeqs {
			if err := seqOut.SetCols(t*H, h); err != nil {
				return nil, err
			}
		}
	}
	if l.returnSeqs {
		return seqOut, nil
	}
	return h, nil
}
