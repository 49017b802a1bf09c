package nn

import (
	"fmt"
	"io"
	"math"

	"repro/internal/artifact"
	"repro/internal/mat"
	"repro/internal/mmapio"
)

// A model file is an artifact section container holding the two sections
// Sections writes.
const (
	modelMagic   = "APSMODEL"
	modelVersion = 1
)

// Layer kinds as the meta section stores them.
const (
	kindDense = 1 + iota
	kindLSTM
	kindReLU
)

// Sections encodes the model as two section payloads. meta holds the input
// size, the loss (name, semantic weight, unsafe class), the layer count,
// and per layer its kind and dimensions as integers: dense in, out; lstm
// inputs per step, hidden, steps, returnSequences (0/1); relu none. params
// holds every param's values as little-endian float64s in Params order.
func (m *Model) Sections() (meta, params []byte, err error) {
	var mb, pb artifact.Buf
	mb.I64(m.inSize)
	mb.Str(m.loss.LossName())
	sl, _ := m.loss.(SemanticLoss)
	mb.F64(sl.Weight)
	mb.I64(sl.UnsafeClass)
	mb.I64(len(m.layers))
	for _, layer := range m.layers {
		var rec []int
		switch v := layer.(type) {
		case *Dense:
			rec = []int{kindDense, v.in, v.out}
		case *LSTM:
			rec = []int{kindLSTM, v.inputSize, v.hidden, v.steps, 0}
			if v.returnSeqs {
				rec[4] = 1
			}
		case *ReLU:
			rec = []int{kindReLU}
		default:
			return nil, nil, fmt.Errorf("nn: cannot serialize layer type %q", layer.Name())
		}
		for _, x := range rec {
			mb.I64(x)
		}
		for _, p := range layer.Params() {
			pb.Floats(p.W.Data())
		}
	}
	return mb.B, pb.B, nil
}

// Save writes the model as a section container of its Sections.
func (m *Model) Save(w io.Writer) error {
	meta, params, err := m.Sections()
	if err != nil {
		return err
	}
	if err := artifact.WriteSections(w, modelMagic, modelVersion, meta, params); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	secs, err := artifact.ReadSections(data, modelMagic, modelVersion, 2)
	if err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return LoadSections(secs[0], secs[1])
}

// LoadSections rebuilds a model from the payloads Sections wrote. Every
// dimension must be at least 1 and every product fit an int, and the params
// section must hold exactly the values the layers declare; all of it is
// checked before any weight is allocated, so hostile bytes cost no more
// memory than their own length. The weights are copied into owned
// matrices: a model trains in place, so they must never view params.
func LoadSections(meta, params []byte) (*Model, error) {
	r := artifact.NewReader(meta)
	inSize, lossName, weight, unsafeClass, nLayers := r.I64(), r.Str(), r.F64(), r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if inSize < 1 {
		return nil, fmt.Errorf("nn: load: input size %d, want at least 1", inSize)
	}
	if nLayers < 0 || nLayers > r.Remaining()/8 { // every layer stores at least its kind
		return nil, fmt.Errorf("nn: load: %d layers in %d meta bytes", nLayers, r.Remaining())
	}
	var loss Loss
	switch lossName {
	case "semantic":
		loss = SemanticLoss{Weight: weight, UnsafeClass: unsafeClass}
	case "cross_entropy":
		loss = CrossEntropy{}
	default:
		return nil, fmt.Errorf("nn: load: unknown loss %q", lossName)
	}
	specs := make([]layerSpec, nLayers)
	budget := len(params) / 8 // float64 values the params section holds
	for i := range specs {
		var err error
		if specs[i], err = readLayerSpec(r); err != nil {
			return nil, fmt.Errorf("nn: load: layer %d: %w", i, err)
		}
		for _, sh := range specs[i].shapes {
			n, ok := mulDims(sh[0], sh[1])
			if !ok || n > budget {
				return nil, fmt.Errorf("nn: load: layer %d param of %dx%d exceeds the %d values left in the params section",
					i, sh[0], sh[1], budget)
			}
			budget -= n
		}
	}
	if r.Err() != nil || r.Remaining() != 0 || budget != 0 || len(params)%8 != 0 {
		return nil, fmt.Errorf("nn: load: meta section truncated or %d bytes past the last layer; params section holds %d bytes, the layers declare %d values",
			r.Remaining(), len(params), len(params)/8-budget)
	}
	pr := artifact.NewReader(params)
	layers := make([]Layer, len(specs))
	for i, s := range specs {
		w := make([]*mat.Matrix, len(s.shapes))
		for j, sh := range s.shapes {
			// Neither call can fail: the budget above counted every value.
			// FromSlice copies them out of params.
			vals, _ := mmapio.Float64s(pr.Take(8 * sh[0] * sh[1]))
			w[j], _ = mat.FromSlice(sh[0], sh[1], vals)
		}
		layers[i] = s.build(w)
	}
	return NewModel(inSize, loss, layers...)
}

// layerSpec is one decoded layer record: its params' shapes, in Params
// order, and how to build the layer around matrices of those shapes.
type layerSpec struct {
	shapes [][2]int
	build  func(w []*mat.Matrix) Layer
}

// readLayerSpec reads one layer record of the meta section, checking that
// every dimension is at least 1 and that the products the layer forms fit
// an int. A truncated record reads as zeros, which those checks reject.
func readLayerSpec(r *artifact.Reader) (layerSpec, error) {
	switch kind := r.I64(); kind {
	case kindReLU:
		return layerSpec{build: func([]*mat.Matrix) Layer { return NewReLU() }}, nil
	case kindDense:
		in, out := r.I64(), r.I64()
		if in < 1 || out < 1 {
			return layerSpec{}, fmt.Errorf("dense %d→%d: dimensions must be at least 1", in, out)
		}
		return layerSpec{
			shapes: [][2]int{{in, out}, {1, out}},
			build: func(w []*mat.Matrix) Layer {
				return &Dense{in: in, out: out, w: newParam("W", w[0]), b: newParam("b", w[1])}
			},
		}, nil
	case kindLSTM:
		inputSize, hidden, steps, ret := r.I64(), r.I64(), r.I64(), r.I64()
		gates, ok := mulDims(4, hidden)
		_, okIn := mulDims(steps, inputSize)
		_, okOut := mulDims(steps, hidden)
		if !ok || !okIn || !okOut || inputSize < 1 || hidden < 1 || steps < 1 || ret < 0 || ret > 1 {
			return layerSpec{}, fmt.Errorf("lstm %d steps × %d inputs → %d hidden (returnSequences %d): dimensions must be at least 1 and their products fit an int",
				steps, inputSize, hidden, ret)
		}
		return layerSpec{
			shapes: [][2]int{{inputSize, gates}, {hidden, gates}, {1, gates}},
			build: func(w []*mat.Matrix) Layer {
				return &LSTM{
					inputSize:  inputSize,
					hidden:     hidden,
					steps:      steps,
					returnSeqs: ret == 1,
					wx:         newParam("Wx", w[0]),
					wh:         newParam("Wh", w[1]),
					b:          newParam("b", w[2]),
				}
			},
		}, nil
	default:
		return layerSpec{}, fmt.Errorf("unknown layer kind %d", kind)
	}
}

// mulDims returns a·b, or false when either is negative or the product
// overflows int.
func mulDims(a, b int) (int, bool) {
	if a < 0 || b < 0 || (a > 0 && b > math.MaxInt/a) {
		return 0, false
	}
	return a * b, true
}
