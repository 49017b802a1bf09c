package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
)

// modelSpec is the on-disk JSON representation of a Model.
type modelSpec struct {
	InputSize int         `json:"inputSize"`
	Loss      lossSpec    `json:"loss"`
	Layers    []layerSpec `json:"layers"`
}

type lossSpec struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight,omitempty"`
	UnsafeClass int     `json:"unsafeClass,omitempty"`
}

type layerSpec struct {
	Type string `json:"type"`

	// Dense.
	In  int `json:"in,omitempty"`
	Out int `json:"out,omitempty"`

	// LSTM.
	InputSize  int  `json:"inputSizePerStep,omitempty"`
	Hidden     int  `json:"hidden,omitempty"`
	Steps      int  `json:"steps,omitempty"`
	ReturnSeqs bool `json:"returnSequences,omitempty"`

	Params []paramSpec `json:"params,omitempty"`
}

type paramSpec struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// Save writes the model architecture and weights as JSON.
func (m *Model) Save(w io.Writer) error {
	spec := modelSpec{InputSize: m.inSize}
	switch l := m.loss.(type) {
	case SemanticLoss:
		spec.Loss = lossSpec{Name: l.LossName(), Weight: l.Weight, UnsafeClass: l.UnsafeClass}
	default:
		spec.Loss = lossSpec{Name: m.loss.LossName()}
	}
	for _, layer := range m.layers {
		ls := layerSpec{Type: layer.Name()}
		switch v := layer.(type) {
		case *Dense:
			ls.In, ls.Out = v.in, v.out
		case *LSTM:
			ls.InputSize, ls.Hidden, ls.Steps, ls.ReturnSeqs = v.inputSize, v.hidden, v.steps, v.returnSeqs
		case *ReLU:
			// No shape parameters.
		default:
			return fmt.Errorf("nn: cannot serialize layer type %q", layer.Name())
		}
		for _, p := range layer.Params() {
			ls.Params = append(ls.Params, paramSpec{
				Name: p.Name,
				Rows: p.W.Rows(),
				Cols: p.W.Cols(),
				Data: append([]float64(nil), p.W.Data()...),
			})
		}
		spec.Layers = append(spec.Layers, ls)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(spec)
}

// Load reads a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var spec modelSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if spec.InputSize < 1 {
		return nil, fmt.Errorf("nn: load: input size %d, want at least 1", spec.InputSize)
	}
	layers := make([]Layer, 0, len(spec.Layers))
	for i, ls := range spec.Layers {
		layer, err := ls.layer()
		if err != nil {
			return nil, fmt.Errorf("nn: load: layer %d: %w", i, err)
		}
		layers = append(layers, layer)
	}
	var loss Loss
	switch spec.Loss.Name {
	case "semantic":
		loss = SemanticLoss{Weight: spec.Loss.Weight, UnsafeClass: spec.Loss.UnsafeClass}
	case "cross_entropy", "":
		loss = CrossEntropy{}
	default:
		return nil, fmt.Errorf("nn: load: unknown loss %q", spec.Loss.Name)
	}
	return NewModel(spec.InputSize, loss, layers...)
}

// layer builds the layer a spec declares, after checking that every
// dimension is at least 1 and that the spec carries exactly the layer's
// params, each with its declared shape and rows·cols values. Every product
// is taken without overflow, and each param is checked before it is
// allocated, so a hostile spec costs no more memory than its own data.
func (ls layerSpec) layer() (Layer, error) {
	var (
		shapes [][2]int // rows×cols of each param, in Params order
		build  func(w []*mat.Matrix) Layer
	)
	switch ls.Type {
	case "relu":
		build = func([]*mat.Matrix) Layer { return NewReLU() }
	case "dense":
		if ls.In < 1 || ls.Out < 1 {
			return nil, fmt.Errorf("dense %d→%d: dimensions must be at least 1", ls.In, ls.Out)
		}
		shapes = [][2]int{{ls.In, ls.Out}, {1, ls.Out}}
		build = func(w []*mat.Matrix) Layer {
			return &Dense{in: ls.In, out: ls.Out, w: newParam("W", w[0]), b: newParam("b", w[1])}
		}
	case "lstm":
		gates, ok := mulDims(4, ls.Hidden)
		_, okIn := mulDims(ls.Steps, ls.InputSize)
		_, okOut := mulDims(ls.Steps, ls.Hidden)
		if !ok || !okIn || !okOut || ls.InputSize < 1 || ls.Hidden < 1 || ls.Steps < 1 {
			return nil, fmt.Errorf("lstm %d steps × %d inputs → %d hidden: dimensions must be at least 1 and their products fit an int",
				ls.Steps, ls.InputSize, ls.Hidden)
		}
		shapes = [][2]int{{ls.InputSize, gates}, {ls.Hidden, gates}, {1, gates}}
		build = func(w []*mat.Matrix) Layer {
			return &LSTM{
				inputSize:  ls.InputSize,
				hidden:     ls.Hidden,
				steps:      ls.Steps,
				returnSeqs: ls.ReturnSeqs,
				wx:         newParam("Wx", w[0]),
				wh:         newParam("Wh", w[1]),
				b:          newParam("b", w[2]),
			}
		}
	default:
		return nil, fmt.Errorf("unknown layer type %q", ls.Type)
	}
	if len(ls.Params) != len(shapes) {
		return nil, fmt.Errorf("%s has %d params, spec has %d", ls.Type, len(shapes), len(ls.Params))
	}
	w := make([]*mat.Matrix, len(shapes))
	for j, ps := range ls.Params {
		if ps.Rows != shapes[j][0] || ps.Cols != shapes[j][1] {
			return nil, fmt.Errorf("%s param %q is %dx%d, want %dx%d",
				ls.Type, ps.Name, ps.Rows, ps.Cols, shapes[j][0], shapes[j][1])
		}
		var err error
		if w[j], err = mat.FromSlice(ps.Rows, ps.Cols, ps.Data); err != nil {
			return nil, fmt.Errorf("%s param %q: %w", ls.Type, ps.Name, err)
		}
	}
	return build(w), nil
}

// mulDims returns a·b, or false when either is negative or the product
// overflows int.
func mulDims(a, b int) (int, bool) {
	if a < 0 || b < 0 || (a > 0 && b > math.MaxInt/a) {
		return 0, false
	}
	return a * b, true
}
