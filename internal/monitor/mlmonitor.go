package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Arch selects the ML monitor architecture.
type Arch int

const (
	// ArchMLP is the fully-connected monitor over aggregated window features.
	ArchMLP Arch = iota + 1
	// ArchLSTM is the stacked-LSTM monitor over raw 6-step windows.
	ArchLSTM
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case ArchMLP:
		return "mlp"
	case ArchLSTM:
		return "lstm"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// MLMonitor wraps a trained neural network together with the feature
// representation and normalization it was trained with.
type MLMonitor struct {
	arch     Arch
	custom   bool // trained with the semantic loss
	model    *nn.Model
	norm     *dataset.Normalizer
	window   int
	seqFeats int

	// Lazily built float32 inference twin behind ClassifyInto at F32.
	// Never serialized: Save persists only the canonical f64 model, and the
	// twin is rebuilt on first f32 use after Load.
	frozenOnce sync.Once
	frozen     *nn.InferModel[float32]
	frozenErr  error
}

var _ Monitor = (*MLMonitor)(nil)

// Name implements Monitor: "mlp", "mlp_custom", "lstm", "lstm_custom".
func (m *MLMonitor) Name() string {
	n := m.arch.String()
	if m.custom {
		n += "_custom"
	}
	return n
}

// Arch returns the monitor architecture.
func (m *MLMonitor) Arch() Arch { return m.arch }

// Model exposes the underlying network (the attack generators need its input
// gradients; white-box FGSM assumes full access to the model).
func (m *MLMonitor) Model() *nn.Model { return m.model }

// Normalizer returns the feature normalizer the monitor applies.
func (m *MLMonitor) Normalizer() *dataset.Normalizer { return m.norm }

// Window returns the number of consecutive records one input sample covers —
// online consumers (the safety guard, the serving sessions) must buffer this
// many records before the monitor can score a step.
func (m *MLMonitor) Window() int { return m.window }

// AssembleRow writes the monitor's normalized input row for a single sample
// into dst (len = model InputSize) without allocating. It is the per-sample
// seam the serving sessions use to stage rows for the shared batcher;
// InputMatrix is its batch twin and produces identical values.
func (m *MLMonitor) AssembleRow(s dataset.Sample, dst []float64) error {
	feats := s.MLP
	if m.arch == ArchLSTM {
		feats = s.Seq
	}
	if len(feats) != m.model.InputSize() {
		return fmt.Errorf("monitor: %s input width %d, model expects %d", m.Name(), len(feats), m.model.InputSize())
	}
	if len(dst) != len(feats) {
		return fmt.Errorf("monitor: %s assemble into %d slots, want %d", m.Name(), len(dst), len(feats))
	}
	if m.norm != nil {
		return m.norm.ApplyRowInto(dst, feats)
	}
	copy(dst, feats)
	return nil
}

// InputMatrix assembles the monitor's normalized input representation for a
// batch of samples.
func (m *MLMonitor) InputMatrix(samples []dataset.Sample) (*mat.Matrix, error) {
	if len(samples) == 0 {
		return mat.New(0, m.model.InputSize()), nil
	}
	var width int
	get := func(s dataset.Sample) []float64 { return s.MLP }
	if m.arch == ArchLSTM {
		get = func(s dataset.Sample) []float64 { return s.Seq }
	}
	width = len(get(samples[0]))
	if width != m.model.InputSize() {
		return nil, fmt.Errorf("monitor: %s input width %d, model expects %d", m.Name(), width, m.model.InputSize())
	}
	x := mat.New(len(samples), width)
	for i, s := range samples {
		if err := x.SetRow(i, get(s)); err != nil {
			return nil, fmt.Errorf("monitor: sample %d: %w", i, err)
		}
	}
	if m.norm != nil {
		m.norm.Apply(x)
	}
	return x, nil
}

// Classify implements Monitor.
func (m *MLMonitor) Classify(samples []dataset.Sample) ([]Verdict, error) {
	x, err := m.InputMatrix(samples)
	if err != nil {
		return nil, err
	}
	return m.ClassifyMatrix(x)
}

// ClassifyMatrix judges pre-assembled (already normalized) inputs at F64 —
// the attack generators perturb these matrices directly.
func (m *MLMonitor) ClassifyMatrix(x *mat.Matrix) ([]Verdict, error) {
	classes, conf := make([]int, x.Rows()), make([]float64, x.Rows())
	if err := m.ClassifyInto(F64, x, classes, conf); err != nil {
		return nil, err
	}
	out := make([]Verdict, len(classes))
	for i, cls := range classes {
		out[i] = Verdict{Unsafe: cls == 1, Confidence: conf[i]}
	}
	return out, nil
}

// PredictClasses returns 0/1 classes for pre-assembled inputs at F64.
func (m *MLMonitor) PredictClasses(x *mat.Matrix) ([]int, error) {
	return m.model.PredictClasses(x)
}

// Save writes the monitor (architecture header + network weights + feature
// normalizer) to w.
func (m *MLMonitor) Save(w io.Writer) error {
	header := fmt.Sprintf("%s %d %d %v\n", m.arch, m.window, m.seqFeats, m.custom)
	if _, err := io.WriteString(w, header); err != nil {
		return fmt.Errorf("monitor: save header: %w", err)
	}
	if err := m.model.Save(w); err != nil {
		return err
	}
	if err := json.NewEncoder(w).Encode(m.norm); err != nil {
		return fmt.Errorf("monitor: save normalizer: %w", err)
	}
	return nil
}

// Load reads a monitor written by Save.
func Load(r io.Reader) (*MLMonitor, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("monitor: load header: %w", err)
	}
	var (
		archName         string
		window, seqFeats int
		custom           bool
	)
	if _, err := fmt.Sscanf(strings.TrimSpace(header), "%s %d %d %t", &archName, &window, &seqFeats, &custom); err != nil {
		return nil, fmt.Errorf("monitor: parse header %q: %w", strings.TrimSpace(header), err)
	}
	var arch Arch
	switch archName {
	case "mlp":
		arch = ArchMLP
	case "lstm":
		arch = ArchLSTM
	default:
		return nil, fmt.Errorf("monitor: unknown architecture %q", archName)
	}
	// The model JSON is a single line (nn.Save uses Encoder.Encode), followed
	// by the normalizer JSON line.
	modelLine, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("monitor: load model: %w", err)
	}
	model, err := nn.Load(strings.NewReader(modelLine))
	if err != nil {
		return nil, err
	}
	var norm dataset.Normalizer
	if err := json.NewDecoder(br).Decode(&norm); err != nil {
		return nil, fmt.Errorf("monitor: load normalizer: %w", err)
	}
	if n := model.InputSize(); len(norm.Mean) != n || len(norm.Std) != n {
		return nil, fmt.Errorf("monitor: load normalizer: %d means and %d deviations for %d inputs",
			len(norm.Mean), len(norm.Std), n)
	}
	return &MLMonitor{
		arch:     arch,
		custom:   custom,
		model:    model,
		norm:     &norm,
		window:   window,
		seqFeats: seqFeats,
	}, nil
}
