package monitor

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/artifact"
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
// into dst (len = model InputSize) without allocating: the sample's
// aggregated features (MLP) or raw window (LSTM), standardized by the
// monitor's normalizer. It is the one row assembler: InputMatrix loops it
// over a batch, and the serving sessions stage their rows through it.
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

// InputMatrix assembles the monitor's normalized input matrix for a batch
// of samples: row i is AssembleRow(samples[i]).
func (m *MLMonitor) InputMatrix(samples []dataset.Sample) (*mat.Matrix, error) {
	x := mat.New(len(samples), m.model.InputSize())
	for i, s := range samples {
		if err := m.AssembleRow(s, x.Row(i)); err != nil {
			return nil, fmt.Errorf("%w (sample %d)", err, i)
		}
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

// monitorMagic starts a monitor file: an artifact section container whose
// four sections are the monitor meta (arch, window, seqFeats, custom), the
// network's meta and params (nn.Model.Sections) and the feature normalizer
// (dataset.EncodeNormalizer).
const monitorMagic = "APSMONTR"

// Save writes the monitor (architecture, network weights, feature
// normalizer) to w.
func (m *MLMonitor) Save(w io.Writer) error {
	var meta artifact.Buf
	meta.I64(int(m.arch))
	meta.I64(m.window)
	meta.I64(m.seqFeats)
	if m.custom {
		meta.Byte(1)
	} else {
		meta.Byte(0)
	}
	modelMeta, params, err := m.model.Sections()
	if err != nil {
		return err
	}
	if err := artifact.WriteSections(w, monitorMagic, FormatVersion,
		meta.B, modelMeta, params, dataset.EncodeNormalizer(m.norm)); err != nil {
		return fmt.Errorf("monitor: save: %w", err)
	}
	return nil
}

// Load reads a monitor written by Save.
func Load(r io.Reader) (*MLMonitor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("monitor: load: %w", err)
	}
	secs, err := artifact.ReadSections(data, monitorMagic, FormatVersion, 4)
	if err != nil {
		return nil, fmt.Errorf("monitor: load: %w", err)
	}
	mr := artifact.NewReader(secs[0])
	arch, window, seqFeats, custom := Arch(mr.I64()), mr.I64(), mr.I64(), mr.Byte()
	if err := mr.Err(); err != nil || mr.Remaining() != 0 || custom > 1 {
		return nil, fmt.Errorf("monitor: load: meta section of %d bytes, want 3 integers and a 0/1 flag", len(secs[0]))
	}
	if arch != ArchMLP && arch != ArchLSTM {
		return nil, fmt.Errorf("monitor: unknown architecture %v", arch)
	}
	model, err := nn.LoadSections(secs[1], secs[2])
	if err != nil {
		return nil, err
	}
	norm, err := dataset.DecodeNormalizer(secs[3])
	if err != nil {
		return nil, fmt.Errorf("monitor: load normalizer: %w", err)
	}
	if n := model.InputSize(); len(norm.Mean) != n || len(norm.Std) != n {
		return nil, fmt.Errorf("monitor: load normalizer: %d means and %d deviations for %d inputs",
			len(norm.Mean), len(norm.Std), n)
	}
	return &MLMonitor{
		arch:     arch,
		custom:   custom == 1,
		model:    model,
		norm:     norm,
		window:   window,
		seqFeats: seqFeats,
	}, nil
}
