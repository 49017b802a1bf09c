package monitor

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Frozen returns the monitor's float32 inference twin, building it on first
// use. The twin snapshots the current weights; a monitor is immutable after
// training, so one freeze is enough for its lifetime.
func (m *MLMonitor) Frozen() (*nn.InferModel[float32], error) {
	m.frozenOnce.Do(func() {
		m.frozen, m.frozenErr = m.model.Freeze()
		if m.frozenErr != nil {
			m.frozenErr = fmt.Errorf("monitor: %s freeze: %w", m.Name(), m.frozenErr)
		}
	})
	return m.frozen, m.frozenErr
}

// ClassifyF32 implements F32Classifier: Classify through the frozen float32
// engine.
func (m *MLMonitor) ClassifyF32(samples []dataset.Sample) ([]Verdict, error) {
	x, err := m.InputMatrix(samples)
	if err != nil {
		return nil, err
	}
	return m.ClassifyMatrixF32(x)
}

// ClassifyMatrixF32 judges pre-assembled (already normalized) inputs through
// the frozen float32 engine — the f32 twin of ClassifyMatrix.
func (m *MLMonitor) ClassifyMatrixF32(x *mat.Matrix) ([]Verdict, error) {
	im, err := m.Frozen()
	if err != nil {
		return nil, err
	}
	classes := make([]int, x.Rows())
	conf := make([]float64, x.Rows())
	if err := im.ClassifyInto(mat.ToFloat32(x), classes, conf); err != nil {
		return nil, fmt.Errorf("monitor: %s classify f32: %w", m.Name(), err)
	}
	out := make([]Verdict, len(classes))
	for i, cls := range classes {
		out[i] = Verdict{Unsafe: cls == 1, Confidence: conf[i]}
	}
	return out, nil
}

// PredictClassesF32 returns 0/1 classes for pre-assembled inputs through the
// frozen float32 engine — the f32 twin of PredictClasses.
func (m *MLMonitor) PredictClassesF32(x *mat.Matrix) ([]int, error) {
	im, err := m.Frozen()
	if err != nil {
		return nil, err
	}
	classes := make([]int, x.Rows())
	if err := im.ClassifyInto(mat.ToFloat32(x), classes, nil); err != nil {
		return nil, fmt.Errorf("monitor: %s predict f32: %w", m.Name(), err)
	}
	return classes, nil
}
