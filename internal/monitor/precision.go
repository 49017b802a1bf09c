package monitor

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Precision selects the inference arithmetic of an ML monitor.
type Precision string

const (
	// F64 is the canonical double-precision path over the live weights.
	F64 Precision = "f64"
	// F32 is the frozen float32 twin (Frozen): the weights quantized once,
	// the inputs narrowed per call.
	F32 Precision = "f32"
)

// ParsePrecision resolves a precision name; "" means F64.
func ParsePrecision(s string) (Precision, error) {
	switch p := Precision(s); p {
	case "", F64:
		return F64, nil
	case F32:
		return F32, nil
	default:
		return "", fmt.Errorf("unknown precision %q (want %s or %s)", s, F64, F32)
	}
}

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

// ClassifyInto judges pre-assembled (already normalized) inputs at
// precision p ("" is F64): per row, the class (1 = unsafe) into classes
// and, when conf is non-nil, its softmax probability into conf. Both slices
// must have x.Rows() entries. Every classification of an ML monitor ends
// here, so both precisions share one logits→class epilogue. Safe for
// concurrent use.
func (m *MLMonitor) ClassifyInto(p Precision, x *mat.Matrix, classes []int, conf []float64) error {
	p, err := ParsePrecision(string(p))
	if err == nil {
		if p == F32 {
			var im *nn.InferModel[float32]
			if im, err = m.Frozen(); err != nil {
				return err
			}
			err = im.ClassifyInto(mat.ToFloat32(x), classes, conf)
		} else {
			err = m.model.ClassifyInto(x, classes, conf)
		}
	}
	if err != nil {
		return fmt.Errorf("monitor: %s classify: %w", m.Name(), err)
	}
	return nil
}
