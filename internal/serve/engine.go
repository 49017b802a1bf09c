package serve

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/monitor"
)

// Precision names accepted by Config.Precision (mirrors eval's constants:
// f32 is the frozen fast path and the serving default, f64 the canonical
// escape hatch).
const (
	PrecisionF32 = "f32"
	PrecisionF64 = "f64"
)

// newBatchClassify builds the fused ClassifyFunc the dispatcher flushes
// through: a single GEMM over a persistent staging buffer. Only the
// dispatcher goroutine calls it, so the staging state needs no locking.
func newBatchClassify(m *monitor.MLMonitor, precision string, maxBatch int) (ClassifyFunc, error) {
	in := m.Model().InputSize()
	switch precision {
	case "", PrecisionF32:
		im, err := m.Frozen()
		if err != nil {
			return nil, err
		}
		staging := mat.NewDense[float32](maxBatch, in)
		return func(rows [][]float64, classes []int, conf []float64) error {
			x, err := staging.RowsView(0, len(rows))
			if err != nil {
				return err
			}
			for i, r := range rows {
				dst := x.Row(i)
				for j, v := range r {
					dst[j] = float32(v)
				}
			}
			return im.ClassifyInto(x, classes, conf)
		}, nil
	case PrecisionF64:
		staging := mat.New(maxBatch, in)
		return func(rows [][]float64, classes []int, conf []float64) error {
			x, err := staging.RowsView(0, len(rows))
			if err != nil {
				return err
			}
			for i, r := range rows {
				if err := x.SetRow(i, r); err != nil {
					return err
				}
			}
			verdicts, err := m.ClassifyMatrix(x)
			if err != nil {
				return err
			}
			for i, v := range verdicts {
				classes[i] = 0
				if v.Unsafe {
					classes[i] = 1
				}
				conf[i] = v.Confidence
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown precision %q (want %s or %s)", precision, PrecisionF32, PrecisionF64)
	}
}

// newDirectClassify builds the batcher-bypass classifier: every row is
// scored on the caller's goroutine with no cross-request fusion — the
// per-request baseline BenchmarkServe compares against. It must be safe for
// concurrent calls (the f32 path rides Classify1's pooled workspaces; the
// f64 path allocates per call like the offline evaluator).
func newDirectClassify(m *monitor.MLMonitor, precision string) (ClassifyFunc, error) {
	in := m.Model().InputSize()
	switch precision {
	case "", PrecisionF32:
		im, err := m.Frozen()
		if err != nil {
			return nil, err
		}
		pool := sync.Pool{New: func() any { return make([]float32, in) }}
		return func(rows [][]float64, classes []int, conf []float64) error {
			buf := pool.Get().([]float32)
			defer pool.Put(buf)
			for i, r := range rows {
				if len(r) != in {
					return fmt.Errorf("serve: row of %d features, want %d", len(r), in)
				}
				for j, v := range r {
					buf[j] = float32(v)
				}
				class, c, err := im.Classify1(buf)
				if err != nil {
					return err
				}
				classes[i] = class
				conf[i] = c
			}
			return nil
		}, nil
	case PrecisionF64:
		return func(rows [][]float64, classes []int, conf []float64) error {
			x, err := mat.FromRows(rows)
			if err != nil {
				return err
			}
			verdicts, err := m.ClassifyMatrix(x)
			if err != nil {
				return err
			}
			for i, v := range verdicts {
				classes[i] = 0
				if v.Unsafe {
					classes[i] = 1
				}
				conf[i] = v.Confidence
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown precision %q (want %s or %s)", precision, PrecisionF32, PrecisionF64)
	}
}
