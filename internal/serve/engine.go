package serve

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/nn"
)

// newClassify resolves cfg's precision ("" is f32, the serving default)
// and builds the server's ClassifyFunc over the matching frozen stack: the
// monitor's float32 twin, or the f64 stack over its live weights. Serving
// batches are at most MaxBatch rows, so both stacks run on pooled
// workspaces.
func newClassify(cfg *Config) (ClassifyFunc, error) {
	if cfg.Precision == "" {
		cfg.Precision = monitor.F32
	}
	p, err := monitor.ParsePrecision(string(cfg.Precision))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if p == monitor.F32 {
		im, err := cfg.Monitor.Frozen()
		if err != nil {
			return nil, err
		}
		return engine(im, cfg), nil
	}
	im, err := cfg.Monitor.Model().Stack()
	if err != nil {
		return nil, err
	}
	return engine(im, cfg), nil
}

func engine[T mat.Float](im *nn.InferModel[T], cfg *Config) ClassifyFunc {
	if cfg.Bypass {
		return directClassify(im)
	}
	return batchClassify(im, cfg.Batcher.MaxBatch)
}

// batchClassify builds the fused ClassifyFunc the dispatcher flushes
// through: a single GEMM over a persistent staging buffer. Only the
// dispatcher goroutine calls it, so the staging state needs no locking.
func batchClassify[T mat.Float](im *nn.InferModel[T], maxBatch int) ClassifyFunc {
	staging := mat.NewDense[T](maxBatch, im.InputSize())
	return func(rows [][]float64, classes []int, conf []float64) error {
		x, err := staging.RowsView(0, len(rows))
		if err != nil {
			return err
		}
		for i, r := range rows {
			if err := stage(x.Row(i), r); err != nil {
				return err
			}
		}
		return im.ClassifyInto(x, classes, conf)
	}
}

// directClassify builds the batcher-bypass classifier: every row is scored
// on the caller's goroutine with no cross-request fusion — the per-request
// baseline BenchmarkServe compares against. It is safe for concurrent
// calls: rows stage through pooled buffers into Classify1's pooled
// workspaces.
func directClassify[T mat.Float](im *nn.InferModel[T]) ClassifyFunc {
	in := im.InputSize()
	pool := sync.Pool{New: func() any { return make([]T, in) }}
	return func(rows [][]float64, classes []int, conf []float64) error {
		buf := pool.Get().([]T)
		defer pool.Put(buf)
		for i, r := range rows {
			if err := stage(buf, r); err != nil {
				return err
			}
			class, c, err := im.Classify1(buf)
			if err != nil {
				return err
			}
			classes[i] = class
			conf[i] = c
		}
		return nil
	}
}

// stage converts one assembled feature row into the stack's precision.
func stage[T mat.Float](dst []T, r []float64) error {
	if len(r) != len(dst) {
		return fmt.Errorf("serve: row of %d features, want %d", len(r), len(dst))
	}
	for j, v := range r {
		dst[j] = T(v)
	}
	return nil
}
