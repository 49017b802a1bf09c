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
		return batchClassify(im, cfg.Batcher.MaxBatch), nil
	}
	im, err := cfg.Monitor.Model().Stack()
	if err != nil {
		return nil, err
	}
	return batchClassify(im, cfg.Batcher.MaxBatch), nil
}

// batchClassify builds the server's one ClassifyFunc. It stages rows
// maxBatch at a time into a maxBatch×in buffer and scores each chunk with
// one ClassifyInto: a dispatcher flush is a single chunk, and a bypass
// request of any size runs in chunks. Staging buffers come from a pool, so
// the dispatcher and any number of bypass requests may call it at once, and
// a steady stream of calls allocates nothing.
func batchClassify[T mat.Float](im *nn.InferModel[T], maxBatch int) ClassifyFunc {
	type staging struct {
		buf *mat.Dense[T]
		x   mat.Dense[T] // the header over buf's first rows for one chunk
	}
	pool := sync.Pool{New: func() any {
		return &staging{buf: mat.NewDense[T](maxBatch, im.InputSize())}
	}}
	return func(rows [][]float64, classes []int, conf []float64) error {
		st := pool.Get().(*staging)
		defer pool.Put(st)
		for lo := 0; lo < len(rows); lo += maxBatch {
			hi := min(lo+maxBatch, len(rows))
			if err := st.buf.RowsViewInto(&st.x, 0, hi-lo); err != nil {
				return err
			}
			for i, r := range rows[lo:hi] {
				if err := stage(st.x.Row(i), r); err != nil {
					return err
				}
			}
			if err := im.ClassifyInto(&st.x, classes[lo:hi], conf[lo:hi]); err != nil {
				return err
			}
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
